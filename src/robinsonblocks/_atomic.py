"""The package's one rule for writing a file by name: ``_atomic_open``.

The ``.rbps`` writer (``patterns``) and the CLI's documents and CSV files
are opened here.  It is a module of its own so that each of those loads
it without the other: a count that writes no file never compiles it.
"""

from __future__ import annotations

import contextlib
import os
import stat


class _Terminated(BaseException):
    """SIGTERM, raised inside ``_sigterm_unwinds``."""


def _raise_terminated(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """Make SIGTERM unwind the block, so that ``_atomic_open`` removes its
    temporary file, then end the process by SIGTERM all the same.  The
    default action ends a process without unwinding.  Only while SIGTERM
    has that action, and only on the main thread, the one that may set
    a handler.  ``signal`` is imported here, as it costs about 3 ms."""
    import signal

    armed = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    if armed:
        try:
            signal.signal(signal.SIGTERM, _raise_terminated)
        except ValueError:  # not the main thread
            armed = False
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        if armed:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


@contextlib.contextmanager
def _atomic_open(path, mode: str):
    """Open ``path`` for writing so that a writer that fails or is killed
    by SIGTERM midway never leaves a partial file there.  Every file the
    package writes by name is opened here.

    A path that names nothing yet, or reaches a regular file, through
    symlinks or not, stands for the file it resolves to.  That file is
    written under a temporary name beside it, renamed over it when the
    block ends (keeping an existing file's permission bits) and removed
    if the block raises or SIGTERM arrives, so a symlink stays a symlink
    and keeps its file whole.  An error on the temporary names ``path``.
    Anything else (a FIFO, a device, a terminal, a pipe) is opened and
    written directly, as a plain ``open`` would: it cannot be replaced
    by a rename.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, mode) as fh:
            yield fh
        return
    file = os.path.realpath(path)
    tmp = f"{file}.{os.getpid()}.tmp"
    # Outside the ``try``: a SIGTERM re-raised inside it would end the
    # process before the temporary is removed.
    with _sigterm_unwinds():
        try:
            with open(tmp, mode) as fh:
                if st is not None:
                    os.chmod(tmp, stat.S_IMODE(st.st_mode))
                yield fh
            os.replace(tmp, file)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            if isinstance(exc, OSError) and exc.filename == tmp and exc.filename2 is None:
                exc.filename = os.fspath(path)  # name the file asked for, not the temporary
            raise
