"""Command-line front end: generate supertiles, count blocks, evaluate
formulas, cross-verify, render, and inspect caches.

Exit codes are a stable contract: 0 success, 1 verification mismatch or
non-stabilization, 2 flag errors.  Standard out carries parseable
values (a single integer or CSV); diagnostics go to standard error as
single ``error: ...`` / ``note: ...`` lines.

``count`` and ``verify`` each call ``enumerator.count_stabilized``, the
one plateau scan; ``--restrict`` and ``--cache`` are its arguments.

An output path naming one of this process's open descriptors
(``/dev/stdout``, ``/dev/fd/3``) is written through that descriptor;
any other file, the cache's included, by ``enumerator._atomic_open``,
the package's one rule for symlinks, temporaries and SIGTERM.

A process that calls ``main`` freezes the collector's heap at exit, so
its interpreter skips the full collections of finalisation (about 20 ms
of a ~220 ms call; README, "What one CLI call costs").  ``complexity``
and ``render`` are imported by the commands that use them (``formula``,
``verify``, ``supertile`` and ``render``), so ``count`` and ``cache``
never load them.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import itertools
import os
import sys
from pathlib import Path

from . import enumerator
from .enumerator import _atomic_open, count_report_csv, inspect_pattern_file
from .supertile import FACING_ROTATIONS, TileGrid, build

CACHE_ENV = "ROBINSONBLOCKS_CACHE"
DEFAULT_MAX_RANK = 11
# The largest rank a flag accepts.  A fresh ``supertile --rank 14`` peaks
# at about 372 MB in the NE facing and 628 MB in the others (rank 13: 116
# and 180 MB), the build's own peak: the NE grid of each rank is kept and
# handed out without a copy, the quadrants of the next rank are written
# into its grid in place, any other facing is one copy of it, and writing
# its document adds one band of output, not a multiple of the grid.  Each
# rank needs 4x the cells.
MAX_RANK = 14


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _note(msg: str) -> None:
    print(f"note: {msg}", file=sys.stderr)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rank(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_RANK:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_RANK}, got {value}")
    return value


def _parse_restrict(text: str):
    try:
        r, c = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("--restrict wants ROW,COL (e.g. 1,2)")
    if not (1 <= r <= 2 and 1 <= c <= 2):
        raise argparse.ArgumentTypeError("--restrict coordinates must be 1 or 2")
    return r, c


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robinsonblocks",
        description="Exact n-by-n block counts of Robinson tilings, two ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("supertile", help="generate a supertile grid")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--facing", choices=sorted(FACING_ROTATIONS), default="NE")
    p.add_argument("--out", choices=("svg", "json", "ascii"), default="ascii")
    p.add_argument("--output", type=Path, default=None, help="file path (default stdout)")

    p = sub.add_parser("count", help="stabilized distinct-block count")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--max-rank", type=_rank, default=DEFAULT_MAX_RANK)
    p.add_argument("--restrict", type=_parse_restrict, default=None, metavar="R,C")
    p.add_argument("--csv", type=Path, default=None)
    p.add_argument("--cache", type=Path, default=None)
    p.add_argument(
        "--threads", type=_positive_int, default=1, help="no effect; kept for compatibility"
    )

    p = sub.add_parser("formula", help="evaluate a closed form exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=("A", "a", "b", "P"), default="A")

    p = sub.add_parser("verify", help="closed form vs recurrence vs oracle")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--max-rank", type=_rank, default=DEFAULT_MAX_RANK)
    p.add_argument("--csv", type=Path, default=None)
    p.add_argument(
        "--threads", type=_positive_int, default=1, help="no effect; kept for compatibility"
    )

    p = sub.add_parser("render", help="render a grid JSON dump to SVG")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--overlay", action="store_true")

    p = sub.add_parser("cache", help="inspect a pattern-set cache file")
    p.add_argument("--inspect", type=Path, required=True)

    return parser


def _cache_dir(args) -> Path | None:
    if args.cache is not None:
        return args.cache
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def _open_fds() -> list:
    """The descriptors this process has open, fd 1 and fd 2 first; only
    those two where the system does not list them in /dev/fd."""
    try:
        fds = {int(name) for name in os.listdir("/dev/fd")}
    except OSError:
        return [1, 2]
    return [1, 2, *sorted(fds - {1, 2})]


def _writable(fd: int) -> bool:
    """Whether ``fd`` is open for writing; assumed where there is no
    ``fcntl`` to read its access mode."""
    try:
        # Imported here: only a path naming an open file gets this far,
        # and the import adds about 0.1 MB to every process.
        import fcntl
    except ImportError:
        return True
    return fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE != os.O_RDONLY


def _output_fd(path: Path) -> int | None:
    """The descriptor open for writing on the file ``path`` names
    (``/dev/stdout``, ``/dev/fd/3``, or the file a shell redirected a
    descriptor to), fd 1 and fd 2 first; None if there is none."""
    try:
        target = os.stat(path)
    except OSError:  # no such file yet
        return None
    for fd in _open_fds():
        with contextlib.suppress(OSError):  # fd closed since it was listed
            if os.path.samestat(target, os.fstat(fd)) and _writable(fd):
                return fd
    return None


def _write_chunks(chunks, path: Path | None) -> None:
    """Stream a document to ``path``, or to stdout when it is None.  A
    path naming the file a descriptor is open on for writing is written
    through that descriptor (``sys.stdout`` and ``sys.stderr`` for fd 1
    and fd 2), at its current position and without truncating the file;
    any other path through ``enumerator._atomic_open``.  A reader that
    closes the stream early (``| head``) ends the write quietly."""
    fd = 1 if path is None else _output_fd(path)
    if fd is None:
        with _atomic_open(path, "w") as fh:
            fh.writelines(chunks)
        _note(f"wrote {path}")
        return
    std = {1: sys.stdout, 2: sys.stderr}
    stream = std.get(fd) or os.fdopen(fd, "w", closefd=False)
    try:
        stream.writelines(chunks)
        stream.flush()
    except BrokenPipeError:
        # Point the descriptor at devnull so that the final flush of what
        # is still buffered (the interpreter's, or the close below) does
        # not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    finally:
        if fd not in std:
            stream.close()


def _cmd_supertile(args) -> int:
    grid = build(args.rank, args.facing)
    if args.out == "ascii":
        from .render import _ascii_chunks

        chunks = _ascii_chunks(grid)
    elif args.out == "json":
        chunks = itertools.chain(grid._json_chunks(), ["\n"])
    else:
        from .render import RenderStyle, _svg_chunks

        chunks = _svg_chunks(grid, RenderStyle())
    _write_chunks(chunks, args.output)
    return 0


def _cmd_count(args) -> int:
    report = enumerator.count_stabilized(
        args.n, args.max_rank, corner_pos=args.restrict, cache=_cache_dir(args)
    )
    if args.csv is not None:
        _write_chunks([count_report_csv(report)], args.csv)
    if not report.stabilized:
        _err(
            f"count for n={args.n} did not stabilize by rank {args.max_rank} "
            f"(last count {report.count})"
        )
        return 1
    print(report.count)
    _note(f"stabilized at rank {report.rank_used}")
    return 0


def _cmd_formula(args) -> int:
    from .complexity import DomainError, closed_form_A, coeff_a, coeff_b, paperfolding_P

    try:
        if args.which == "A":
            value = closed_form_A(args.n)
        elif args.which == "a":
            value = coeff_a(args.n)
        elif args.which == "b":
            value = coeff_b(args.n)
        else:
            value = paperfolding_P(args.n)
            _note("paper-folding value is the Gahler-Nilsson conjecture, evaluated not asserted")
    except DomainError as exc:
        _err(str(exc))
        return 2
    # The parser's ``int`` keeps Python's 4300-digit limit on --n, but the
    # value, about n^2, may be twice as long: spell it without the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _cmd_verify(args) -> int:
    if args.n_min < 2:
        _err("verify needs --n-min >= 2 (the closed form excludes n=1)")
        return 2
    if args.n_max < args.n_min:
        _err(f"verify needs --n-max >= --n-min, got {args.n_min}..{args.n_max}")
        return 2
    from .complexity import VERIFY_CSV_HEADER, RecurrenceTable, closed_form_A, verify_row

    table = RecurrenceTable()
    rows = [VERIFY_CSV_HEADER]
    all_ok = True
    for n in range(args.n_min, args.n_max + 1):
        closed = closed_form_A(n)
        recur = table.A(n)
        report = enumerator.count_stabilized(n, args.max_rank)
        oracle = report.count
        ok = report.stabilized and closed == recur == oracle
        all_ok &= ok
        rows.append(verify_row(n, closed, recur, oracle, ok))
    text = "\n".join(rows) + "\n"
    sys.stdout.write(text)
    if args.csv is not None:
        _write_chunks([text], args.csv)
    if not all_ok:
        _err("verification mismatch or non-stabilization (see match column)")
        return 1
    return 0


def _cmd_render(args) -> int:
    from .render import RenderStyle, _svg_chunks

    grid = TileGrid.from_json(args.input.read_text())
    _write_chunks(_svg_chunks(grid, RenderStyle(rank_overlay=args.overlay)), args.out)
    return 0


def _cmd_cache(args) -> int:
    n, count = inspect_pattern_file(args.inspect)
    print("n,count,version")
    print(f"{n},{count},{enumerator.FORMAT_VERSION}")
    return 0


_COMMANDS = {
    "supertile": _cmd_supertile,
    "count": _cmd_count,
    "formula": _cmd_formula,
    "verify": _cmd_verify,
    "render": _cmd_render,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    # Freeze the collector's heap at exit, so that finalisation skips its
    # full passes over the objects numpy and this package leave tracked.
    # Safe only while every file written here is closed by a ``with`` or
    # a ``finally``, never by a finaliser.  Unregistered first, so that
    # repeated calls leave one registration.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # the library's own errors are ValueErrors
        _err(str(exc))
        return 1
    except MemoryError:
        _err(f"{args.command}: out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
