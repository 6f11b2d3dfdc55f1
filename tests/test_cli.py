"""Command-line front end tests, run in-process."""

import contextlib
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

from robinsonblocks import cli, enumerator
from robinsonblocks.cli import MAX_RANK, main
from robinsonblocks.complexity import closed_form_A, paperfolding_P
from robinsonblocks.render import parse_ascii, render_ascii
from robinsonblocks.supertile import build


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_closed_form(capsys):
    code, out, _ = run_cli(capsys, "formula", "--n", "3", "--which", "A")
    assert code == 0
    assert out == "528\n"


def test_formula_coefficients(capsys):
    code, out, _ = run_cli(capsys, "formula", "--n", "3", "--which", "a")
    assert (code, out) == (0, "5\n")
    code, out, _ = run_cli(capsys, "formula", "--n", "3", "--which", "b")
    assert (code, out) == (0, "2\n")


def test_formula_paperfolding_labeled_conjecture(capsys):
    code, out, err = run_cli(capsys, "formula", "--n", "4", "--which", "P")
    assert code == 0
    assert out == "316\n"
    assert "conjecture" in err


def test_formula_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "formula", "--n", "1", "--which", "A")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_formula_prints_every_value_it_accepts(capsys):
    # A(n) of a 2500-digit n has about 5000 digits, past Python's default
    # limit on int-to-str conversion; the limit on --n itself stays.
    n = 10**2500
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = {"A": f"{closed_form_A(n)}\n", "P": f"{paperfolding_P(n)}\n"}
    finally:
        sys.set_int_max_str_digits(limit)
    assert min(map(len, want.values())) > 5000
    for which, value in want.items():
        code, out, _ = run_cli(capsys, "formula", "--n", f"{n}", "--which", which)
        assert (code, out) == (0, value)
        assert sys.get_int_max_str_digits() == limit
    code, out, err = run_cli(capsys, "formula", "--n", "1" * 4301)
    assert (code, out) == (2, "")
    assert "invalid int value" in err


def test_bad_flags_exit_2(capsys):
    assert run_cli(capsys, "count")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "count", "--n", "2", "--restrict", "5,5")[0] == 2
    for argv in (
        ("count", "--n", "0"),
        ("count", "--n", "-3"),
        ("count", "--n", "2", "--max-rank", "0"),
        ("count", "--n", "2", "--threads", "0"),
        ("supertile", "--rank", "0"),
        ("verify", "--n-max", "0"),
        ("verify", "--n-max", "3", "--threads", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "must be >= 1" in err, argv
    for flag in (
        ("supertile", "--rank"),
        ("count", "--n", "2", "--max-rank"),
        ("verify", "--n-max", "3", "--max-rank"),
    ):
        for value in (MAX_RANK + 1, 10**9):
            argv = (*flag, str(value))
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"must be <= {MAX_RANK}" in err, argv
    code, out, err = run_cli(capsys, "verify", "--n-min", "5", "--n-max", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_count_plain(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "2")
    assert code == 0
    assert out == "224\n"
    assert "stabilized at rank" in err


def test_count_restricted_base_cases(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--restrict", "1,1")
    assert (code, out) == (0, "56\n")
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--restrict", "1,2")
    assert (code, out) == (0, "124\n")


def test_count_non_stabilization_exit_1(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "3", "--max-rank", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_count_csv(capsys, tmp_path):
    csv_path = tmp_path / "n2.csv"
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,rank,count,stabilized"
    assert lines[-1].split(",")[2] == out.strip()


# Runs the CLI with regular files capped at 64 bytes, so a longer write
# fails partway (with EFBIG once SIGXFSZ is ignored).
UNDER_A_FILE_SIZE_LIMIT = """
import resource, signal, sys
from robinsonblocks.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("argv", [("count", "--n", "2"), ("verify", "--n-max", "5")])
def test_failed_csv_write_keeps_the_old_file(tmp_path, argv):
    csv_path = tmp_path / "old.csv"
    csv_path.write_text("old\n")
    csv_path.chmod(0o640)
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", UNDER_A_FILE_SIZE_LIMIT, *argv, "--csv", str(csv_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "File too large" in proc.stderr
    assert csv_path.read_text() == "old\n"
    assert stat.S_IMODE(csv_path.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [csv_path]


@pytest.mark.parametrize(
    "argv", [("supertile", "--rank", "2", "--output"), ("count", "--n", "2", "--csv")]
)
def test_file_in_a_missing_directory_is_named_in_the_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "doc"
    code, out, err = run_cli(capsys, *argv, str(target))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_count_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache"
    code1, out1, _ = run_cli(capsys, "count", "--n", "2", "--cache", str(cache))
    files = sorted(cache.glob("*.rbps"))
    assert code1 == 0 and files
    # Second run hits the cache and prints identical output.
    code2, out2, _ = run_cli(capsys, "count", "--n", "2", "--cache", str(cache))
    assert (code1, out1) == (code2, out2)
    assert out1 == "224\n"


def test_cached_count_matches_uncached(capsys, tmp_path):
    cache = tmp_path / "cache"
    for n in ("2", "3"):
        for extra in ((), ("--restrict", "1,1"), ("--restrict", "1,2"),
                      ("--restrict", "2,1"), ("--restrict", "2,2")):
            argv = ("count", "--n", n, *extra, "--csv")
            plain = run_cli(capsys, *argv, str(tmp_path / "plain.csv"))
            cached = run_cli(capsys, *argv, str(tmp_path / "cached.csv"), "--cache", str(cache))
            assert plain[:2] == cached[:2]
            assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "cached.csv").read_bytes()


def test_cache_recreates_a_missing_middle_rank(capsys, tmp_path):
    cache = tmp_path / "cache"
    for extra in ((), ("--restrict", "1,2")):
        argv = ("count", "--n", "3", *extra, "--cache", str(cache))
        first = run_cli(capsys, *argv)
        middle = cache / "patterns_n3_rank5.rbps"
        blob = middle.read_bytes()
        middle.unlink()
        assert run_cli(capsys, *argv)[:2] == first[:2]
        assert middle.read_bytes() == blob


def test_cache_file_for_another_n_exit_1(capsys, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "count", "--n", "2", "--cache", str(cache))
    (cache / "patterns_n2_rank2.rbps").rename(cache / "patterns_n3_rank2.rbps")
    code, out, err = run_cli(capsys, "count", "--n", "3", "--restrict", "1,2", "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err == "error: corrupt pattern-set file at byte 10: holds n=2 blocks, not n=3\n"


def test_interrupted_cache_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    atomic_open = enumerator._atomic_open
    writes = []

    @contextlib.contextmanager
    def half_then_fail(path, mode):
        # The writer's one ``write`` puts down half the file, then fails.
        with atomic_open(path, mode) as fh:
            def write(data):
                writes.append(path)
                fh.write(memoryview(data)[: len(data) // 2])
                raise OSError("disk full")

            yield SimpleNamespace(write=write)

    monkeypatch.setattr(enumerator, "_atomic_open", half_then_fail)
    code, out, err = run_cli(capsys, "count", "--n", "2", "--cache", str(cache))
    assert (code, out) == (1, "")
    assert "disk full" in err
    assert list(cache.iterdir()) == []
    assert len(writes) == 1
    monkeypatch.undo()
    assert run_cli(capsys, "count", "--n", "2", "--cache", str(cache))[:2] == (0, "224\n")


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ROBINSONBLOCKS_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run_cli(capsys, "count", "--n", "2")
    assert code == 0 and out == "224\n"
    assert sorted((tmp_path / "envcache").glob("*.rbps"))


def test_cache_inspect(capsys, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "count", "--n", "2", "--cache", str(cache))
    target = sorted(cache.glob("*.rbps"))[-1]
    code, out, _ = run_cli(capsys, "cache", "--inspect", str(target))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,version"
    n, count, version = lines[1].split(",")
    assert (n, version) == ("2", "1")


def test_cache_inspect_corrupt_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.rbps"
    bad.write_bytes(b"garbage")
    code, _, err = run_cli(capsys, "cache", "--inspect", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_verify_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-min", "2", "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,closed_form,recurrence,oracle,match"
    assert len(lines) == 5
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_non_stabilization_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-min", "4", "--n-max", "4", "--max-rank", "3")
    assert code == 1
    assert "false" in out


def test_supertile_ascii_round_trip(capsys):
    code, out, _ = run_cli(capsys, "supertile", "--rank", "3", "--facing", "SE")
    assert code == 0
    assert parse_ascii(out) == build(3, "SE")


def test_supertile_json(capsys, tmp_path):
    path = tmp_path / "grid.json"
    code, _, _ = run_cli(
        capsys, "supertile", "--rank", "2", "--out", "json", "--output", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["width"] == 3 and len(doc["cells"]) == 9


def test_supertile_svg(capsys):
    code, out, _ = run_cli(capsys, "supertile", "--rank", "2", "--out", "svg")
    assert code == 0
    assert out.startswith("<?xml") and "</svg>" in out


@pytest.mark.parametrize("out", ["ascii", "json", "svg"])
def test_supertile_out_of_memory_is_one_error_line(capsys, monkeypatch, out):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "_ascii_chunks", exhausted)
    monkeypatch.setattr(cli, "_svg_chunks", exhausted)
    monkeypatch.setattr(cli.TileGrid, "_json_chunks", exhausted)
    code, stdout, err = run_cli(capsys, "supertile", "--rank", "2", "--out", out)
    assert (code, stdout) == (1, "")
    assert err == "error: supertile: out of memory\n"


def _first_chunk_then_out_of_memory(chunks):
    def failing(*args, **kwargs):
        yield next(iter(chunks(*args, **kwargs)))
        raise MemoryError

    return failing


@pytest.mark.parametrize("out", ["ascii", "json", "svg", "render"])
def test_failed_output_file_leaves_no_file(capsys, monkeypatch, tmp_path, out):
    grid_path = tmp_path / "grid.json"
    assert main(["supertile", "--rank", "3", "--out", "json", "--output", str(grid_path)]) == 0
    for name in ("_ascii_chunks", "_svg_chunks"):
        monkeypatch.setattr(cli, name, _first_chunk_then_out_of_memory(getattr(cli, name)))
    monkeypatch.setattr(
        cli.TileGrid, "_json_chunks", _first_chunk_then_out_of_memory(cli.TileGrid._json_chunks)
    )
    target = tmp_path / "doc.out"
    if out == "render":
        argv = ("render", "--input", str(grid_path), "--out", str(target), "--overlay")
        command = "render"
    else:
        argv = ("supertile", "--rank", "3", "--out", out, "--output", str(target))
        command = "supertile"
    capsys.readouterr()
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == f"error: {command}: out of memory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]


def test_symlinked_output_is_written_through(capsys, tmp_path):
    plain, real, link = tmp_path / "plain.svg", tmp_path / "real.svg", tmp_path / "link.svg"
    argv = ("supertile", "--rank", "3", "--out", "svg", "--output")
    assert run_cli(capsys, *argv, str(plain))[0] == 0
    real.write_text("old")
    real.chmod(0o640)
    link.symlink_to(real.name)
    code, out, err = run_cli(capsys, *argv, str(link))
    assert (code, out, err) == (0, "", f"note: wrote {link}\n")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == plain.read_bytes()
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.svg", "plain.svg", "real.svg"]


def test_failed_symlinked_output_leaves_its_file_alone(capsys, monkeypatch, tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old content")
    real.chmod(0o640)
    link.symlink_to(real.name)
    monkeypatch.setattr(cli, "_ascii_chunks", _first_chunk_then_out_of_memory(cli._ascii_chunks))
    code, out, err = run_cli(capsys, "supertile", "--rank", "3", "--output", str(link))
    assert (code, out, err) == (1, "", "error: supertile: out of memory\n")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text() == "old content"
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_symlinked_output_error_names_the_path_given(capsys, tmp_path):
    # The temporary file goes beside the link's target, where a directory
    # of its name stands: the error names the link, not the target.
    real, link = tmp_path / "sub" / "real.txt", tmp_path / "link.txt"
    real.parent.mkdir()
    real.write_text("old content")
    link.symlink_to(real)
    (real.parent / f"real.txt.{os.getpid()}.tmp").mkdir()
    code, out, err = run_cli(capsys, "supertile", "--rank", "2", "--output", str(link))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{link}'\n"
    assert real.read_text() == "old content"


def test_existing_output_file_keeps_its_mode(capsys, tmp_path):
    target = tmp_path / "doc.txt"
    target.write_text("old")
    target.chmod(0o640)
    code, _, _ = run_cli(capsys, "supertile", "--rank", "2", "--output", str(target))
    assert code == 0
    assert target.read_text() == render_ascii(build(2))
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_output_is_written_directly(capsys, tmp_path):
    grid_path, plain, fifo = tmp_path / "grid.json", tmp_path / "plain.svg", tmp_path / "doc.fifo"
    assert main(["supertile", "--rank", "4", "--out", "json", "--output", str(grid_path)]) == 0
    argv = ("render", "--input", str(grid_path), "--overlay", "--out")
    assert main([*argv, str(plain)]) == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv, str(fifo))
    reader.join(timeout=30)
    if reader.is_alive():  # nothing opened the FIFO: unblock the reader
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert (code, out, err) == (0, "", f"note: wrote {fifo}\n")
    assert received == [plain.read_bytes()]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.fifo", "grid.json", "plain.svg"]


# What the installed ``robinsonblocks`` console script runs.
CONSOLE_SCRIPT = "import sys; from robinsonblocks.cli import main; sys.exit(main())"


@pytest.mark.skipif(shutil.which("head") is None, reason="needs head")
@pytest.mark.parametrize("out, rank", [("ascii", 9), ("json", 9), ("svg", 6)])
def test_stdout_closed_early_exits_quietly(out, rank):
    producer = subprocess.Popen(
        [sys.executable, "-c", CONSOLE_SCRIPT, "supertile", "--rank", str(rank), "--out", out],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = subprocess.run(["head", "-c", "20"], stdin=producer.stdout, capture_output=True)
    producer.stdout.close()  # head has gone: the next write meets a closed pipe
    err = producer.stderr.read()
    producer.stderr.close()
    assert (producer.wait(), err) == (0, b"")
    assert len(head.stdout) == 20


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("before", ["", "prev\n"], ids=["truncated", "appended"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "1", "--csv"),
        ("supertile", "--rank", "2", "--output"),
        ("render", "--input", "{tmp}/grid.json", "--out"),
    ],
    ids=["csv", "output", "out"],
)
def test_an_output_path_naming_stdout_is_written_after_what_it_holds(tmp_path, before, argv):
    # Reopened, /dev/stdout would truncate the file stdout is redirected
    # to: ``>> log`` would lose the old lines, and a count printed after
    # the CSV would overwrite its header.
    main(["supertile", "--rank", "2", "--out", "json", "--output", str(tmp_path / "grid.json")])
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}

    def run(path, stdout):
        return subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, *(a.format(tmp=tmp_path) for a in argv), path],
            stdout=stdout,
            stderr=subprocess.DEVNULL,
            env=env,
            check=True,
        )

    printed = run(str(tmp_path / "doc.txt"), subprocess.PIPE).stdout.decode()
    log = tmp_path / "log"
    log.write_text(before)
    with open(log, "a" if before else "w") as stdout:
        run("/dev/stdout", stdout)
    assert log.read_text() == before + (tmp_path / "doc.txt").read_text() + printed


@pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="needs /dev/stderr")
@pytest.mark.parametrize("before", ["", "prev\n"], ids=["truncated", "appended"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "2", "--csv"),
        ("supertile", "--rank", "2", "--output"),
        ("render", "--input", "{tmp}/grid.json", "--out"),
    ],
    ids=["csv", "output", "out"],
)
def test_an_output_path_naming_stderr_is_written_after_what_it_holds(tmp_path, before, argv):
    # Reopened, /dev/stderr would truncate the file stderr is redirected
    # to: ``2>> elog`` would lose the old lines, and under ``2> elog`` a
    # note written after the document would overwrite its start.
    main(["supertile", "--rank", "2", "--out", "json", "--output", str(tmp_path / "grid.json")])
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}

    def run(path, stderr):
        return subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, *(a.format(tmp=tmp_path) for a in argv), path],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            check=True,
        )

    doc = tmp_path / "doc.txt"
    plain = run(str(doc), subprocess.PIPE)
    notes = plain.stderr.decode().replace(f"note: wrote {doc}\n", "")
    log = tmp_path / "elog"
    log.write_text(before)
    with open(log, "a" if before else "w") as stderr:
        printed = run("/dev/stderr", stderr).stdout
    assert printed == plain.stdout
    assert log.read_text() == before + doc.read_text() + notes


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "mode, before",
    [("a", ""), ("a", "prev\n"), ("w", ""), ("w", "prev\n")],
    ids=["appended-empty", "appended", "written-empty", "written"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "2", "--csv"),
        ("supertile", "--rank", "2", "--output"),
        ("render", "--input", "{tmp}/grid.json", "--out"),
    ],
    ids=["csv", "output", "out"],
)
def test_an_output_path_naming_another_descriptor_is_written_at_its_position(
    tmp_path, mode, before, argv
):
    # ``3>> flog`` (mode "a") or ``3> flog`` after "prev" was written
    # through the descriptor (mode "w"): reopened, /dev/fd/3 would
    # truncate the file and lose what the descriptor's holder put there.
    main(["supertile", "--rank", "2", "--out", "json", "--output", str(tmp_path / "grid.json")])
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    args = [a.format(tmp=tmp_path) for a in argv]
    doc = tmp_path / "doc.txt"
    plain = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT, *args, str(doc)],
        capture_output=True, env=env, check=True,
    )
    log = tmp_path / "flog"
    log.write_text("" if mode == "w" else before)
    with open(log, mode) as fh:
        fh.write(before if mode == "w" else "")
        fh.flush()
        fd = fh.fileno()
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, *args, f"/dev/fd/{fd}"],
            capture_output=True, env=env, check=True, pass_fds=(fd,),
        )
    assert proc.stdout == plain.stdout
    assert proc.stderr.decode() == plain.stderr.decode().replace(f"note: wrote {doc}\n", "")
    assert log.read_text() == before + doc.read_text()


def test_render_from_json(capsys, tmp_path):
    grid_path = tmp_path / "grid.json"
    svg_path = tmp_path / "grid.svg"
    run_cli(capsys, "supertile", "--rank", "3", "--out", "json", "--output", str(grid_path))
    code, _, _ = run_cli(
        capsys, "render", "--input", str(grid_path), "--out", str(svg_path), "--overlay"
    )
    assert code == 0
    text = svg_path.read_text()
    assert "</svg>" in text and "<rect" in text


@pytest.mark.parametrize(
    "doc",
    [
        '{"width":1,"height":1,"cells":[["zz",0,false]]}',
        '{"width":1,"height":1}',
        '[["bumpy_corner",0,false]]',
        '{"width":1,"height":1,"cells":[7]}',
        '{"width":1,"height":1,"cells":[["bumpy_corner",[1],false]]}',
        '{"width":1,"height":1,"cells":[["corner",Infinity,0]]}',
        '{"width":1,"height":1,"cells":[["corner",1e400,0]]}',
        "[" * 200_000 + "]" * 200_000,
        '{"width":true,"height":true,"cells":[["corner",0,false]]}',
        '{"width":%d,"height":0,"cells":[]}' % 10**30,
    ],
    ids=[
        "unknown-prototile",
        "no-cells",
        "top-level-array",
        "cell-not-a-list",
        "rotation-not-int",
        "rotation-infinity",
        "rotation-overflows-a-float",
        "nested-too-deep",
        "boolean-sides",
        "side-past-numpy-dimensions",
    ],
)
def test_render_rejects_malformed_grid_json(capsys, tmp_path, doc):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(doc)
    svg_path = tmp_path / "grid.svg"
    code, out, err = run_cli(capsys, "render", "--input", str(grid_path), "--out", str(svg_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: grid JSON") and err.count("\n") == 1
    assert not svg_path.exists()


def test_stdout_byte_identical_across_runs_and_threads(capsys):
    results = set()
    for threads in ("1", "1", "3"):
        code, out, _ = run_cli(capsys, "count", "--n", "4", "--threads", threads)
        assert code == 0
        results.add(out)
    assert len(results) == 1
    runs = set()
    for threads in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "verify", "--n-min", "2", "--n-max", "3", "--threads", threads
        )
        assert code == 0
        runs.add(out)
    assert len(runs) == 1


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "robinsonblocks.cli", "formula", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "224\n"
