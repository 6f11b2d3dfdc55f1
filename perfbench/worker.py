"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 --out RESULT.json --tmp DIR
    python3 perfbench/worker.py --probe --out RESULT.json

``run.py`` starts a fresh worker per repetition, so the process-global
supertile memo and the monotone ``ru_maxrss`` never carry over.  The
first thing a worker does is import ``robinsonblocks.cli`` and time it
(the set-up time); ``--probe`` stops there.

Every op is checked against references that do not use the brute-force
oracle; a wrong answer, a nonzero exit or a traceback marks the op as
failed and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
# A host-speed probe (hostspeed.py) is taken before every op and once
# after the job; run.py restates each op by the two probes around it.


class Checks:
    """Collects mismatches for one op.  With ``corrupt`` set, the first
    value checked against an independent reference (``reference``) is
    off by one, to prove failures are counted."""

    def __init__(self, corrupt: bool):
        self.corrupt = corrupt
        self.errors: list = []

    def reference(self, what: str, got: int, want: int) -> None:
        """A program output against a reference that does not use the oracle."""
        if self.corrupt:
            want += 1
            self.corrupt = False
        self.equal(f"reference {what}", got, want)

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{what}: got {str(got)[:80]}, want {str(want)[:80]}")

    def true(self, what: str, cond) -> None:
        if not cond:
            self.errors.append(what)


class Job:
    """Shared bookkeeping: op records, failures, span table, counters."""

    def __init__(self, tracer, corrupt: bool):
        self.tracer = tracer
        self.checks = Checks(corrupt)
        self.ops: list = []  # [kind, latency_s, ok, "write" | "read" | "", last probe index]
        self.errors: list = []
        self.spans: dict = {}
        self.counters = {
            "distinct_blocks": 0,
            "rbps_files_written": 0,
            "rbps_bytes_written": 0,
            "memo_entries": 0,
            "evals": 0,
        }
        self.rss_kb = 0
        self.speed: list = []  # host-speed probe times, taken between ops
        self.speed_probe = hostspeed.loop_s

    def probe_speed(self) -> None:
        self.speed.append(self.speed_probe())

    def verify(self, op, latency: float, check, cls: str = "") -> None:
        """Record the op after running ``check(checks)`` untimed, with spans paused."""
        errors = self.checks.errors = []
        if self.tracer is not None:
            self.tracer.active = False
        try:
            check(self.checks)
        except Exception as exc:  # a crashing check is a failed op, not a crashed run
            errors.append(f"check raised {type(exc).__name__}: {exc}")
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        self.ops.append([op["kind"], latency, not errors, cls, len(self.speed) - 1])
        if errors and len(self.errors) < 20:
            self.errors.append(f"{json.dumps(op)[:160]}: {'; '.join(errors)[:400]}")


# --- references that do not use the oracle --------------------------------

def ref_restricted(n: int, pos) -> int:
    """Halving-recurrence term of a position-restricted count."""
    from robinsonblocks import RecurrenceTable

    table = RecurrenceTable()
    k, odd = divmod(n, 2)
    if not odd:
        return table.A(k)
    return {(1, 1): table.A(k), (1, 2): table.B(k), (2, 1): table.B(k), (2, 2): table.A(k + 1)}[tuple(pos)]


def check_count(c: Checks, n: int, got) -> None:
    from robinsonblocks import RecurrenceTable, closed_form_A

    c.reference(f"A({n}) vs closed form", got, closed_form_A(n))
    c.reference(f"A({n}) vs recurrence", got, RecurrenceTable().A(n))


def paperfolding_reference(n: int) -> int:
    p = 1 << (n.bit_length() - 1)
    return 12 * n * n + 24 * n * p - 16 * p * p - 4


# --- oracle-sweep ----------------------------------------------------------

def oracle_job(job: Job, ops: list) -> None:
    import robinsonblocks as rb

    for op in ops:
        n = op["n"]
        job.probe_speed()
        t0 = perf_counter()
        try:
            report, exc = rb.count_stabilized(n, op["k_max"], rb.Pose(op["facing"], False)), None
        except Exception as e:
            report, exc = None, e
        latency = perf_counter() - t0

        def check(c, report=report, exc=exc, n=n):
            c.true(f"raised {exc!r}", exc is None)
            if report is not None:
                c.true(f"n={n} did not stabilize", report.stabilized)
                check_count(c, n, report.count)
                job.counters["distinct_blocks"] += report.count

        job.verify(op, latency, check)


# --- formula-sweep ---------------------------------------------------------

# One span per batch; run.py adds these to the complexity layer.
_SPAN = {
    "recurrence": "batch.recurrence",
    "sparse": "batch.recurrence",
    "closed_form": "batch.closed_form",
    "coefficients": "batch.closed_form",
    "paperfolding": "batch.closed_form",
    "trace": "batch.trace",
}


def formula_batch(rb, shared, kind: str, ns, tables: list) -> list:
    """One batch of complexity calls; ``shared`` is the contiguous-n memo."""
    if kind == "recurrence":
        return [shared.A(n) for n in ns]
    if kind == "closed_form":
        return [rb.closed_form_A(n) for n in ns]
    if kind == "coefficients":
        return [56 * rb.coeff_a(n) + 124 * rb.coeff_b(n) for n in ns]
    if kind == "paperfolding":
        return [rb.paperfolding_P(n) for n in ns]
    if kind == "trace":
        return [(t.a_leaves, t.b_leaves) for t in map(rb.decomposition_trace, ns)]
    got = []
    for n in ns:  # sparse: a fresh memo per n, so every level misses
        table = rb.RecurrenceTable()
        got.append((table.A(n), table.B(n)))
        tables.append(table)
    return got


def formula_job(job: Job, ops: list) -> None:
    import robinsonblocks as rb

    shared = rb.RecurrenceTable()
    for op in ops:
        job.probe_speed()
        kind = op["kind"]
        ns = op["ns"] if kind == "sparse" else range(op["lo"], op["hi"])
        evals = 2 * len(ns) if kind in ("coefficients", "sparse") else len(ns)
        span = job.tracer.span(_SPAN[kind]) if job.tracer else nullcontext()
        tables, got, exc = [], [], None
        t0 = perf_counter()
        try:
            with span:
                got = formula_batch(rb, shared, kind, ns, tables)
        except Exception as e:
            exc = e
        latency = perf_counter() - t0
        job.counters["evals"] += evals
        job.counters["memo_entries"] += sum(len(t.memo_A) + len(t.memo_B) for t in tables)

        def check(c, kind=kind, ns=ns, got=got, exc=exc):
            c.true(f"raised {exc!r}", exc is None)
            A = rb.closed_form_A
            if kind in ("recurrence", "coefficients"):
                want = [A(n) for n in ns]
            elif kind == "closed_form":
                want = [shared.A(n) for n in ns]
            elif kind == "paperfolding":
                want = [paperfolding_reference(n) for n in ns]
            elif kind == "trace":
                want = [(rb.coeff_a(n), rb.coeff_b(n)) for n in ns]
            else:
                # B(n) from the closed form via A(2n+1) = A(n) + A(n+1) + 2B(n).
                want = [(A(n), (A(2 * n + 1) - A(n) - A(n + 1)) // 2) for n in ns]
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
            c.equal(f"{kind} values", len(got), len(want))
            c.true(f"{kind}: {len(bad)} wrong, first n={ns[bad[0]] if bad else None}", not bad)

        job.verify(op, latency, check)
    job.counters["memo_entries"] += len(shared.memo_A) + len(shared.memo_B)


# --- CLI workloads -----------------------------------------------------------

class Cli:
    """Runs one `robinsonblocks` process per call, plain or under the shim,
    through ``spawner.py`` so that child RSS is not inflated by ours."""

    def __init__(self, job: Job, tmp: Path):
        self.job = job
        self.tmp = tmp
        self.calls = 0
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def _spawn(self, cmd: list, out_path: Path, err_path: Path) -> dict:
        request = {"argv": cmd, "stdout": str(out_path), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def start_s(self) -> float:
        """The start probe, spawned like a CLI call."""
        null = Path(os.devnull)
        return self._spawn(hostspeed.START_ARGV, null, null)["latency_s"]

    def __call__(self, argv: list):
        self.job.probe_speed()
        self.calls += 1
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        if self.job.tracer is not None:
            spans_path = self.tmp / f"spans{self.calls}.json"
            cmd = [sys.executable, str(HERE / "shim.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "robinsonblocks.cli", *argv]
        reply = self._spawn(cmd, out_path, err_path)
        self.job.rss_kb = max(self.job.rss_kb, reply["maxrss_kb"])
        if self.job.tracer is not None and spans_path.exists():
            import tracing

            tracing.merge(self.job.spans, json.loads(spans_path.read_text()))
            spans_path.unlink()
        out, err = out_path.read_bytes(), err_path.read_text(errors="replace")
        return reply["latency_s"], reply["returncode"], out, err


def check_process(c: Checks, rc: int, err: str) -> None:
    c.true(f"exit code {rc}", rc == 0)
    c.true("traceback on stderr", "Traceback" not in err)


def check_grid(c: Checks, grid, rank: int, facing: str) -> None:
    from robinsonblocks import build, validate

    c.true(f"grid differs from build({rank}, {facing})", grid == build(rank, facing))
    c.true("grid fails validate", validate(grid).ok)


def check_svg(c: Checks, text: str, rank: int, overlay: bool) -> None:
    side = (1 << rank) - 1
    c.true("svg framing", text.startswith("<?xml") and text.endswith("</svg>\n"))
    c.equal("svg cell groups", text.count('<g class="cell"'), side * side)
    squares = (4 ** (rank - 1) - 1) // 3 if overlay else 0
    c.equal("svg rects (background + overlay squares)", text.count("<rect"), 1 + squares)


def cli_cold_job(job: Job, ops: list, cli: Cli) -> None:
    from robinsonblocks import RecurrenceTable, TileGrid, build, decomposition_trace, parse_ascii

    src, dst = cli.tmp / "render_in.json", cli.tmp / "render_out.svg"
    for op in ops:
        kind = op["kind"]
        if kind == "formula":
            argv = ["formula", "--n", str(op["n"]), "--which", op["which"]]
        elif kind == "supertile":
            argv = ["supertile", "--rank", str(op["rank"]), "--facing", op["facing"], "--out", op["out"]]
        elif kind == "render":
            src.write_text(build(op["rank"], op["facing"]).to_json())
            dst.unlink(missing_ok=True)
            argv = ["render", "--input", str(src), "--out", str(dst), "--overlay"]
        elif kind == "count":
            argv = ["count", "--n", str(op["n"])]
        else:
            argv = ["count", "--n", str(op["n"]), "--restrict", "{},{}".format(*op["pos"])]
        latency, rc, out, err = cli(argv)

        def check(c, op=op, kind=kind, rc=rc, out=out, err=err):
            check_process(c, rc, err)
            if kind == "formula":
                n, which = op["n"], op["which"]
                if which == "A":
                    want = RecurrenceTable().A(n)
                elif which == "P":
                    want = paperfolding_reference(n)
                else:
                    tr = decomposition_trace(n)
                    want = tr.a_leaves if which == "a" else tr.b_leaves
                c.reference(f"formula {which}({n})", int(out), want)
            elif kind == "supertile" and op["out"] == "ascii":
                check_grid(c, parse_ascii(out.decode()), op["rank"], op["facing"])
            elif kind == "supertile" and op["out"] == "json":
                check_grid(c, TileGrid.from_json(out.decode()), op["rank"], op["facing"])
            elif kind == "supertile":
                check_svg(c, out.decode(), op["rank"], overlay=False)
            elif kind == "render":
                check_svg(c, dst.read_text(), op["rank"], overlay=True)
            elif kind == "count":
                check_count(c, op["n"], int(out))
                job.counters["distinct_blocks"] += int(out)
            else:
                c.reference(f"restricted {op['n']} at {op['pos']}", int(out), ref_restricted(op["n"], op["pos"]))
                job.counters["distinct_blocks"] += int(out)

        job.verify(op, latency, check)


_RANK_NOTE = re.compile(r"^note: stabilized at rank (\d+)$", re.M)


def pattern_cache_job(job: Job, ops: list, cli: Cli) -> None:
    from robinsonblocks import closed_form_A

    cache = cli.tmp / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir()
    rank_used = {}  # n -> rank the plain count stabilized at
    restricted = {}  # n -> restricted counts seen so far

    def listing():
        return {p.name: p.stat().st_size for p in cache.iterdir()}

    for op in ops:
        kind, n = op["kind"], op["n"]
        if kind == "inspect":
            target = cache / f"patterns_n{n}_rank{rank_used.get(n, 0)}.rbps"
            argv = ["cache", "--inspect", str(target)]
        else:
            argv = ["count", "--n", str(n), "--cache", str(cache)]
            if kind == "restrict":
                argv += ["--restrict", "{},{}".format(*op["pos"])]
        before = listing()
        latency, rc, out, err = cli(argv)
        new = {name: size for name, size in listing().items() if name not in before}
        job.counters["rbps_files_written"] += len(new)
        job.counters["rbps_bytes_written"] += sum(new.values())
        if kind == "count" and n not in rank_used:
            found = _RANK_NOTE.search(err)
            rank_used[n] = int(found.group(1)) if found else 0

        def check(c, op=op, kind=kind, n=n, rc=rc, out=out, err=err):
            check_process(c, rc, err)
            if kind == "count":
                check_count(c, n, int(out))
                job.counters["distinct_blocks"] += int(out)
            elif kind == "restrict":
                got = int(out)
                c.reference(f"restricted {n} at {op['pos']}", got, ref_restricted(n, op["pos"]))
                job.counters["distinct_blocks"] += got
                seen = restricted.setdefault(n, [])
                seen.append(got)
                if len(seen) == 4:
                    c.reference(f"four positions of n={n} sum to A(n)", sum(seen), closed_form_A(n))
            else:
                lines = out.decode().splitlines()
                c.equal("inspect header", lines[:1], ["n,count,version"])
                c.equal("inspect n", int(lines[1].split(",")[0]), n)
                c.reference("inspect count", int(lines[1].split(",")[1]), closed_form_A(n))

        job.verify(op, latency, check, "write" if new else "read")


# --- entry -------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--corrupt-expected", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tmp", type=Path)
    args = parser.parse_args()

    t0 = perf_counter()
    import robinsonblocks.cli  # noqa: F401  (the set-up being timed)

    import_s = perf_counter() - t0
    import numpy
    import robinsonblocks

    result = {"import_s": import_s, "numpy": numpy.__version__, "module": robinsonblocks.__file__}
    if not args.probe:
        import tracing
        import workloads

        ops = workloads.generate(args.workload, args.seed, args.scale)
        # formula-sweep opens its own per-batch spans; the CLI workloads
        # collect spans from their children.
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None and args.workload == "oracle-sweep":
            tracing.install(tracer)
        job = Job(tracer, args.corrupt_expected)
        args.tmp.mkdir(parents=True, exist_ok=True)
        if args.workload == "oracle-sweep":
            oracle_job(job, ops)
            job.probe_speed()
        elif args.workload == "formula-sweep":
            formula_job(job, ops)
            job.probe_speed()
        else:
            cli = Cli(job, args.tmp)
            job.speed_probe = cli.start_s
            try:
                (cli_cold_job if args.workload == "cli-cold" else pattern_cache_job)(job, ops, cli)
                job.probe_speed()
            finally:
                cli.close()
        if tracer is not None and args.workload in ("oracle-sweep", "formula-sweep"):
            tracing.merge(job.spans, tracer.table)
        result.update(
            ops=job.ops,
            errors=job.errors,
            spans=job.spans,
            counters=job.counters,
            child_rss_kb=job.rss_kb,
            speed=job.speed,
        )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
