"""Benchmark of robinsonblocks: four workloads, checked outputs, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Workloads: oracle-sweep, cli-cold,
pattern-cache, formula-sweep (see ``workloads.py`` and README.md).

Every repetition of the workload's fixed job runs in a fresh worker
process; repetitions continue while another one fits in ``--seconds``
(at least one always runs).  Set-up time is sampled by extra fresh
workers that only import ``robinsonblocks.cli``.

``--trace 0`` prints the end-to-end metrics, with every time restated
at a reference host speed from probes taken between ops (``hostspeed.py``;
the unadjusted values go to the context).  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, with
``trace.overhead_s`` = traced minus untraced ``wall_s``.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it holds the run's context (seed, commit,
versions, op-list digest, sample counts).  The full record is written
under ``.perfbench_runs/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
RUN_LIMIT_S = 170  # a run must end within 180 s

IN_PROCESS = ("oracle-sweep", "formula-sweep")
# A user's call in oracle-sweep is the whole sweep (`verify --n-max 16`);
# its 15 count_stabilized calls differ in cost by 500x, so their median
# would be one ~1 s call picked by the seed.  In formula-sweep the six
# batch kinds take from 3 to 18 ms, and the median batch sat where two
# kinds meet, so a call there is also the whole sweep.
CALL_IS_JOB = ("oracle-sweep", "formula-sweep")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "tileset.import_s": "s",
    "supertile.build_s": "s",
    "supertile.build_calls": "count",
    "supertile.grids_built": "count",
    "supertile.cells_built": "count",
    "enumerator.count_s": "s",
    "enumerator.ranks_probed": "count",
    "enumerator.confirm_ranks": "count",
    "enumerator.useful_rank_ratio": "ratio",
    "enumerator.restricted_s": "s",
    "enumerator.distinct_patterns_s": "s",
    "enumerator.patterns_materialised": "count",
    "enumerator.rbps_save_s": "s",
    "enumerator.rbps_files_written": "count",
    "enumerator.rbps_bytes_written": "bytes",
    "enumerator.rbps_load_s": "s",
    "enumerator.rbps_bytes_read": "bytes",
    "enumerator.distinct_blocks": "count",
    "cli.self_s": "s",
    "cli.cache_hit_ratio": "ratio",
    "cache.cold_call_ms": "ms",
    "cache.warm_call_ms": "ms",
    "render.svg_s": "s",
    "render.ascii_s": "s",
    "render.bytes_out": "bytes",
    "complexity.recurrence_s": "s",
    "complexity.closed_form_s": "s",
    "complexity.trace_s": "s",
    "complexity.evals": "count",
    "complexity.memo_entries": "count",
    "trace.overhead_s": "s",
}

# Wrapped complexity functions (CLI children), by layer metric; each
# layer also takes formula-sweep's per-batch span "batch.<layer>".
_WRAPPED_COMPLEXITY = {
    "recurrence": ("complexity.recurrence_A", "complexity.recurrence_B"),
    "closed_form": (
        "complexity.closed_form_A",
        "complexity.coeff_a",
        "complexity.coeff_b",
        "complexity.paperfolding_P",
    ),
    "trace": ("complexity.decomposition_trace",),
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples beyond).  With fewer than 20 samples that
    percentile would sit below the median, so the maximum is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return (ordered[-1] if ordered else 0.0), 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Runner:
    """Starts workers in their own session and reaps them with rusage."""

    def __init__(self, args, root: Path, tmp: Path, deadline: float):
        self.args = args
        self.root = root
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("ROBINSONBLOCKS_CACHE", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv: list, stderr=None):
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=2,
            stderr=stderr,
            start_new_session=True,
        )

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill()  # anything the worker left behind in its session
        return proc.returncode, usage

    def _out(self) -> Path:
        self.count += 1
        return self.tmp / f"worker{self.count}.json"

    def probe(self, importtime: bool) -> dict:
        out = self._out()
        err_path = out.with_suffix(".err")
        flags = ["-X", "importtime"] if importtime else []
        with open(err_path, "wb") as err:
            rc, _ = self.spawn([*flags, str(HERE / "worker.py"), "--probe", "--out", str(out)], err)
        text = err_path.read_text(errors="replace")
        if rc != 0 or not out.exists():
            sys.stderr.write(text[-2000:])
            raise SystemExit(f"error: set-up probe failed (exit {rc})")
        result = json.loads(out.read_text())
        if importtime:
            found = re.search(r"^import time:\s*(\d+) \|\s*\d+ \|\s*robinsonblocks\.tileset$", text, re.M)
            result["tileset_s"] = int(found.group(1)) / 1e6 if found else 0.0
        return result

    def start_s(self) -> float:
        """The start probe (hostspeed.START_ARGV)."""
        t0 = time.perf_counter()
        self.spawn(hostspeed.START_ARGV[1:])
        return time.perf_counter() - t0

    def rep(self, traced: bool, n_ops: int) -> dict:
        out = self._out()
        a = self.args
        argv = [
            str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--trace", str(int(traced)),
            "--scale", a.scale, "--out", str(out), "--tmp", str(out.with_suffix("")),
        ]
        if a.corrupt_expected:
            argv.append("--corrupt-expected")
        rc, usage = self.spawn(argv)
        shutil.rmtree(out.with_suffix(""), ignore_errors=True)
        if rc != 0 or not out.exists():
            # A crashed worker fails every op of its job.
            ops = [["crashed", 0.0, False, ""]] * n_ops
            return {"traced": traced, "ops": ops, "errors": [f"worker exit {rc}"], "crashed": True}
        result = json.loads(out.read_text())
        result["traced"] = traced
        result["worker_rss_kb"] = usage.ru_maxrss
        return result


def layer_metrics(rep: dict) -> dict:
    spans, counters = rep["spans"], rep["counters"]

    def total(*names):
        return sum(spans[n][1] for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n][2] for n in names if n in spans)

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def counter(name, key):
        return spans.get(name, [0, 0, 0, {}])[3].get(key, 0)

    probed = counter("enumerator.count_stabilized", "probed")
    confirm = counter("enumerator.count_stabilized", "confirm")
    loads = calls("enumerator.load_pattern_set")
    computes = calls("enumerator.distinct_patterns")
    return {
        "supertile.build_s": self_s("supertile.build_supertile", "supertile.build"),
        "supertile.build_calls": calls("supertile.build_supertile"),
        "supertile.grids_built": counter("supertile.build_supertile", "distinct"),
        "supertile.cells_built": counter("supertile.build_supertile", "distinct_cells"),
        "enumerator.count_s": self_s("enumerator.count_stabilized"),
        "enumerator.ranks_probed": probed,
        "enumerator.confirm_ranks": confirm,
        "enumerator.useful_rank_ratio": (probed - confirm) / probed if probed else 0.0,
        "enumerator.restricted_s": self_s("enumerator.restricted_count"),
        "enumerator.distinct_patterns_s": self_s("enumerator.distinct_patterns"),
        "enumerator.patterns_materialised": counter("enumerator.distinct_patterns", "patterns"),
        "enumerator.rbps_save_s": total("enumerator.save_pattern_set"),
        "enumerator.rbps_files_written": counters["rbps_files_written"],
        "enumerator.rbps_bytes_written": counters["rbps_bytes_written"],
        "enumerator.rbps_load_s": total("enumerator.load_pattern_set"),
        "enumerator.rbps_bytes_read": counter("enumerator.load_pattern_set", "bytes"),
        "enumerator.distinct_blocks": counters["distinct_blocks"],
        "cli.self_s": self_s("cli.main"),
        "cli.cache_hit_ratio": loads / (loads + computes) if loads + computes else 0.0,
        "render.svg_s": total("render.render_svg"),
        "render.ascii_s": total("render.render_ascii"),
        "render.bytes_out": counter("render.render_svg", "bytes") + counter("render.render_ascii", "bytes"),
        **{f"complexity.{layer}_s": total(f"batch.{layer}", *names) for layer, names in _WRAPPED_COMPLEXITY.items()},
        "complexity.evals": counters["evals"] + sum(calls(*names) for names in _WRAPPED_COMPLEXITY.values()),
        "complexity.memo_entries": counters["memo_entries"],
    }


def adjusted(rep: dict, workload: str) -> list:
    """The rep's op latencies at the reference host speed (hostspeed.py)."""
    speed = rep["speed"]
    ref = hostspeed.LOOP_REF_S if workload in IN_PROCESS else hostspeed.START_REF_S
    return [hostspeed.restate(op[1], speed[op[4]], speed[op[4] + 1], ref) for op in rep["ops"]]


def end_to_end(workload: str, plain: list, setup: list, key: str, attempted: int, failed: int):
    """The end-to-end metrics (plus the tail's percentile) and their sample
    counts, from each rep's ``key`` latencies ("raw" or "adjusted")."""
    walls = [sum(r[key]) for r in plain]
    if workload in CALL_IS_JOB:
        latencies = walls
    else:
        latencies = [s for r in plain for s in r[key]]
    tail_value, tail_pct, tail_beyond = tail(latencies)
    rss_kb = [r["worker_rss_kb"] if workload in IN_PROCESS else r["child_rss_kb"] for r in plain]
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "call_p50_ms": 1000 * median(latencies),
        "call_tail_ms": 1000 * tail_value,
        "peak_rss_mb": median(rss_kb) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
        "call_tail_percentile": tail_pct,
        "call_tail_samples_beyond": tail_beyond,
    }
    samples = {"setup_s": len(setup), "wall_s": len(plain), "call_p50_ms": len(latencies),
               "call_tail_ms": len(latencies), "peak_rss_mb": len(plain), "ok_ratio": attempted}
    return metrics, samples


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "robinsonblocks").iterdir()):
        if path.suffix in (".py", ".dat"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run(args, root: Path) -> int:
    start = time.monotonic()
    ops = workloads.generate(args.workload, args.seed, args.scale)
    runs_dir = root / ".perfbench_runs"
    tmp = runs_dir / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    runner = Runner(args, root, tmp, start + RUN_LIMIT_S)
    try:
        # Each set-up probe lies between two start probes.
        starts = [runner.start_s()]
        probes = []
        for _ in range(SETUP_PROBES):
            probes.append(runner.probe(importtime=bool(args.trace)))
            starts.append(runner.start_s())
        for probe in probes:
            if not Path(probe["module"]).resolve().is_relative_to(root / "src"):
                raise SystemExit(f"error: imported robinsonblocks from {probe['module']}, not ./src")
        reps = []
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            reps.append(runner.rep(False, len(ops)))
            if args.trace:
                reps.append(runner.rep(True, len(ops)))
            now = time.monotonic()
            last = now - r0
            if now - t0 + last > args.seconds * (2 if args.trace else 1) or now + last > runner.deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in reps if not r["traced"] and not r.get("crashed")]
    traced = [r for r in reps if r["traced"] and not r.get("crashed")]
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if not op[2])
    for r in plain + traced:
        r["raw"] = [op[1] for op in r["ops"]]
        r["adjusted"] = adjusted(r, args.workload)
    raw_setup = [p["import_s"] for p in probes]
    setup = [hostspeed.restate(s, a, b, hostspeed.START_REF_S) for s, a, b in zip(raw_setup, starts, starts[1:])]
    raw, _ = end_to_end(args.workload, plain, raw_setup, "raw", attempted, failed)
    e2e, samples = end_to_end(args.workload, plain, setup, "adjusted", attempted, failed)
    speed = [x for r in plain for x in r["speed"]]
    host = {"start_s": median(starts), ("loop_s" if args.workload in IN_PROCESS else "call_start_s"): median(speed)}

    if args.trace:
        per_rep = [layer_metrics(r) for r in traced]
        metrics = {name: median([m[name] for m in per_rep]) for name in per_rep[0]} if per_rep else {}
        metrics["tileset.import_s"] = median([p["tileset_s"] for p in probes])
        metrics["trace.overhead_s"] = median([sum(r["adjusted"]) for r in traced]) - e2e["wall_s"]
        by_class = {"write": [], "read": []}
        for r in plain:
            for op, s in zip(r["ops"], r["adjusted"]):
                if op[3] in by_class:
                    by_class[op[3]].append(s)
        metrics["cache.cold_call_ms"] = 1000 * median(by_class["write"])
        metrics["cache.warm_call_ms"] = 1000 * median(by_class["read"])
        units = PER_LAYER
        samples = {"traced_reps": len(traced), "untraced_reps": len(plain), "probes": len(probes),
                   "cache.cold_call_ms": len(by_class["write"]), "cache.warm_call_ms": len(by_class["read"])}
    else:
        metrics = e2e
        units = END_TO_END
    for name in units:
        metrics.setdefault(name, 0.0)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        **source_identity(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probes[0]["numpy"],
        "ops_digest": workloads.digest(ops),
        "ops_per_job": len(ops),
        "reps": len(reps),
        "samples": samples,
        "call_tail_percentile": round(e2e["call_tail_percentile"], 3),
        "call_tail_samples_beyond": e2e["call_tail_samples_beyond"],
        "host": {name: round(value, 6) for name, value in host.items()},
        "unadjusted": {name: raw[name] for name in END_TO_END},
        "elapsed_s": round(time.monotonic() - start, 3),
        "errors": [e for r in reps for e in r["errors"]][:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = runs_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({"context": context, "result": result}, indent=1))
    print("context " + json.dumps(context))
    print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny: the self-test's reduced job")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: make one reference value wrong")
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "robinsonblocks" / "cli.py").is_file():
        print("error: no src/robinsonblocks here; run from the root of a robinsonblocks checkout",
              file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
