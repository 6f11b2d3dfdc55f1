"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py        (from the root of a checkout)

1. Every workload, both trace modes, at the tiny scale: the last stdout
   line has exactly the result keys, every metric BENCHMARK.json names for
   that mode is emitted with its unit, and the run is correct.  Layer
   metrics that a workload exercises must be nonzero on it.
2. A deliberately wrong reference value (``--corrupt-expected``) lands in
   ``failed`` and ``ok_ratio`` while the run still completes, and the
   failure recorded is a reference mismatch (a count or formula value),
   not some other check.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits nonzero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# Layer metrics each workload must move even at the tiny scale.
EXERCISED = {
    "oracle-sweep": ("supertile.build_s", "enumerator.count_s", "enumerator.ranks_probed",
                     "enumerator.useful_rank_ratio", "enumerator.distinct_blocks"),
    "cli-cold": ("supertile.build_calls", "supertile.grids_built", "enumerator.restricted_s", "render.svg_s",
                 "render.ascii_s", "render.bytes_out", "cli.self_s", "complexity.evals"),
    "pattern-cache": ("enumerator.distinct_patterns_s", "enumerator.patterns_materialised",
                      "enumerator.rbps_files_written", "enumerator.rbps_bytes_written",
                      "enumerator.rbps_bytes_read", "cli.cache_hit_ratio",
                      "cache.cold_call_ms", "cache.warm_call_ms"),
    "formula-sweep": ("complexity.recurrence_s", "complexity.closed_form_s",
                      "complexity.trace_s", "complexity.evals", "complexity.memo_entries"),
}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny")
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = result_of(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: incorrect: {proc.stdout.splitlines()[-2][-400:]}")
            metrics = result["metrics"]
            if set(metrics) != set(wanted[trace]):
                problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(wanted[trace]))}")
            for name, unit in wanted[trace].items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {name} = {got}")
            if trace:
                for name in EXERCISED[workload]:
                    if not metrics.get(name, {}).get("value"):
                        problems.append(f"{label}: {name} is zero")
            print(f"ran {label}", flush=True)

    proc = bench("--workload", "cli-cold", "--seed", "7", "--seconds", "1", "--trace", "0",
                 "--scale", "tiny", "--corrupt-expected")
    if proc.returncode != 0:
        problems.append(f"corrupt-expected: exit {proc.returncode}: {proc.stderr[-400:]}")
    else:
        result = result_of(proc)
        errors = json.loads(proc.stdout.strip().splitlines()[-2][len("context "):])["errors"]
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        if result["correct"] or result["failed"] != 1 or not ok_ratio < 1:
            problems.append(f"corrupt-expected: not counted as one failure: {result}")
        elif len(errors) != 1 or ": reference " not in errors[0]:
            problems.append(f"corrupt-expected: the failure is not a reference mismatch: {errors}")
    print("ran corrupt-expected", flush=True)

    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("ran without-program", flush=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
