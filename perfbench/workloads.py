"""Seeded op lists for the four workloads.

Everything here is plain data built from ``random.Random(seed)``; the
program under test is not imported, so ``run.py`` can digest the op list
without paying for the import.  The worker regenerates the same list
from the same seed.

Each workload keeps a fixed multiset of op *shapes* (ranks, block sides,
batch sizes, contiguous ranges) and lets the seed pick the free inputs
(order, facings, corner positions, formula arguments, sparse recurrence
arguments).  That keeps the cost of a job nearly independent of the
seed, so run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("oracle-sweep", "cli-cold", "pattern-cache", "formula-sweep")
SCALES = ("full", "tiny")

FACINGS = ("NE", "NW", "SW", "SE")
POSITIONS = ((1, 1), (1, 2), (2, 1), (2, 2))

ORACLE_K_MAX = 11


def oracle_sweep(rng: random.Random, scale: str) -> list:
    """count_stabilized(n, 11) for n = 2..16 in one process."""
    ns = list(range(2, 17 if scale == "full" else 5))
    rng.shuffle(ns)
    return [
        {"kind": "count_stabilized", "n": n, "facing": rng.randrange(4), "k_max": ORACLE_K_MAX}
        for n in ns
    ]


def _formula_n(rng: random.Random) -> int:
    # Log-uniform up to 10^12; >= 3 so that every --which is defined.
    return rng.randrange(3, 10 ** rng.randint(1, 12) + 1)


def cli_cold(rng: random.Random, scale: str) -> list:
    """Fresh `robinsonblocks` processes: formula, supertile, render, count."""
    full = scale == "full"
    ops = [
        {"kind": "formula", "which": which, "n": _formula_n(rng)}
        for which in (("A", "a", "b", "P") if full else ("A", "P"))
    ]
    for rank in range(2, 10 if full else 4):
        for out in ("ascii", "json"):
            ops.append({"kind": "supertile", "out": out, "rank": rank, "facing": rng.choice(FACINGS)})
    for rank in range(2, 7 if full else 3):
        ops.append({"kind": "supertile", "out": "svg", "rank": rank, "facing": rng.choice(FACINGS)})
        ops.append({"kind": "render", "rank": rank, "facing": rng.choice(FACINGS)})
    for n in range(2, 9 if full else 4):
        ops.append({"kind": "count", "n": n})
    for n in range(2, 5 if full else 3):
        for pos in rng.sample(POSITIONS, 2):
            ops.append({"kind": "restrict", "n": n, "pos": list(pos)})
    rng.shuffle(ops)
    return ops


def pattern_cache(rng: random.Random, scale: str) -> list:
    """Per n: one cache-writing count, then warm calls that read it."""
    ns = list(range(3, 9 if scale == "full" else 4))
    rng.shuffle(ns)
    ops = []
    for n in ns:
        ops.append({"kind": "count", "n": n})
        warm = [{"kind": "count", "n": n}, {"kind": "inspect", "n": n}]
        warm += [{"kind": "restrict", "n": n, "pos": list(p)} for p in POSITIONS]
        rng.shuffle(warm)
        ops.extend(warm)
    return ops


# formula-sweep shape: contiguous n in batches sharing one memo, a
# decomposition-trace range, and sparse n each with a fresh memo.  The
# contiguous ranges are fixed: where they start sets how much of the
# memo misses, so a seeded start would make the cost depend on the seed.
_CONTIG = {"full": (10, 10_000), "tiny": (2, 200)}  # (batches, batch size)
_TRACE = {"full": (4, 1024), "tiny": (1, 64)}
_SPARSE = {"full": (10, 300), "tiny": (1, 20)}


def formula_sweep(rng: random.Random, scale: str) -> list:
    """Batches of µs-scale complexity calls; each batch is one op."""
    ops = []
    batches, size = _CONTIG[scale]
    for b in range(batches):
        lo = 3 + b * size  # paperfolding_P needs n >= 3
        for phase in ("recurrence", "closed_form", "coefficients", "paperfolding"):
            ops.append({"kind": phase, "lo": lo, "hi": lo + size})
    batches, size = _TRACE[scale]
    for b in range(batches):
        ops.append({"kind": "trace", "lo": 1 + b * size, "hi": 1 + (b + 1) * size})
    batches, size = _SPARSE[scale]
    for _ in range(batches):
        ns = [rng.getrandbits(rng.randint(2, 62)) | 2 for _ in range(size)]
        ops.append({"kind": "sparse", "ns": ns})
    return ops


GENERATORS = {
    "oracle-sweep": oracle_sweep,
    "cli-cold": cli_cold,
    "pattern-cache": pattern_cache,
    "formula-sweep": formula_sweep,
}


def generate(workload: str, seed: int, scale: str = "full") -> list:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), scale)


def digest(ops: list) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
