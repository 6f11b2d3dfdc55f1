"""Spans around the program's public functions, recorded from outside.

``install`` replaces every public function of ``robinsonblocks.__all__``
(and ``cli.main``) at each module binding that refers to it, so a call
from ``enumerator`` into ``build_supertile`` goes through the wrapper
and gets a span of its own.  The program's files are not touched.

Spans are folded into a per-name table as they close: calls, total
seconds, self seconds (total minus the time covered by child spans) and
summed counters.  The table is written out when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# Public helpers called once per cell or per recursion step: a span
# around each call would cost more than the call and swamp the parent.
UNWRAPPED = frozenset(
    {"all_oriented_tiles", "compatible", "edge_label", "floor_log2", "is_bumpy_corner"}
)


def _confirm_ranks(report) -> int:
    """Ranks probed after the count already had its final value."""
    counts = [c for _, c in report.counts_by_rank]
    return len(counts) - counts.index(report.count) - 1


# Counters taken from what each public function returns (or is given).
# build_supertile's are Tracer.count_build, which needs the tracer's state.
MEASURES = {
    "count_stabilized": lambda rep, args: {
        "probed": len(rep.counts_by_rank),
        "confirm": _confirm_ranks(rep),
    },
    "distinct_patterns": lambda ps, args: {"patterns": ps.count},
    "load_pattern_set": lambda ps, args: {"bytes": os.path.getsize(args[0])},
    "render_svg": lambda text, args: {"bytes": len(text.encode())},
    "render_ascii": lambda text, args: {"bytes": len(text.encode())},
}


class Tracer:
    def __init__(self):
        self.table: dict = {}  # name -> [calls, total_s, self_s, {counter: sum}]
        self._children: list = []  # child seconds of each open span
        self._specs: set = set()  # SupertileSpec arguments seen
        self.active = True

    def count_build(self, grid, args) -> dict:
        """Counters of one build_supertile call.  The program answers a
        repeated (rank, pose) from a process-wide memo, so the grid counts
        as built only the first time its spec is seen in this process."""
        cells = grid.width * grid.height
        if args[0] in self._specs:
            return {"cells": cells}
        self._specs.add(args[0])
        return {"cells": cells, "distinct": 1, "distinct_cells": cells}

    def _open(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def _close(self, name: str, t0: float) -> dict:
        dur = perf_counter() - t0
        child = self._children.pop()
        if self._children:
            self._children[-1] += dur
        row = self.table.setdefault(name, [0, 0.0, 0.0, {}])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        return row[3]

    @staticmethod
    def _count(counters: dict, values: dict) -> None:
        for key, value in values.items():
            counters[key] = counters.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        """A span around a block; used for per-batch spans of µs calls."""
        t0 = self._open()
        try:
            yield
        finally:
            self._close(name, t0)

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, t0)
                raise
            counters = self._close(name, t0)
            if measure is not None:
                self._count(counters, measure(result, args))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions and ``cli.main`` at every binding."""
    import robinsonblocks
    from robinsonblocks import cli

    targets = [(name, getattr(robinsonblocks, name)) for name in robinsonblocks.__all__]
    targets.append(("main", cli.main))
    measures = dict(MEASURES, build_supertile=tracer.count_build)
    wrapped = {}
    for name, fn in targets:
        if inspect.isfunction(fn) and name not in UNWRAPPED:
            span = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
            wrapped[id(fn)] = (fn, tracer.wrap(span, fn, measures.get(name)))
    for modname, module in list(sys.modules.items()):
        if modname != "robinsonblocks" and not modname.startswith("robinsonblocks."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def dump(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.table, fh)


def merge(into: dict, table: dict) -> dict:
    """Add one span table into another."""
    for name, (calls, total, self_s, counters) in table.items():
        row = into.setdefault(name, [0, 0.0, 0.0, {}])
        row[0] += calls
        row[1] += total
        row[2] += self_s
        Tracer._count(row[3], counters)
    return into
