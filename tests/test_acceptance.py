"""Acceptance suite: every criterion exact, one pass/fail line each.

Each test prints its verdict outside pytest capture so a full run reads
as a checklist; the assertion keeps pytest honest.
"""

import numpy as np
import pytest

import reference_layouts
from robinsonblocks.cli import main as cli_main
from robinsonblocks.complexity import (
    RecurrenceTable,
    closed_form_A,
    coeff_a,
    coeff_b,
    decomposition_trace,
)
from robinsonblocks.enumerator import (
    count_stabilized,
    restricted_count,
)
from robinsonblocks.grid import TileGrid, validate
from robinsonblocks.supertile import Pose, build
from robinsonblocks.tileset import BUMPY_IDS, OrientedTile, Prototile
from test_supertile import grid_from_literals

FACINGS = ("NE", "NW", "SW", "SE")


@pytest.fixture(autouse=True)
def _no_cache_env(monkeypatch):
    monkeypatch.delenv("ROBINSONBLOCKS_CACHE", raising=False)


def _report(capsys, num: int, name: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_01_base_case_exhaustive_search(capsys):
    code_a, out_a = _cli(capsys, "count", "--n", "2", "--restrict", "1,1")
    code_b, out_b = _cli(capsys, "count", "--n", "3", "--restrict", "1,2")
    ok = (code_a, out_a) == (0, "56\n") and (code_b, out_b) == (0, "124\n")
    _report(capsys, 1, "base-case exhaustive search (A1=56, B1=124)", ok)


def test_criterion_02_closed_form_desk_scale(capsys):
    spot = {2: 224, 3: 528, 4: 896, 5: 1472, 6: 2112, 7: 2816}
    table = RecurrenceTable()
    ok = True
    for n in range(2, 17):
        report = count_stabilized(n, 11)
        closed = closed_form_A(n)
        ok &= report.stabilized and report.count == closed == table.A(n)
        if n in spot:
            ok &= report.count == spot[n]
    _report(capsys, 2, "oracle agrees with the closed form for n=2..16", ok)


def test_criterion_03_recurrence_closed_form_identity(capsys):
    table = RecurrenceTable()
    ok = all(table.A(n) == closed_form_A(n) for n in range(2, 100001))
    _report(capsys, 3, "recurrence == closed form for n=2..100000", ok)


def test_criterion_04_coefficient_identity(capsys):
    ok = all(
        coeff_a(n) * 56 + coeff_b(n) * 124 == closed_form_A(n)
        for n in range(2, 10**6 + 1)
    )
    _report(capsys, 4, "coefficient identity for n=2..10^6", ok)


def test_criterion_05_decomposition_trace_equality(capsys):
    ok = True
    for n in range(1, 4097):
        trace = decomposition_trace(n)
        ok &= (trace.a_leaves, trace.b_leaves) == (coeff_a(n), coeff_b(n))
    _report(capsys, 5, "decomposition trace == coefficients for n=1..4096", ok)


def test_criterion_06_structural_validity(capsys):
    ok = True
    for rank in range(1, 11):
        for facing in FACINGS:
            grid = build(rank, facing)
            ok &= validate(grid).ok
            if rank >= 2:
                bumpy = BUMPY_IDS[grid.ids]
                counts = (
                    bumpy[:-1, :-1].astype(np.int16)
                    + bumpy[:-1, 1:]
                    + bumpy[1:, :-1]
                    + bumpy[1:, 1:]
                )
                ok &= bool((counts == 1).all())
    _report(capsys, 6, "zero violations for all ranks <= 10, all facings", ok)


def test_criterion_07_reference_layout_fidelity(capsys):
    ok = all(
        build(2, facing) == grid_from_literals(reference_layouts.RANK2[facing])
        for facing in FACINGS
    )
    ok &= build(3, "NE") == grid_from_literals(reference_layouts.rank3_ne())
    _report(capsys, 7, "rank-2/3 builds match the checked-in layouts", ok)


def test_criterion_08_monotonicity_and_facing_independence(capsys):
    ok = True
    for n in range(2, 9):
        per_facing = set()
        for rot in range(4):
            report = count_stabilized(n, 11, facing=Pose(rot, False))
            counts = [c for _, c in report.counts_by_rank]
            ok &= counts == sorted(counts)
            ok &= report.stabilized
            per_facing.add(report.count)
        ok &= len(per_facing) == 1
    _report(capsys, 8, "monotone counts, facing-independent at stabilization", ok)


def test_criterion_09_partition_property(capsys):
    parts = [restricted_count(2, pos, 8) for pos in ((1, 1), (1, 2), (2, 1), (2, 2))]
    total = count_stabilized(2, 11).count
    ok = parts == [56, 56, 56, 56] and sum(parts) == total == 224
    _report(capsys, 9, "four restricted 2x2 counts partition the total (4*56=224)", ok)


def test_criterion_10_determinism(capsys):
    count_runs = {
        _cli(capsys, "count", "--n", "5", "--threads", t) for t in ("1", "1", "4")
    }
    verify_runs = {
        _cli(capsys, "verify", "--n-min", "2", "--n-max", "6", "--threads", t)
        for t in ("1", "2", "1")
    }
    ok = len(count_runs) == 1 and len(verify_runs) == 1
    ok &= next(iter(count_runs))[0] == 0 and next(iter(verify_runs))[0] == 0
    _report(capsys, 10, "byte-identical count/verify output across runs and threads", ok)
