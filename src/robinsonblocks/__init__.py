"""Exact block counting for Robinson tilings made of one infinite-order
supertile: a tile-level brute-force oracle cross-checked against the
closed-form/recurrence machinery.

``import robinsonblocks`` loads the scan layer alone: ``tileset``,
``supertile`` (the builder core) and ``enumerator`` (the window scan and
``count_stabilized``).  The names of ``complexity``, ``render``,
``patterns`` (Patterns and the ``.rbps`` file) and ``grid`` (``TileGrid``,
its documents and ``validate``) are bound on their first read, by
``__getattr__`` below, so that a process that counts never loads those
modules (README, "What one CLI call costs").
"""

from .enumerator import BlockTooLarge, CountReport, count_stabilized, restricted_count
from .supertile import CrossAmbiguous, CrossUnsolvable, SupertileSpec, build, build_supertile
from .tileset import (
    Adjacency,
    Arrow,
    OrientedTile,
    Pose,
    Prototile,
    Side,
    all_oriented_tiles,
    compatible,
    edge_label,
    is_bumpy_corner,
)

__all__ = [
    "Adjacency",
    "Arrow",
    "BlockTooLarge",
    "CountReport",
    "CrossAmbiguous",
    "CrossUnsolvable",
    "DecompositionTrace",
    "DomainError",
    "OrientedTile",
    "Pattern",
    "PatternSet",
    "Pose",
    "Prototile",
    "RecurrenceTable",
    "RenderStyle",
    "Side",
    "SupertileSpec",
    "TileGrid",
    "VacantShape",
    "ValidationReport",
    "all_oriented_tiles",
    "build",
    "build_supertile",
    "canonical_encode",
    "closed_form_A",
    "coeff_a",
    "coeff_b",
    "compatible",
    "count_stabilized",
    "decomposition_trace",
    "distinct_patterns",
    "edge_label",
    "floor_log2",
    "is_bumpy_corner",
    "load_pattern_set",
    "paperfolding_P",
    "parse_ascii",
    "recurrence_A",
    "recurrence_B",
    "render_ascii",
    "render_svg",
    "restricted_count",
    "save_pattern_set",
    "solve_cross_cell",
    "vacant_places",
    "validate",
]

__version__ = "0.1.0"

_LAZY = ("complexity", "render", "patterns", "grid")


def __getattr__(name):
    """Load the modules of ``_LAZY`` on the first read of one of their
    names in ``__all__``, bind all of those here, and delete this
    hook: while a module has a ``__getattr__``, CPython 3.11 does not
    specialise reads of its attributes, so every
    ``robinsonblocks.closed_form_A`` would stay slower.  A second thread
    already inside the hook finds the names bound and the hook gone."""
    if name not in _LAZY and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not ``from . import``, whose check for the names calls this hook

    bound = globals()
    for module in _LAZY:
        loaded = importlib.import_module(f"{__name__}.{module}")  # binds the module here too
        bound.update(
            (attr, getattr(loaded, attr))
            for attr in __all__
            if attr not in bound and hasattr(loaded, attr)
        )
    bound.pop("__getattr__", None)
    return bound[name]
