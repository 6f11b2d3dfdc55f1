"""Every window set the scan yields, pinned by one digest.

``_window_scan`` yields the NE window set of each rank it probes.  The
digest runs over every such set, in scan order, each as its windows'
tile-id row bytes sorted and joined, so any window gained or lost at any
rank, for any n, changes it; the order windows enter a set does not."""

import hashlib

import pytest

from robinsonblocks.enumerator import _ranks, _window_scan
from robinsonblocks.tileset import IDENTITY


def _digest(sides, k_max):
    """SHA-256 over every set the scan yields for each n in ``sides``
    through rank ``k_max(n)``."""
    digest = hashlib.sha256()
    for n in sides:
        for _, windows in _window_scan(n, _ranks(n, k_max(n), IDENTITY)[1]):
            digest.update(b"".join(sorted(windows)))
    return digest.hexdigest()


def test_every_window_set_through_rank_11():
    expected = "8bc449d8fff113b29371d5e7cd8e50d130a029c43c00931af23f924252512603"
    assert _digest(range(1, 17), lambda n: 11) == expected


@pytest.mark.slow
def test_every_window_set_through_n_24():
    expected = "9a2a8b352ed1022ed5ef0427536bf6f34b274cf753f86a73fda8e5ae0d4c1396"
    assert _digest(range(1, 25), lambda n: 12 if n > 16 else 11) == expected
