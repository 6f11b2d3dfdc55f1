"""Golden ASCII documents of the large supertiles.

The SHA-256 of `supertile --out ascii` at ranks 9..13 in every facing,
where three of the four facings' crosses are the NE cross turned and
run to 8,191 cells.  The documents are hashed in process, a band at a
time, through the writer the CLI streams (ranks 1..8 are pinned through
the CLI in test_golden_output.py).  Rank 13 runs with `-m slow`."""

import hashlib

import pytest

from robinsonblocks import render, supertile
from robinsonblocks.supertile import build

# (rank, facing) -> SHA-256 of `supertile --rank RANK --facing FACING --out ascii`.
ASCII_SHA256 = {
    (9, "NE"): "54ceb6472155188db888533a285c7e6a44d2ce8d7b23275b99a934994c41593b",
    (9, "NW"): "3d2049ff0303a2aa42000e56bac7b695e67e67fd7d7e0179a17f66b68ba1b7da",
    (9, "SW"): "6b7519ff2beea4428479d8e3c15b1f19352f2280c7112ae27425de1645ad7908",
    (9, "SE"): "e0c043d76af804f56010b388e83a69342d5dc1b2de1c28820ec5a0a29ce18153",
    (10, "NE"): "4ffacfef1d1de5b0ef205e58c3badf3ebf107eed547616de0e676ceeb344389b",
    (10, "NW"): "8383831a0d9fea3089bf66c1c34a087ee8c54f7adcde31712ac1220b64c4b2a9",
    (10, "SW"): "ce5be0cbadc633eead4e34009255cc98e6b79fde5c1d0dcb656a3bbc150b26f0",
    (10, "SE"): "23dfaed5b0ce09286aad0945474e1a6c0f2ee606b5f5944a7e703108aa330512",
    (11, "NE"): "2082cdb031b6d44e71132c7880423e421fa9e9ed285a78843d83bf81c3398759",
    (11, "NW"): "9ab0119e96e9234e526aea7fcd1c077f01429dca05173e62d928919db68f47c3",
    (11, "SW"): "69df64762d473564b19060eeaea0522482379336b736408a4566c699c6952695",
    (11, "SE"): "60322f2aee114c3e975a20571fed785120b24b746a7009534dd2fd00c171ac99",
    (12, "NE"): "808f5521132ee707c644a147f818f759ba248a5eb8f463f23d17d6b5bb198d28",
    (12, "NW"): "1a69b7f84817d34073b35b51bbde8ada09f7b3cb60c1535e6114afab7f9403ea",
    (12, "SW"): "b0fd3d47cd866994d6ae333d8cb80d81f40b796f6eca068c1941eb5a92cd154f",
    (12, "SE"): "efa76e5fa38cdb06e8872d71e2d25ac8a272200ba94f9a1d5f0823851b08b75c",
    (13, "NE"): "efecdbe107154572179ca9f17d361c3961c00b6968a59fd2061db411f5492206",
    (13, "NW"): "e4ce46ce697f233df9851740111fe12b496016d9b6015b4b3a5cc6bf3d8486f7",
    (13, "SW"): "7a3f3014d713c40b8220cea684d446c43cfada20a52f7a0be2531631497fbd31",
    (13, "SE"): "8aa3b4a68e6f23a0734138a1342e81342eeab5e320ed89578ed5747d404cf116",
}


@pytest.mark.parametrize(
    "rank,facing",
    [pytest.param(*key, marks=pytest.mark.slow if key[0] == 13 else ()) for key in ASCII_SHA256],
)
def test_large_ascii_documents_are_pinned(rank, facing, monkeypatch):
    # A copy of the memo, so the largest grids built here are let go.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", dict(supertile._BUILD_MEMO))
    digest = hashlib.sha256()
    for chunk in render._ascii_chunks(build(rank, facing)):
        digest.update(chunk.encode())
    assert digest.hexdigest() == ASCII_SHA256[rank, facing]
