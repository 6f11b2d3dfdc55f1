"""Golden answers: the oracle's per-rank counts and the exact bytes of
the .rbps cache files, pinned so that a change to the window dedup,
the supertile build or the cache writer cannot move them unnoticed."""

import hashlib

from robinsonblocks.cli import main
from robinsonblocks.enumerator import count_stabilized

# counts_by_rank of count_stabilized(n, 11), n = 2..16.
COUNTS_BY_RANK = {
    2: ((2, 4), (3, 36), (4, 112), (5, 192), (6, 224), (7, 224)),
    3: ((2, 1), (3, 25), (4, 140), (5, 336), (6, 480), (7, 528), (8, 528)),
    4: ((3, 16), (4, 144), (5, 448), (6, 768), (7, 896), (8, 896)),
    5: ((3, 9), (4, 121), (5, 516), (6, 1072), (7, 1392), (8, 1472), (9, 1472)),
    6: ((3, 4), (4, 100), (5, 560), (6, 1344), (7, 1920), (8, 2112), (9, 2112)),
    7: ((3, 1), (4, 81), (5, 580), (6, 1584), (7, 2480), (8, 2816), (9, 2816)),
    8: ((4, 64), (5, 576), (6, 1792), (7, 3072), (8, 3584), (9, 3584)),
    9: ((4, 49), (5, 529), (6, 1940), (7, 3696), (8, 4560), (9, 4704), (10, 4704)),
    10: ((4, 36), (5, 484), (6, 2064), (7, 4288), (8, 5568), (9, 5888), (10, 5888)),
    11: ((4, 25), (5, 441), (6, 2164), (7, 4848), (8, 6608), (9, 7136), (10, 7136)),
    12: ((4, 16), (5, 400), (6, 2240), (7, 5376), (8, 7680), (9, 8448), (10, 8448)),
    13: ((4, 9), (5, 361), (6, 2292), (7, 5872), (8, 8784), (9, 9824), (10, 9824)),
    14: ((4, 4), (5, 324), (6, 2320), (7, 6336), (8, 9920), (9, 11264), (10, 11264)),
    15: ((4, 1), (5, 289), (6, 2324), (7, 6768), (8, 11088), (9, 12768), (10, 12768)),
    16: ((5, 256), (6, 2304), (7, 7168), (8, 12288), (9, 14336), (10, 14336)),
}

# SHA-256 of every file written by `count --n N --cache DIR`, N = 2..6.
RBPS_SHA256 = {
    "patterns_n2_rank2.rbps": "5096544d9e84019a8e63d78857e2e667ef8b60b5f695e6b832be8ce6838cccf5",
    "patterns_n2_rank3.rbps": "e29a4eaede124e35856c715f200b4d1bf28c06695d7b2e5bdcf9dc2b5a7f84e7",
    "patterns_n2_rank4.rbps": "2810297d319401e0341aefe8b7822e4f4674a317b53c1c5e4f74bd2d0452f053",
    "patterns_n2_rank5.rbps": "1392a9b50059c7540181209d6c50850c4c977566f6d1153e491005c4519757d9",
    "patterns_n2_rank6.rbps": "4eae718a440617ef6ab1a087d541078d955664d900de49856c33c7632605db1f",
    "patterns_n2_rank7.rbps": "4eae718a440617ef6ab1a087d541078d955664d900de49856c33c7632605db1f",
    "patterns_n3_rank2.rbps": "8c3b11518d9e979fd121d1dc9fb9daedef0c554654169bc2cbfc7c95d4b7ebb5",
    "patterns_n3_rank3.rbps": "01163673a188dc317b75b54a574f1bd9d0f6cb470b3ecf4cb1dad86c2430be43",
    "patterns_n3_rank4.rbps": "2500c16cdbf771afb0299fbd649b8e930df20a12aa00df2735097149567c5b41",
    "patterns_n3_rank5.rbps": "38ca2ca332fb7384fb74cb6ef1404da52f5240fae8145af15c41b7f0e2b13abe",
    "patterns_n3_rank6.rbps": "73c757d4494c1292da44537435bfe1ad303fe8e02c79b1734103164646932eae",
    "patterns_n3_rank7.rbps": "13563f96041e182c89f74b23302dd8d304df1f5c302489993a53f2a64f5fd788",
    "patterns_n3_rank8.rbps": "13563f96041e182c89f74b23302dd8d304df1f5c302489993a53f2a64f5fd788",
    "patterns_n4_rank3.rbps": "02f8adfa50b4f1b825d01675c5bc2091c58217dce54513fa2a5db621b74db2ff",
    "patterns_n4_rank4.rbps": "0a2b336676f875071d358feb563a8ab0a5d891f929e060869517ae06874a43ec",
    "patterns_n4_rank5.rbps": "ba934f5ff9cea962d7c8853edb7f8ec5aa824a370311b413e220f874103928f3",
    "patterns_n4_rank6.rbps": "65af790d51617160c8e246d315c1f51c8777397fe8ae8afd7baee1aba6ba3272",
    "patterns_n4_rank7.rbps": "0d5bec0760f8c4dc0b6bba7d0851132dfd10f4ea1abc404e48a427353ae1222b",
    "patterns_n4_rank8.rbps": "0d5bec0760f8c4dc0b6bba7d0851132dfd10f4ea1abc404e48a427353ae1222b",
    "patterns_n5_rank3.rbps": "da80d3b097fe4c35bb81320be95e9936bac3bfc9812123af0f1579da32d21aec",
    "patterns_n5_rank4.rbps": "b45eab5b8fcce49aa125d834a00698ebc4acca98eef5663ee193d75537436e6f",
    "patterns_n5_rank5.rbps": "a5bb0cb281ea0870bd51d24ca301983883310534357e1635ad0dbba0ebc13347",
    "patterns_n5_rank6.rbps": "8ebb985053e9187c72bf810076442ffa64d4d4a350dbfc1ffe97c213497a1a91",
    "patterns_n5_rank7.rbps": "6d254f688f7def2d95e8974609ef383c0ac4266022d3c2fa0ee4165ae4922a5e",
    "patterns_n5_rank8.rbps": "e47de6083be5c9c23443a7d4fcc396adc44f624b7e8c078e4d76e7dd1029e547",
    "patterns_n5_rank9.rbps": "e47de6083be5c9c23443a7d4fcc396adc44f624b7e8c078e4d76e7dd1029e547",
    "patterns_n6_rank3.rbps": "376bdcca027568775c523cbadfd4f2715fbd52b696b99697bb28af4e0fcd5ab6",
    "patterns_n6_rank4.rbps": "c11bde999cb642572d4ec261498558cf678e80e5ee06bd80a7028e4a51136742",
    "patterns_n6_rank5.rbps": "050038bc4b55062a481e75f55758c7c762603aa2e93d0f1515e4049b07f3c15a",
    "patterns_n6_rank6.rbps": "da6806e01e75e322ed65d0d4064557b3f34f1190d1c32d3d56e18463137fb90f",
    "patterns_n6_rank7.rbps": "5615b3788fbfb2bb69301627a9daecfa6a2e479e0433aa5f481ecd91f6579055",
    "patterns_n6_rank8.rbps": "11f094c1d92abbc697625ca17217bbb3e8b5da58266463e3145927b2b442eed7",
    "patterns_n6_rank9.rbps": "11f094c1d92abbc697625ca17217bbb3e8b5da58266463e3145927b2b442eed7",
}


def test_counts_by_rank_are_pinned():
    got = {n: count_stabilized(n, 11).counts_by_rank for n in COUNTS_BY_RANK}
    assert got == COUNTS_BY_RANK


def test_cache_files_are_pinned(tmp_path, capsys):
    for n in range(2, 7):
        assert main(["count", "--n", str(n), "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == RBPS_SHA256
