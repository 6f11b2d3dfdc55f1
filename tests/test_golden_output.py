"""Golden CLI documents and streamed output.

The SHA-256 of each document `supertile` and `render --overlay` write,
pinned so that a change to the writers cannot move a byte unnoticed,
and a check that a large document reaches stdout in bands rather than
in one write."""

import hashlib
import sys

import pytest

from robinsonblocks.cli import main
from robinsonblocks.render import render_ascii, render_svg
from robinsonblocks.supertile import build

FACINGS = ("NE", "NW", "SW", "SE")

# (format, rank, facing) -> SHA-256 of the document: `supertile --out
# FORMAT` for ascii and json at ranks 1..8 and svg at ranks 1..6, and
# `render --overlay` of the rank's JSON dump ("overlay", ranks 2..6).
DOCUMENT_SHA256 = {
    ("ascii", 1, "NE"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("ascii", 1, "NW"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("ascii", 1, "SW"): "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("ascii", 1, "SE"): "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    ("ascii", 2, "NE"): "51265bfa35417f534a56409e0aca868bdeb3ebfe3345d72e60049a26ed00ff30",
    ("ascii", 2, "NW"): "7b98f1dd8b661bf77bdf04a1e2a7092c0ced6ad40a635a75cd11ccae711223f6",
    ("ascii", 2, "SW"): "64087536b09f669ceaa1d0c3a704a4491fe357e137f9afe320617e3ab948d4ff",
    ("ascii", 2, "SE"): "5ca751c610edfedc085ca1440dc075c98e62bac4f8941284ee9050f46352960d",
    ("ascii", 3, "NE"): "eb0aba67bd5d08f6f9e33469df77a2c77e3eb8a5f186ae298c241c41c26bf4f4",
    ("ascii", 3, "NW"): "ce3a095788fd29d1b5ae0a2fd827ab34d141ca389d1a5a6bd8e0cb34d1673cd4",
    ("ascii", 3, "SW"): "9c7e9e864867a34ecc7df08984720528360b3d2008033eef313a27de3a447365",
    ("ascii", 3, "SE"): "206f64053e536efe3a69cab9604b39e6df74befb9351f01910c9bc2a8973a84d",
    ("ascii", 4, "NE"): "eec694a5681d621f7829d4ee3dc1cea73266e11e04ded6740d5b6d09c539df45",
    ("ascii", 4, "NW"): "6db5938e02b650364ba2d1977252ea4faca3b969c0812e47f0c8d08f34ecd8d8",
    ("ascii", 4, "SW"): "62ccf5cd79e45f4245d753a2acd354fb04408c4151be1fb224036bf3f3c90eb7",
    ("ascii", 4, "SE"): "e27c282078404d232a939c6f4ee079463f0b88060084e61c0b7df3854a96fa7e",
    ("ascii", 5, "NE"): "9939cafee91111297aba992ccbd954aee7810aeab52537015b987facf60503a1",
    ("ascii", 5, "NW"): "d7e037f4d12a698d510b19d5e3c88d58ab4b8b0e836c6b5bbdfdb4607c65b839",
    ("ascii", 5, "SW"): "6ed75ef481feb7e26c08d9a55e9fa46dc4948cdc05592a7761f5ae3931cf3e30",
    ("ascii", 5, "SE"): "2254ca61be4a97bd8f4e3c69025211fe5f6585507ba62131030657eb951badfe",
    ("ascii", 6, "NE"): "b97ab871fd4158efb6e0d6eb82e2342b0ff0ba74056252202bc337c851880473",
    ("ascii", 6, "NW"): "89fe5d8db40aa0680bb8430773ce5a105333ae13e9c10aaf664121c1e4f8a28c",
    ("ascii", 6, "SW"): "9a6a7aa3d997e05d4114427a9b696449a0ce23b121c4cc5312de2b5aca09cee4",
    ("ascii", 6, "SE"): "a9cd05c9102dc1b3a0418905783b754b3d38eab017d26e381f746704f2c06613",
    ("ascii", 7, "NE"): "584e89cc8d080907a8470ea86dd4094876872e4beb819217492db03396ae385b",
    ("ascii", 7, "NW"): "b2ffc037db49f08ace411d02b41d5ffdea7e89041a7600c9932daa7084b95f78",
    ("ascii", 7, "SW"): "432f2cc5d1cf1a6abb2ab4a1f40a881b3553826bc0a2cd247e2ee95207706651",
    ("ascii", 7, "SE"): "fc310f4a0e7234b586e7870d06cac822982381af4aa87339ef42fa5ff13776da",
    ("ascii", 8, "NE"): "6b05a8f48588ef68f2de8d053bf94d1ef5a2e42f3fd21a00878399dcb022d202",
    ("ascii", 8, "NW"): "6a0d6a1b8473b4cabed88a1afce2e636f356fe836c25be68262c8766993ed005",
    ("ascii", 8, "SW"): "c79e97b8f71cf8bbca17f0676492789e480d4a70da6574a3f4236c51e5be52f9",
    ("ascii", 8, "SE"): "4863fd2f7fb9ab76f2fe02f3c426bbbaa1bec74c432054340ba7eaac64172b39",
    ("json", 1, "NE"): "c9b87ab9fd93a1de6af9e8d6bdb11d16c34c932ad5f6dfb8a65a2ae04f66b533",
    ("json", 1, "NW"): "0ab3adf7dffddf4f68df2da4fff64a0240689d98455d008ef235c22cf2588370",
    ("json", 1, "SW"): "c8fde4c983045e6f6f74c59568e60abd6d25511524d4b6005b0e98000c8bebba",
    ("json", 1, "SE"): "a3956cd3e5fea74ea7268be1c9518a1239713cd9bb2ec67af17bc7b442847e32",
    ("json", 2, "NE"): "1e6bd4f320020797279de7fd7f808819c27b08bdd29334c4dd5777aecb00c27d",
    ("json", 2, "NW"): "4b24fd2a1131b5d437dce95fee9bd10b233075cc85eeafcdfbb03b419dc6f8bb",
    ("json", 2, "SW"): "95757b55ce717b335ee1519c03841f0470ae0b936ef01a681978e7e31da395d7",
    ("json", 2, "SE"): "0cb1aca12d7c1b8f21b195d27a34a88066b3c6f4d55760a596a7e8cbd2d93083",
    ("json", 3, "NE"): "701d4930f938c5d24190493c5f5e862219910cfd9910816ff3b026a138a12cdb",
    ("json", 3, "NW"): "8544423f918799ed94f3083406ce0e360512b17ea9f9b951e1acb736c404dc7d",
    ("json", 3, "SW"): "ab69e632f660398420c7642fa387891b3c7fc71dd00976b5095d7ca9f581c922",
    ("json", 3, "SE"): "5c1425e8366fb538af196c11f2040bd821897edec8b9d2ec384cdccc3d0ea257",
    ("json", 4, "NE"): "da38e6c27e715184c57dc8b1156a526773b5b41804652d89d3a1c09e587599b4",
    ("json", 4, "NW"): "abc233b3babb03dea1dfc3f9247f725d89954758ad155bb70596babdec59f727",
    ("json", 4, "SW"): "85297f4eaaa47ac2b66349bf0ba210ce496b695134c0c3cde35f82e84accb49e",
    ("json", 4, "SE"): "9111088010f61a88ce88c0b253fde6c42e4efec46e9a23f03a7a7049c516e24c",
    ("json", 5, "NE"): "65813e0fff742ec7b14893391841db881a287e9a70fa0c86e98e0655ebf72f49",
    ("json", 5, "NW"): "746e9ec3d4132500f0bfea8e83e54a4d2dfbacb952f13c387babc34c1e4a8295",
    ("json", 5, "SW"): "d522f6961e28de421ff238b216b0b71300a7e1a27962bb6123d1d98d08d47cc3",
    ("json", 5, "SE"): "59fe2629a147e04753704cc718937de1fd49cb6827d5bee9bc07c7103d4db27f",
    ("json", 6, "NE"): "bc435c230036af5883b581cdc5056ce29c465a77ce37b45d27086efecc1e4326",
    ("json", 6, "NW"): "c75ff3b5550d7868aeef50e4c9cb0353009159f4744410cebae9e0e147104327",
    ("json", 6, "SW"): "892269efe336465b8b7bebdfeba1f459720b89fd34b479c1a71d35a2dd13fb5a",
    ("json", 6, "SE"): "fd780c5010036ffc5b8bbe01046125e6c8955838317dce730c43164d727198f6",
    ("json", 7, "NE"): "dda2224664a0b6877d3799f55ccdb9493544cc7c528bba3c52898c4331fc93ea",
    ("json", 7, "NW"): "2facce2c31ba631bb7a271bea83eca43784d3cba8898a5bd1924c63dbe69269a",
    ("json", 7, "SW"): "7cbee52756b99bbcb290c1613c953c328b3cdb339e21ef5753b3775d7afde36f",
    ("json", 7, "SE"): "a0f78d43485e6d3354d05eafcbd67014b4d20767475d86b57cfe96df8d53d538",
    ("json", 8, "NE"): "f1caa03f7ae91e4750c8c90e0044f20dd4b68abc8d88bd8895f950a9e5c349b4",
    ("json", 8, "NW"): "4617d5ed344862c2bd47071790bba4baf1ee6b2ebffb2adc97b684479b1b28a2",
    ("json", 8, "SW"): "3d75a43aa55d8197987beae758072bc0ce029ffeb235ee38fc2763d13f651860",
    ("json", 8, "SE"): "9347a89411472f49e1155ba65a766b34aa161697e715c6ae1faa021c5b4a42d0",
    ("svg", 1, "NE"): "239f2f39d8cdeebfdf157c21ddc922ff69df8f6aee58dd0b06602276eb0f8c00",
    ("svg", 1, "NW"): "93c92aa79d0aa321cdf3cfe6c7942818daf6afb158dbdedd9b8dd9b8c662490e",
    ("svg", 1, "SW"): "4622d97b718aa6afc0d209cb1f9512d10d8532b8a1ed5614c1f969d80d99268c",
    ("svg", 1, "SE"): "5f80b9ad87884c16e1480dd274093bff00da9967582926d23e42fca6ae33885a",
    ("svg", 2, "NE"): "1cd73ea019b7a6abc89279b4226817581bc5a6e870829a77e8a24e772f7683ed",
    ("svg", 2, "NW"): "e9cf1356b91c3c625747125d040b6224a86e82746c7f4426ce5b2fec3291fb08",
    ("svg", 2, "SW"): "8d5ed847fdacf6319c62f67bd3f55763caebb8cd60f02a17bfb3c18d4ef5edc7",
    ("svg", 2, "SE"): "60fb0e360cd6f8a75a98130f77a5025bd4a9deee065bce5260483a940a608ab5",
    ("svg", 3, "NE"): "78b662859838c28aca82540376cced75cde48d0cc49ce27ff18a9a11967faa53",
    ("svg", 3, "NW"): "8a0802a662753ac0bbdd2b1aad03e6a075598271e40324b2042e001c7b06b0d1",
    ("svg", 3, "SW"): "a8a66b2411ef10487b8f63a7b56d94fec14767d478ef4aa8585af37b02485cb8",
    ("svg", 3, "SE"): "b7a3ec7625be5f1ca94d20b340825591d70c89fb22e30a5b11235b0c77936b5f",
    ("svg", 4, "NE"): "f8875b88fae82e1b59b4be03b9ea7221983bec6e301c0ac84537dbcd5f944785",
    ("svg", 4, "NW"): "61614f527e0c8662202a4e7eb8781b38801890908d26b99dd0c06b7c84be3acf",
    ("svg", 4, "SW"): "4c06fd52319a592a118ea1993adb1003550244d6cb73615521c5cb8f33f6fbb0",
    ("svg", 4, "SE"): "f2b5120ee3572c8efedcaaf52199b0eb1cd7c4fe183ae0203bb787f0681cf193",
    ("svg", 5, "NE"): "94ade01656e2c199f815ab937a9b2eb1c140826ea9bbb667372836bf9f961cee",
    ("svg", 5, "NW"): "175dee8c646775d608f58a408efd5021911ed1d7e9e071699e83fa3be35fd496",
    ("svg", 5, "SW"): "796114de8e6c8ada47407b10c755cfc83c9a6012e739c314fa968c7662d8283f",
    ("svg", 5, "SE"): "0b5850ac510b5a524235f9170f63ad350f4f8d575dd8b22b4367f238934fd787",
    ("svg", 6, "NE"): "a6989333d727400203df3a7b39c36040ae4bb84bf71961aa0012f25afdce295f",
    ("svg", 6, "NW"): "d6170cb62c468792fa9e56d30a6d7c63d0ab5ffb97ddb7d70918da860c7e4e3a",
    ("svg", 6, "SW"): "f9b73db8c99acdaaf570cb7389811f566ebf082d67d6e39bbe4a9a6d21874848",
    ("svg", 6, "SE"): "0009e3b97c4891db1e6f4bede1234a635e71d2d9afbf1bd22b4436c33b04166e",
    ("overlay", 2, "NE"): "7383be54484d55fff092b4d8d0f02bd39a61000395a8281e0feb9e1f0beacad9",
    ("overlay", 2, "NW"): "68af24cab27c27505fcbd47cbed7a742e029f8267395d5d1a4e54025d7208eaa",
    ("overlay", 2, "SW"): "9c6c4a449dea46209f12b823016d673359288d4b7b1433019ab82eea34543623",
    ("overlay", 2, "SE"): "cbea9c0ec8af55f797021c988fd6da344150c6a584d63eb46bf663eb441ae885",
    ("overlay", 3, "NE"): "6d6d91406b18f5e343a3e029e3f22ec19637472097f32e66d514ea769e44fa59",
    ("overlay", 3, "NW"): "e07d9d0fca01d141c97b9a97d7d0c56983c2d61b0aba4e9bde582aecb74aaabd",
    ("overlay", 3, "SW"): "877cc4afb9ae2168bab7eb42db13f2e48a3f1b237dbb6198b13367bf3fe621ab",
    ("overlay", 3, "SE"): "9e51bff21b804068f40830ca30257edaf3ac7dece0ee4a33b1f8d6dabe49b51c",
    ("overlay", 4, "NE"): "3ea5a727d824cb8de7021e3c4181013d7f0c441cf0edfaf1dae25128bd65a12e",
    ("overlay", 4, "NW"): "eeef82bca75e4de562d90f839224f94075663ff882d8fea119b00b9059f5a3e4",
    ("overlay", 4, "SW"): "d5450c82c48688d2316bee9d8128c0ae4b5070873f4e64f22673ee63a112879a",
    ("overlay", 4, "SE"): "1080bab677396b7a4e1dad1815e8062abbbf6a9e7a673dacfa0d738145ca005b",
    ("overlay", 5, "NE"): "4fb000daa6c8396dfc0b92cfde6ed8032999ed2cdc4c4b94041f20f3773fd4c5",
    ("overlay", 5, "NW"): "18809cb1ac1348fcde69eb85094e07592d5afdd58e3ce30095894f880e4ead20",
    ("overlay", 5, "SW"): "b2270df03d61378c2b6c6e91e8ddcb33b5952a5830062953a19dee87c78c285e",
    ("overlay", 5, "SE"): "05d7d47dcf116b7e24684f9fa69ccfa15520b73c27c92705c43c53321a431fa5",
    ("overlay", 6, "NE"): "bf27bb7c87dec88a0b1da3c6601ce26325892a4828ae659876e12392902371ae",
    ("overlay", 6, "NW"): "dd1e35aff730752aa0f94bf43086d9497138cb3ff2574e8bd739f65019da573f",
    ("overlay", 6, "SW"): "0adc48d123404092d78c1c9316d91569de0d0fd6d7884d9bd6fce6e9bb6aef06",
    ("overlay", 6, "SE"): "dfec3edbe89c9661bca30d06a3e905470c6b4531c0bc77cf633d7fa8dd1d8a02",
}

SUPERTILE_CASES = [key for key in DOCUMENT_SHA256 if key[0] != "overlay"]
OVERLAY_CASES = [key for key in DOCUMENT_SHA256 if key[0] == "overlay"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("out,rank,facing", SUPERTILE_CASES)
def test_supertile_documents_are_pinned(capsys, tmp_path, out, rank, facing):
    argv = ["supertile", "--rank", str(rank), "--facing", facing, "--out", out]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == DOCUMENT_SHA256[out, rank, facing]
    path = tmp_path / f"doc.{out}"
    assert main([*argv, "--output", str(path)]) == 0
    assert sha256(path.read_bytes()) == DOCUMENT_SHA256[out, rank, facing]


@pytest.mark.parametrize("kind,rank,facing", OVERLAY_CASES)
def test_render_overlay_documents_are_pinned(capsys, tmp_path, kind, rank, facing):
    grid, svg = tmp_path / "grid.json", tmp_path / "grid.svg"
    argv = ["supertile", "--rank", str(rank), "--facing", facing, "--out", "json"]
    assert main([*argv, "--output", str(grid)]) == 0
    assert main(["render", "--input", str(grid), "--out", str(svg), "--overlay"]) == 0
    assert sha256(svg.read_bytes()) == DOCUMENT_SHA256[kind, rank, facing]


class RecordingStdout:
    """Stands in for sys.stdout and keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "out,rank,render",
    [
        ("svg", 7, render_svg),
        ("json", 9, lambda grid: grid.to_json() + "\n"),
        ("ascii", 9, render_ascii),
    ],
    ids=["svg", "json", "ascii"],
)
def test_documents_reach_stdout_in_bands(monkeypatch, out, rank, render):
    recorder = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(["supertile", "--rank", str(rank), "--out", out]) == 0
    monkeypatch.undo()
    document = "".join(recorder.writes)
    assert document == render(build(rank, "NE"))
    assert max(map(len, recorder.writes)) <= len(document) // 4
