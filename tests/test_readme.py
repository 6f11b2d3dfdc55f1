"""The README's examples, run as written."""

import re
import shlex
from pathlib import Path

from robinsonblocks.cli import CACHE_ENV, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    # Each command line commented with an integer prints that integer.
    examples = re.findall(r"^robinsonblocks (.*?)\s+# (\d+)\b", _block("Command line", "sh"), re.M)
    assert len(examples) >= 5
    for argv, expected in examples:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == f"{expected}\n", argv
    exec(_block("Library", "python"), {})
