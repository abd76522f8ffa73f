"""The package's public surface: what ``spamm`` exports is what the README
documents."""

import re
from pathlib import Path

import spamm

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_map():
    text = README.read_text()
    start = text.index("## Library map")
    return text[start:text.index("\n## ", start + 1)]


def test_every_export_resolves_and_is_documented():
    spans = re.findall(r"`([^`]*)`", _library_map())
    documented = {word for span in spans for word in re.findall(r"\w+", span)}
    assert len(spamm.__all__) == len(set(spamm.__all__))
    for name in spamm.__all__:
        assert getattr(spamm, name, None) is not None, name
        assert name in documented, f"{name} missing from the README library map"
