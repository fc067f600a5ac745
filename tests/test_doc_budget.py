"""The doc budget: the three long documents stop growing.

CHANGES.md, DESIGN.md and EXPERIMENTS.md are pinned at a size in bytes,
the way ``test_knob_budget.py`` pins keyword arguments: a change that
needs room raises its pin here, in its own diff, and says why in
CHANGES.md.  A document may always shrink.

Every CHANGES entry after the one that brought in this file (a
top-level ``- `` line with its indented sub-bullets, or a ``FOUND:``/
``MENDED:`` line) is at most ``ENTRY_CHARS`` characters: an entry says
what changed and where the numbers are, and the numbers live in
EXPERIMENTS.md.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "CHANGES.md": 142543,
    "DESIGN.md": 139580,
    "EXPERIMENTS.md": 227967,
}

ENTRY_CHARS = 400


def entries(text):
    """CHANGES.md's entries, in order: each top-level line with the
    indented lines that follow it."""
    out = []
    for line in text.splitlines():
        if line.startswith((" ", "\t")) and out:
            out[-1] += "\n" + line
        elif line.strip():
            out.append(line)
    return out


@pytest.mark.parametrize("name", sorted(PINS))
def test_the_document_is_within_its_pin(name):
    size = len((ROOT / name).read_bytes())
    assert size <= PINS[name], (
        f"{name} is {size} B, pinned at {PINS[name]} B: make room, or "
        f"raise the pin and say why in CHANGES.md")


def test_every_changes_entry_after_this_budget_is_short():
    found = entries((ROOT / "CHANGES.md").read_text(encoding="utf-8"))
    # The first entry naming this file is the last one left unbounded.
    anchor = next(i for i, entry in enumerate(found)
                  if Path(__file__).name in entry)
    long = [entry[:60] for entry in found[anchor + 1:]
            if len(entry) > ENTRY_CHARS]
    assert not long, f"entries over {ENTRY_CHARS} characters: {long}"


def test_entries_split_on_top_level_lines():
    text = "# Changes\n\n- one\n  - its detail\nFOUND: two\n- three\n"
    assert entries(text) == ["# Changes", "- one\n  - its detail",
                             "FOUND: two", "- three"]
