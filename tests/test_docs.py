"""README.md is the manual and CHANGES.md keeps the measurements: the README
states no timing or memory figure, and the constants, modules and
subcommands it names are those of the code."""

import argparse
import re
from pathlib import Path

import fndecomp
from fndecomp import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# a number followed by a time or memory unit, or a before-and-after history
MEASUREMENT = re.compile(r"(?<![\w.^])\d+(?:\.\d+)?\s?(?:s|ms|[µμ]s|MB)\b|went from|→")
# "`NAME` = value", with the value in decimal or as a power "2^22"
QUOTED_CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)`\s*=\s*(\d+)(?:\^(\d+))?")


def prose_lines(text):
    """(line number, line) for each line outside fenced code blocks."""
    fenced = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            yield number, line


def test_readme_states_no_measurements():
    found = [f"{number}: {line}" for number, line in prose_lines(README)
             if MEASUREMENT.search(line)]
    assert not found, "measurements belong in CHANGES.md:\n" + "\n".join(found)


def test_readme_matches_the_code():
    modules = [getattr(fndecomp, name) for name in fndecomp._EXPORTS]
    quoted = {}
    for name, base, power in QUOTED_CONSTANT.findall(README):
        quoted.setdefault(name, set()).add(int(base) ** int(power or 1))
    assert {"MAX_CELLS", "RUN", "TOKEN_MEMO_LIMIT", "PAIR_COUNT_MAX_M", "PACKED_BITS"} <= set(quoted)
    for name, values in quoted.items():
        in_code = {getattr(module, name) for module in modules if hasattr(module, name)}
        assert values == in_code, name

    for name in fndecomp._EXPORTS:
        assert f"`fndecomp.{name}`" in README, name

    parser = cli._build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command in commands:
        assert f"fndecomp {command}" in README, command
