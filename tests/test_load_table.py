"""The table parser against ``pointwise_load_table``, which parses every
value token on its own: the same table, or the same error message and line,
on a corpus of malformed files and under hypothesis."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fndecomp import FnTable, Group, dump_table, load_table, tables
from fndecomp.errors import FnDecompError, ParseError, ResourceError
from fndecomp.groups import packed_cell
from helpers import pointwise_load_table, random_table


def outcome(loader, text):
    try:
        return loader(text)
    except FnDecompError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same(text):
    expected = outcome(pointwise_load_table, text)
    assert outcome(load_table, text) == expected
    return expected


Z2_HEAD = "domain=2\narity=2\ngroup=Z2\n"

CORPUS = [
    # well-formed, with comments, blank lines and odd whitespace between values
    Z2_HEAD + "0 1\n1 0\n",
    "# c\n\ndomain=2\n  arity=2 \n\ngroup= z2 \n# v\n0\n\n 1\t1\n# x\n\n0\n",
    Z2_HEAD + "0 1\r\n1 0\r\n",
    Z2_HEAD + "0 1\x0b1  0\x85",
    "domain=3\narity=1\ngroup=Z2xZ4\n1,3 0,0\n1,3\n",
    "domain=2\narity=0\ngroup=Z5\n4\n",
    # the trivial group has one element, written 0
    "domain=2\narity=2\ngroup=Z1\n0 0 0 0\n",
    "domain=2\narity=1\ngroup=Z1\n0 1\n",
    "domain=2\narity=1\ngroup=Z1xZ1\n0 00\n",
    "domain=2\narity=1\ngroup=Z1\n0 0,0\n",
    # leading zeros
    Z2_HEAD + "0 1 01 0\n",
    Z2_HEAD + "0 1 00 0\n",
    "domain=2\narity=1\ngroup=Z2xZ4\n0,0 0,03\n",
    # a residue at or above its modulus
    Z2_HEAD + "0 1 2 0\n",
    "domain=2\narity=1\ngroup=Z2xZ4\n1,3 1,4\n",
    "domain=2\narity=1\ngroup=Z3\n0 " + "9" * 5000 + "\n",
    # the wrong number of residues
    "domain=2\narity=1\ngroup=Z2xZ2\n1 1,0\n",
    "domain=2\narity=1\ngroup=Z2xZ2\n1,0,1 1,0\n",
    "domain=2\narity=1\ngroup=Z2xZ2\n1, 0\n",
    "domain=2\narity=1\ngroup=Z2xZ2\n1,,\n",
    # signs, underscores and non-ASCII digits
    Z2_HEAD + "0 +1 1 0\n",
    Z2_HEAD + "0 1_0 1 0\n",
    Z2_HEAD + "0 ١ 1 0\n",
    Z2_HEAD + "0 ² 1 0\n",
    Z2_HEAD + "0 １ 1 0\n",
    # a bad token before and after the value limit on one line
    Z2_HEAD + "0 1 1 x 0\n",
    Z2_HEAD + "0 1 1 0 x\n",
    Z2_HEAD + "0 1\n1 0 1\n",
    Z2_HEAD + "0 1\n1 0\n0\n",
    Z2_HEAD + "0 1\n1 0\n# more\n\nx\n",
    Z2_HEAD + "0 1 1 0 0 0 0\n",
    Z2_HEAD + "0 1 1 0 # trailing\n",
    # short tables
    Z2_HEAD,
    Z2_HEAD + "0 1 1\n",
    Z2_HEAD + "0\n# 1 1 0\n",
    "domain=2\narity=1\n",
    "",
    # headers
    "arity=2\ndomain=2\ngroup=Z2\n0 1 1 0\n",
    "domain=1\narity=2\ngroup=Z2\n0\n",
    "domain=2\narity=23\ngroup=Z2\n0\n",
    "domain=2\narity=1\ngroup=Z0\n0 0\n",
    "domain=2\narity=1\ngroup=" + "Z2x" * 30 + "\n0 0\n",
]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_matches_pointwise_parser(text):
    assert_same(text)


def test_corpus_reaches_both_outcomes():
    outcomes = [outcome(pointwise_load_table, text) for text in CORPUS]
    assert sum(isinstance(o, FnTable) for o in outcomes) == 7
    message = {text: o[1] for text, o in zip(CORPUS, outcomes) if isinstance(o, tuple)}
    assert message[Z2_HEAD + "0 1 1 x 0\n"] == "line 4: bad element text 'x'"
    assert message[Z2_HEAD + "0 1 1 0 x\n"] == "line 4: more than 4 values"
    assert message[Z2_HEAD + "0 1\n1 0\n# more\n\nx\n"] == "line 8: more than 4 values"


def test_dumped_tables_round_trip():
    rng = random.Random(3)
    for a_size, n, group in [(2, 5, Group((2,))), (3, 3, Group((2, 4))), (4, 2, Group(())),
                             (3, 0, Group((7,)))]:
        f = random_table(rng, a_size, n, group)
        assert assert_same(dump_table(f)) == f


GROUPS = ["Z2", "Z3", "Z1", "Z2xZ2", "Z4"]
TOKENS = ["0", "1", "2", "3", "1,0", "0,1", "1,1", "0,0", "01", "00", "+1", "4",
          "١", "1,", "x", "#", "0,0,0"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]


@settings(max_examples=300, deadline=None)
@given(
    group=st.sampled_from(GROUPS),
    domain=st.integers(2, 3),
    arity=st.integers(0, 3),
    body=st.lists(
        st.one_of(
            st.lists(st.sampled_from(TOKENS), min_size=0, max_size=6).map(
                lambda ts: ("tokens", ts)),
            st.sampled_from([("comment", "# note"), ("blank", ""), ("blank", " \t ")]),
        ),
        max_size=12,
    ),
    breaks=st.lists(st.sampled_from(LINE_BREAKS), min_size=1, max_size=3),
    gaps=st.sampled_from([" ", "\t", "  ", " 　"]),
)
def test_random_files_match_pointwise_parser(group, domain, arity, body, breaks, gaps):
    lines = [f"domain={domain}", f"arity={arity}", f"group={group}"]
    for kind, item in body:
        lines.append(gaps.join(item) if kind == "tokens" else item)
    text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
    assert_same(text)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_well_formed_files_match_pointwise_parser(data):
    group = Group(tuple(data.draw(st.lists(st.integers(2, 5), max_size=2), label="moduli")))
    a_size = data.draw(st.integers(2, 3), label="a_size")
    n = data.draw(st.integers(0, 4), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    text = dump_table(random_table(random.Random(seed), a_size, n, group))
    cut = data.draw(st.integers(0, len(text)), label="cut")
    extra = data.draw(st.sampled_from(["", "0\n", "# c\n", "x\n", "0 0\n"]), label="extra")
    assert_same(text[:cut] + extra + text[cut:])


def test_each_distinct_token_is_parsed_once(monkeypatch):
    calls = {"parse_element": [], "encode": 0}
    real_parse, real_encode = Group.parse_element, Group.encode

    def parse(self, text):
        calls["parse_element"].append(text)
        return real_parse(self, text)

    def encode(self, x):
        calls["encode"] += 1
        return real_encode(self, x)

    monkeypatch.setattr(Group, "parse_element", parse)
    monkeypatch.setattr(Group, "encode", encode)
    rng = random.Random(4)
    for f in [FnTable.from_callable(2, 10, Group((2,)), lambda x: (sum(x) % 2,)),
              random_table(rng, 3, 5, Group((2, 4)))]:
        text = dump_table(f)
        calls["parse_element"].clear()
        calls["encode"] = 0
        assert load_table(text) == f
        parsed = calls["parse_element"]
        assert len(parsed) == len(set(parsed)) == len(set(text.split()[3:]))
        assert calls["encode"] == len(parsed)


def test_tokens_beyond_the_memo_limit_match_pointwise_parser(monkeypatch):
    import fndecomp.tables as tables_mod

    parsed = []
    real_parse = Group.parse_element
    monkeypatch.setattr(Group, "parse_element",
                        lambda self, text: parsed.append(text) or real_parse(self, text))
    monkeypatch.setattr(tables_mod, "TOKEN_MEMO_LIMIT", 3)
    text = "domain=2\narity=3\ngroup=Z7\n0 1 2 3\n4 5 0 5\n"
    assert load_table(text).values == (0, 1, 2, 3, 4, 5, 0, 5)
    # 0, 1 and 2 are remembered; 5 comes after the limit and is parsed twice
    assert parsed == ["0", "1", "2", "3", "4", "5", "5"]
    for text in CORPUS + ["domain=2\narity=2\ngroup=Z9\n0 1 2 3\n4 8 09\n",
                          "domain=2\narity=2\ngroup=Z9\n0 1 2 3 4 x\n"]:
        assert_same(text)


def test_header_check_runs_before_any_value_is_parsed():
    # the check sees the header's facts; refusing there, the body with its
    # bad token is never parsed
    text = "domain=2\narity=1\ngroup=Z4096\n0 x\n"
    seen = []

    def refuse(a_size, arity, group):
        seen.append((a_size, arity, group))
        raise ResourceError("refused at the header")

    with pytest.raises(ResourceError, match="refused at the header"):
        load_table(text, refuse)
    assert seen == [(2, 1, Group((4096,)))]
    for check in (None, lambda *header: None):
        with pytest.raises(ParseError, match="line 4"):
            load_table(text, check)
    # a bad header is reported before the check runs
    with pytest.raises(ParseError, match="line 3"):
        load_table("domain=2\narity=1\ngroup=Zx\n0 1\n", refuse)
    # the packing check refuses a wide codomain; Z4096 packs
    packable = lambda a_size, arity, group: packed_cell(group.moduli)
    with pytest.raises(ResourceError, match="34 bits per cell"):
        load_table("domain=2\narity=1\ngroup=" + "Z2x" * 16 + "Z2\n0 x\n", packable)
    ok = "domain=2\narity=1\ngroup=Z4096\n0 4095\n"
    assert load_table(ok, packable) == load_table(ok)


def test_the_readme_table_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Table file format", 1)[1]
    example = section.split("```", 2)[1]
    f = tables.load_table(example)
    assert (f.a_size, f.arity, f.group.to_text()) == (2, 4, "Z2")
    assert f.values == tuple(sum(x) % 2 for x in tables.iter_tuples(2, 4))
