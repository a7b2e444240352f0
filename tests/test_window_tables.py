"""An S5 window's tables: its witness words parsed once, and every other
fact that a word gives read off that one parse.

``build_window`` hands over the witnesses, readers and puncture pairs it
made.  A window read back from JSON, as on a cache hit or with
``--window``, builds the same tables on first use, parsing each witness
word once, however many suites and arc2 ops read them.
"""

import json

import pytest
from click.testing import CliRunner

from curvelab import cli, s5windows
from curvelab.serialize import CACHE_ENV, json_object
from curvelab.window import Window

TABLES = (s5windows.witnesses, s5windows.witness_readers,
          s5windows.puncture_pairs, s5windows.boundary)
HANDED_OVER = TABLES[:3]

SUITES = "simplicial,lift,ball2,covering,transfer,support,relations"
# the case5 triangle of the bound-3 window: a four-pentagon fill
TRIANGLE = ("0,0,1,0,1,0,1,0,1", "0,1,0,1,0,1,1,1,1", "2,1,1,1,1,1,0,3,2")
COMMANDS = (
    ("verify", "--instance", "s5", "--word-bound", "3", "--sample", "aa",
     "--suites", SUITES),
    ("arc2", "classify", *TRIANGLE),
    ("arc2", "fill", *TRIANGLE),
)


def read_back(w: Window) -> Window:
    text = "".join(json_object(w.json_fields(s5windows.curve_key_str)))
    return Window.from_json(json.loads(text), s5windows.parse_curve_key,
                            s5windows.S5_INSTANCE)


@pytest.fixture()
def parsed(monkeypatch):
    """The witness texts that ``parse_witness`` is called on."""
    calls, real = [], s5windows.parse_witness

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(s5windows, "parse_witness", counting)
    return calls


def test_build_window_hands_over_its_tables(parsed):
    w = s5windows.build_window(3)
    assert [t.__name__ in w.__dict__ for t in TABLES] == [True, True, True, False]
    assert s5windows.witnesses(w) == tuple(map(s5windows.parse_witness, w.words))
    parsed.clear()
    for table in TABLES:
        assert table(w) is table(w)
    assert parsed == []


def test_tables_read_back_from_json_match_the_handed_over_ones(w2, w3):
    back = read_back(w3)
    assert not any(t.__name__ in back.__dict__ for t in TABLES)
    for table in TABLES:
        assert table(back) == table(w3), table.__name__
    # the boundary is what the bound-2 window lacks
    assert s5windows.boundary(w3) == {
        i for i, v in enumerate(w3.vertices) if v not in w2.index}


def test_a_window_without_words_has_no_tables(w2):
    bare = Window(w2.instance, w2.basepoint, w2.bound, w2.vertices, w2.neighbors)
    for table in TABLES:
        with pytest.raises(ValueError, match=s5windows.NO_WORDS):
            table(bare)
    with pytest.raises(ValueError, match=s5windows.NO_WORDS):
        s5windows.window_curve(bare, 0)


def test_a_built_window_is_never_parsed(parsed, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    for args in COMMANDS:
        result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    assert parsed == []


def test_a_window_read_from_json_parses_each_word_once(parsed, w3, monkeypatch, tmp_path):
    # each command reads the cached bound-3 window afresh, the first one
    # right after writing it
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    for args in COMMANDS:
        parsed.clear()
        result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        assert sorted(parsed) == sorted(w3.words), args[:2]
    # and in process, every table and curve of the window read back
    back = read_back(w3)
    parsed.clear()
    for table in TABLES:
        table(back)
    for i in range(len(back)):
        s5windows.window_curve(back, i)
    assert sorted(parsed) == sorted(w3.words)
