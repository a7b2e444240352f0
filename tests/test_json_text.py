"""The window and quotient JSON text against its dict-tree byte oracle.

``Window.json_fields`` and ``QuotientWindow.json_fields`` write the canonical
JSON text of each top-level field straight from the tuples, and
``serialize.json_object`` assembles them.  The text must equal ``canonical_json``
of the dict trees that ``oracles.window_json`` and ``oracles.quotient_json``
build, byte for byte, and read back through ``Window.from_json``.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import cli, farey, s5windows
from curvelab.serialize import CACHE_ENV, canonical_json, content_hash, json_object
from curvelab.window import Window
from oracles import quotient_json, rows_from_edges, window_json
from test_artifacts import B2_AAB, MENU


def window_text(w: Window, key_str) -> str:
    return "".join(json_object(w.json_fields(key_str)))


def check_window(w: Window, key_str, str_key) -> str:
    text = window_text(w, key_str)
    assert text == canonical_json(window_json(w, key_str))
    assert Window.from_json(json.loads(text), str_key, w.instance) == w
    return text


def test_farey_window_text_matches_oracle():
    basepoints = (farey.ZERO, farey.INFINITY, farey.Slope(-3, 7))
    for height in (*range(1, 61), 110):
        for base in basepoints:
            if base.height <= height:
                check_window(farey.farey_window(height, base), str, farey.Slope.parse)


def test_s5_window_text_matches_oracle(w2, w3, w4):
    for w in (s5windows.build_window(0), s5windows.build_window(1), w2, w3, w4):
        assert w.words is not None
        check_window(w, s5windows.curve_key_str, s5windows.parse_curve_key)


def test_wordless_window_file_text_matches_oracle(w2, tmp_path):
    data = window_json(w2, s5windows.curve_key_str)
    for rec in data["vertices"]:
        del rec["word"]
    path = tmp_path / "window.json"
    path.write_text(canonical_json(data))
    w = cli._s5_window(None, str(path))
    assert w.words is None
    assert check_window(w, s5windows.curve_key_str,
                        s5windows.parse_curve_key) == path.read_text()


def _quotient_of(args):
    opts = dict(zip(args[1::2], args[2::2]))
    return cli._build_quotient(
        instance=opts["--instance"], height=int(opts.get("--height", 55)),
        matrix=opts.get("--matrix", "2,1,1,1"), power=int(opts.get("--power", 8)),
        conj_len=int(opts.get("--conj-len", 2)), depth=1,
        word_bound=int(opts.get("--word-bound", 2)), sample_csv=opts.get("--sample", ""))


QUOTIENT_ENTRIES = {**{entry: args for entry, (args, _, _) in MENU.items()},
                    "b2-saab": B2_AAB[0]}


@pytest.mark.parametrize("entry", sorted(QUOTIENT_ENTRIES))
def test_quotient_text_matches_oracle(entry, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    q = _quotient_of(QUOTIENT_ENTRIES[entry])
    w, key_str = q.window, q.contract.key_str
    fields = w.json_fields(key_str)
    assert "".join(json_object(fields)) == canonical_json(window_json(w, key_str))
    text = "".join(json_object({**fields, **q.json_fields()}))
    assert text == canonical_json(quotient_json(q, key_str))


# every character class the ASCII escaping treats differently: quote,
# backslash, control characters, non-ASCII inside and beyond the BMP
AWKWARD_TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "€", "\U0001d11e",
                     "a", "/"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)


@st.composite
def awkward_windows(draw) -> Window:
    keys = sorted(draw(st.sets(AWKWARD_TEXT, min_size=1, max_size=8)))
    pairs = [(i, j) for i in range(len(keys)) for j in range(i + 1, len(keys))]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    words = draw(st.none() | st.lists(AWKWARD_TEXT, min_size=len(keys),
                                      max_size=len(keys)).map(tuple))
    return Window(
        instance=draw(AWKWARD_TEXT),
        basepoint=draw(st.sampled_from(keys)),
        bound=draw(st.integers(0, 10**30)),
        vertices=tuple(keys),
        neighbors=rows_from_edges(len(keys), edges),
        words=words,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(awkward_windows())
def test_escaped_window_text_matches_oracle(w):
    text = check_window(w, str, str)
    assert text.isascii()


def test_s5_cache_entries_in_the_oracle_bytes_are_hits(tmp_path, monkeypatch):
    # entries written through the dict trees stay hits, and a miss writes
    # the same bytes
    def description(bound):
        return {"kind": "window", "instance": "s5", "wordBound": bound}

    planted = {}
    for bound in range(4):
        w = s5windows.build_window(bound)
        planted[bound] = canonical_json(window_json(w, s5windows.curve_key_str))
        if bound < 3:
            (tmp_path / f"{content_hash(description(bound))}.json").write_text(
                planted[bound])
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    runner = CliRunner()
    build = s5windows.build_window
    monkeypatch.setattr(s5windows, "build_window",
                        lambda bound: pytest.fail("hit expected"))
    for bound in range(3):
        result = runner.invoke(cli.main, ["s5", "ball", "--word-bound", str(bound)],
                               catch_exceptions=False)
        assert result.exit_code == 0 and result.output == planted[bound]
    monkeypatch.setattr(s5windows, "build_window", build)
    result = runner.invoke(cli.main, ["s5", "ball", "--word-bound", "3"],
                           catch_exceptions=False)
    assert result.exit_code == 0 and result.output == planted[3]
    entry = tmp_path / f"{content_hash(description(3))}.json"
    assert entry.read_text() == planted[3]
