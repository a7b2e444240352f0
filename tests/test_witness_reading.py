"""Adjacency read off witness words, against flip-reduction search.

The S5 contract decides whether a window vertex v = g(c_k) is disjoint from
a curve x as 2 * (g^-1 x)[e_k] == 0, with no flip-reduction search, and
``intersection_number`` reads every intersection the same way.  These tests
compare that reading with the flip search kept in ``oracles``, and check
that a wrong witness is refused.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import quotient, s5windows
from curvelab.curves import NormalCurve, intersection_number
from curvelab.mcg import WORD_ALPHABET, apply_word
from curvelab.serialize import json_object
from curvelab.window import Window
from oracles import disjoint, intersection

# the samples of the benchmark's bound-3 s5-verify menu
SAMPLES = ("aa", "r", "bb,dd", "abc", "cdcd", "aaaa", "abab")


@pytest.fixture(scope="module")
def w4():
    return s5windows.build_window(4)


def search_contract():
    """The S5 contract deciding out-of-window adjacency by flip search."""
    return quotient.s5_contract()._replace(adjacent=lambda w, a, b: disjoint(a, b))


@pytest.mark.parametrize("sample", SAMPLES)
def test_certificates_match_flip_search(w3, sample):
    contract, oracle = quotient.s5_contract(), search_contract()
    words = quotient.s5_sample(tuple(sample.split(",")))
    outside = 0
    for word in words:
        for v in w3.vertices:
            image = apply_word(word, v)
            outside += image not in w3.index
            assert contract.certificate(v, image, w3) == oracle.certificate(v, image, w3)
    assert outside > 0 or sample == "r"  # r maps the window onto itself


def test_reading_matches_intersection_number(w4):
    rng = random.Random(9)
    readers = s5windows.witness_readers(w4)
    outside = 0
    for _ in range(2000):
        i = rng.randrange(len(w4))
        word = "".join(rng.choice(WORD_ALPHABET) for _ in range(rng.randint(1, 4)))
        x = apply_word(word, w4.vertices[rng.randrange(len(w4))])
        outside += x not in w4.index
        inverse, edge = readers[i]
        expected = intersection(w4.vertices[i], x)
        assert 2 * apply_word(inverse, x)[edge] == expected
        assert intersection_number(s5windows.window_curve(w4, i), x) == expected
        if x != w4.vertices[i]:
            assert s5windows.adjacent(w4, w4.vertices[i], x) == (expected == 0)
    assert outside > 500


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_intersection_invariant_under_words(w3, data):
    a = w3.vertices[data.draw(st.integers(0, len(w3) - 1), label="a")]
    b = w3.vertices[data.draw(st.integers(0, len(w3) - 1), label="b")]
    g = data.draw(st.text(WORD_ALPHABET, max_size=4), label="g")
    assert intersection(apply_word(g, a), apply_word(g, b)) == intersection(a, b)


def test_neither_point_in_window_is_refused(w3):
    # adjacency is read through the first point's witness; no search is left
    w1 = s5windows.build_window(1)
    a, b = [v for v in w3.vertices if v not in w1.index][:2]
    with pytest.raises(ValueError, match="not a window vertex"):
        quotient.s5_contract().certificate(a, b, w1)


def test_readers_built_from_json_match_build(w3):
    text = "".join(json_object(w3.json_fields(s5windows.curve_key_str)))
    back = Window.from_json(json.loads(text),
                            s5windows.parse_curve_key, s5windows.S5_INSTANCE)
    assert s5windows.witness_readers(back) == s5windows.witness_readers(w3)


def test_wrong_witness_is_refused(w2):
    words = list(w2.words)
    words[7], words[8] = words[8], words[7]
    bad = Window(w2.instance, w2.basepoint, w2.bound, w2.vertices, w2.neighbors, tuple(words))
    image = apply_word("ab", bad.vertices[7])
    with pytest.raises(ValueError, match="is not"):
        quotient.s5_contract().certificate(bad.vertices[7], image, bad)
    with pytest.raises(ValueError, match="witness words"):
        s5windows.witness_readers(
            Window(w2.instance, w2.basepoint, w2.bound, w2.vertices, w2.neighbors))
    # a curve whose witness names another curve: read either way round
    liar = NormalCurve(w2.vertices[7], s5windows.parse_witness(w2.words[8]))
    for pair in ((liar, w2.vertices[0]), (w2.vertices[0], liar)):
        with pytest.raises(ValueError, match="is not"):
            intersection_number(*pair)
