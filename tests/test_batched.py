"""The batched word action and the paths that map one word over many curves.

``mcg.apply_word_many`` maps each letter's kernel over a whole list.  The
window build, the relations suite and the S5 contract's ``images`` and
``displacement`` hooks use it wherever one word meets many curves; each is
checked here against a per-curve reference through ``mcg.apply_word``, and
a count shows that none of them calls ``apply_word`` one curve at a time.
"""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import curves, mcg, quotient, s5windows, suites
from curvelab.curves import BASE_CURVES
from curvelab.mcg import WORD_ALPHABET, apply_word, apply_word_many

WORDS = st.text(WORD_ALPHABET, max_size=8)
CURVES = st.lists(
    st.builds(apply_word, WORDS, st.sampled_from([c.coords for c in BASE_CURVES])),
    max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(WORDS, CURVES)
def test_apply_word_many_is_apply_word_on_each(word, coords):
    assert apply_word_many(word, coords) == [apply_word(word, c) for c in coords]


def test_apply_word_many_edge_cases():
    bases = [c.coords for c in BASE_CURVES]
    assert apply_word_many("", bases) == bases
    assert apply_word_many("abcd", []) == []
    assert apply_word_many("", iter(bases)) == bases  # any iterable, read once


def reference_relations(seed: int) -> dict:
    """``suites.check_relations`` applying each word to one curve at a time."""
    import random

    rng = random.Random(seed)
    coords = [c.coords for c in BASE_CURVES]
    while len(coords) < 5 + suites.RELATION_CURVES:
        word = "".join(rng.choice(WORD_ALPHABET)
                       for _ in range(rng.randint(1, suites.RELATION_WORD_LENGTH)))
        coords.append(apply_word(word, coords[rng.randrange(5)]))
    witnesses, eligible = [], 0
    for name, left, right in suites.RELATIONS:
        for c in coords:
            eligible += 1
            if apply_word(left, c) != apply_word(right, c):
                witnesses.append({"kind": name, "curve": list(c)})
    for i, base in enumerate(BASE_CURVES, start=1):
        eligible += 1
        if apply_word("r", base.coords) != base.coords:
            witnesses.append({"kind": "r-moves-base-curve", "curve": i})
    return {"suite": "relations", "status": "fail" if witnesses else "pass",
            "eligible": eligible, "truncated": 0, "witnesses": witnesses, "seed": seed}


@pytest.mark.parametrize("seed", range(4))
def test_relations_match_per_curve_reference(seed):
    assert suites.check_relations(seed) == reference_relations(seed)


def test_relations_match_per_curve_reference_on_a_false_relation(monkeypatch):
    # a and b do not commute, so the report fails, naming the same curves
    # in the same order as the reference
    monkeypatch.setattr(suites, "RELATIONS", (*suites.RELATIONS, ("commute-ab", "ab", "ba")))
    report = suites.check_relations(0)
    assert report["status"] == "fail" and report == reference_relations(0)


# the samples of the s5-verify menu of the benchmark (curvebench/workloads.py)
S5_MENU = [(2, "aaaa"), (2, "abab"), (2, "ac"), (3, ""), (3, "aa"), (3, "r"),
           (3, "bb,dd"), (3, "abc"), (3, "cdcd"), (3, "aaaa"), (3, "abab")]


def reference_images(w, word):
    index = w.index
    return [(i, index[u]) for i, u in enumerate(apply_word(word, v) for v in w.vertices)
            if u in index]


def reference_displacement(w, word, contract):
    # the least floor, and the first vertex where a certificate is exact at it
    best, first = None, None
    for i, v in enumerate(w.vertices):
        d, exact = contract.certificate(v, apply_word(word, v), w)
        if best is None or d < best:
            best, first = d, None
        if d == best and exact and first is None:
            first = i
    return best, first


@pytest.mark.parametrize("bound,sample", S5_MENU)
def test_contract_hooks_match_per_vertex_reference(bound, sample, w2, w3):
    w = {2: w2, 3: w3}[bound]
    contract = quotient.s5_contract()
    words = quotient.s5_sample(tuple(x for x in sample.split(",") if x))
    per_word = contract.displacement(w)
    for word in words:
        assert list(contract.images(w, word)) == reference_images(w, word)
        assert per_word(word) == reference_displacement(w, word, contract)


def test_batched_paths_make_no_one_curve_calls(monkeypatch):
    # every binding of apply_word in curvelab is counted by its caller.  The
    # one-curve callers remain: the window build checks each witness once
    # (curves.witness_reader), and a displacement certificate reads an
    # image outside the window off its vertex's witness (s5windows.adjacent)
    calls = Counter()
    real = mcg.apply_word

    def counting(word, coords):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(word, coords)

    for module in (mcg, curves, s5windows, quotient):
        monkeypatch.setattr(module, "apply_word", counting)
    w = s5windows.build_window(3)
    assert calls == {"witness_reader": len(w)}
    calls.clear()
    suites.check_relations(0)
    assert not calls
    contract = quotient.s5_contract()
    per_word = contract.displacement(w)
    words = ("aa", "AA", "r", "abc", "CBA")
    for word in words:
        list(contract.images(w, word))
    assert not calls
    for word in words:
        per_word(word)
    assert set(calls) == {"adjacent"}
