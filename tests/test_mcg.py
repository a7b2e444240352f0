from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab.curves import BASE_CURVES, intersection_number
from curvelab.mcg import (
    ATOMS,
    WORD_ALPHABET,
    apply_word,
    invert_word,
    puncture_permutation,
    reduce_word,
)
from curvelab.suites import RELATIONS
from oracles import (
    CONJUGATED_ATOMS,
    CONJUGATED_HALF_TWISTS,
    HALF_TWIST_WORDS,
    RHO_ATOM,
    RHO_WORD,
    act,
    conjugated_apply_word,
    intersection,
    orientation_parity,
    replay_atom,
    replay_word,
    same_mapping_class,
    word_atom,
)

SAMPLE = [c.coords for c in BASE_CURVES] + [
    apply_word(w, BASE_CURVES[0].coords) for w in ("ab", "cD", "rba", "abcd")
]


def same_action(w1: str, w2: str) -> bool:
    return all(apply_word(w1, c) == apply_word(w2, c) for c in SAMPLE)


def test_word_inversion():
    assert invert_word("abR".lower()) == "rBA"
    for w in ("a", "abC", "rdrD"):
        assert same_action(w + invert_word(w), "")


def test_reduce_word():
    assert reduce_word("aA") == ""
    assert reduce_word("abBA") == ""
    assert reduce_word("arrA") == ""
    assert reduce_word("abc") == "abc"


def test_generator_inverses():
    for letter in "abcd":
        assert same_action(letter + letter.upper(), "")
        assert same_action(letter.upper() + letter, "")


def test_reflection_involution():
    assert same_action("rr", "")


def test_reflection_fixes_base_curves():
    for c in BASE_CURVES:
        assert apply_word("r", c.coords) == c.coords


def test_reflection_conjugates_to_inverse():
    for letter in "abcd":
        assert same_action("r" + letter + "r", letter.upper())


def test_braid_relations():
    for x, y in (("a", "b"), ("b", "c"), ("c", "d")):
        assert same_action(x + y + x, y + x + y)


def test_far_commutation():
    for x, y in (("a", "c"), ("a", "d"), ("b", "d")):
        assert same_action(x + y, y + x)


def test_puncture_permutations():
    assert puncture_permutation("a") == (2, 1, 3, 4, 5)
    assert puncture_permutation("b") == (1, 3, 2, 4, 5)
    assert puncture_permutation("r") == (1, 2, 3, 4, 5)
    assert puncture_permutation(RHO_WORD) == (2, 3, 4, 5, 1)


def test_rho_cycles_base_pentagon():
    # rho advances the disk around punctures {i, i+1} to {i+1, i+2}
    images = {apply_word(RHO_WORD, c.coords) for c in BASE_CURVES}
    assert images == {c.coords for c in BASE_CURVES}
    assert apply_word(RHO_WORD, BASE_CURVES[0].coords) == BASE_CURVES[3].coords


def test_half_twist_words_fix_their_curve():
    for j, word in HALF_TWIST_WORDS.items():
        c = BASE_CURVES[j - 1]
        assert apply_word(word, c.coords) == c.coords
        perm = puncture_permutation(word)
        from curvelab.curves import BASE_CURVE_PAIRS

        u, v = BASE_CURVE_PAIRS[j - 1]
        assert perm[u - 1] == v and perm[v - 1] == u
        assert all(perm[p - 1] == p for p in range(1, 6) if p not in (u, v))


def test_action_preserves_intersections():
    for w in ("ab", "rcD", "abcd"):
        for a, b in combinations(BASE_CURVES, 2):
            assert intersection(
                apply_word(w, a.coords), apply_word(w, b.coords)
            ) == intersection_number(a, b)


def test_act_extends_witness():
    c = act("ab", BASE_CURVES[0])
    assert c.witness == ("ab", 1)
    back = act("BA", c)
    assert back == BASE_CURVES[0]
    assert back.witness == ("", 1)


def test_orientation_parity():
    assert orientation_parity("abcd") == 1
    assert orientation_parity("rab") == -1
    assert orientation_parity("rr") == 1


def test_alphabet_closed_under_inverse():
    assert set(invert_word(WORD_ALPHABET)) == set(WORD_ALPHABET)
    assert set(ATOMS) == set(WORD_ALPHABET)


def test_kernels_match_triangulation_replay(w4):
    for letter, atom in ATOMS.items():
        for coords in w4.vertices:
            assert atom.kernel(coords) == replay_atom(atom, coords), letter


# words mixing single letters with the pseudo-Anosov aBcD, whose powers
# grow the coordinates about fourfold a repeat: (aBcD)^8 c1 reaches 122,359
GROWING_WORDS = st.lists(st.sampled_from([*WORD_ALPHABET, "aBcD"]),
                         max_size=16).map("".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(GROWING_WORDS, st.sampled_from(BASE_CURVES))
def test_kernels_match_triangulation_replay_on_random_curves(word, base):
    # the curve comes from the replay alone, so a wrong kernel cannot
    # choose the curves it is checked on
    coords = replay_word(word, base.coords)
    assert apply_word(word, base.coords) == coords
    for letter, atom in ATOMS.items():
        assert atom.kernel(coords) == replay_atom(atom, coords), letter


def test_flip_counts():
    counts = {letter: len(atom.flips) for letter, atom in ATOMS.items()}
    assert counts == {"a": 4, "A": 4, "b": 2, "B": 2, "c": 4, "C": 4,
                      "d": 2, "D": 2, "r": 0}


@pytest.mark.parametrize("letter", "abcd")
def test_half_twist_certified_by_conjugation(letter):
    # Equal puncture permutations and equal images of c1, c2 and c4 make
    # two orientation-preserving atoms one mapping class: their quotient is
    # pure and fixes {c1, c2}, so it is T_c1^m T_c2^n, and it moves c4 unless
    # m = n = 0, as i(T_c1^m T_c2^n(c4), c4) >= 4|m| + 4|n|.
    assert same_mapping_class(ATOMS[letter], CONJUGATED_HALF_TWISTS[letter])


def test_rho_word_is_the_rotation():
    assert same_mapping_class(word_atom(RHO_WORD), RHO_ATOM)


def test_letters_match_conjugation_on_bound_four(w4):
    for letter in WORD_ALPHABET:
        atom = CONJUGATED_ATOMS[letter]
        for coords in w4.vertices:
            assert apply_word(letter, coords) == replay_atom(atom, coords), letter


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=WORD_ALPHABET, max_size=8), st.sampled_from(BASE_CURVES))
def test_relations_and_letters_on_random_curves(word, base):
    coords = apply_word(word, base.coords)
    for name, left, right in RELATIONS:
        assert apply_word(left, coords) == apply_word(right, coords), name
    for letter in WORD_ALPHABET:
        assert apply_word(letter, coords) == conjugated_apply_word(letter, coords)
