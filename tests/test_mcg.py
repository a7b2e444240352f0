from itertools import combinations

from curvelab.curves import BASE_CURVES, intersection_number
from curvelab.mcg import (
    ATOMS,
    WORD_ALPHABET,
    apply_word,
    invert_word,
    puncture_permutation,
    reduce_word,
)
from curvelab.triangulation import BASE, run_flip_program
from oracles import HALF_TWIST_WORDS, RHO_WORD, act, intersection, orientation_parity

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


def test_atom_programs_match_triangulation_replay(w2):
    for letter, atom in ATOMS.items():
        for coords in w2.vertices:
            state, cur = BASE, coords
            for f in atom.flips:
                cur = state.flip_coords(f, cur)
                state = state.flip(f)
            assert run_flip_program(atom.program, coords) == list(cur), letter
