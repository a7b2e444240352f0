from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab.curves import (
    BASE_CURVE_EDGES,
    BASE_CURVES,
    BASE_CURVE_PAIRS,
    intersection_number,
)
from curvelab.mcg import apply_word
from curvelab.triangulation import BASE
from oracles import (
    ReductionError,
    witness_disjoint,
    check_base_reductions,
    intersection,
    is_essential,
    peripheral_coords,
    reduce_to_boundary,
    run_flip_program,
)


def test_base_curves_are_five_distinct():
    assert len({c.coords for c in BASE_CURVES}) == 5


def test_base_pentagon_intersections():
    # consecutive pairs (sharing no punctures) disjoint, the rest meet twice
    for (i, a), (j, b) in combinations(enumerate(BASE_CURVES), 2):
        shared = set(BASE_CURVE_PAIRS[i]) & set(BASE_CURVE_PAIRS[j])
        expected = 0 if not shared else 2
        assert intersection_number(a, b) == expected


def test_intersection_symmetric():
    a, b = BASE_CURVES[0], BASE_CURVES[1]
    assert intersection_number(a, b) == intersection_number(b, a)


def test_self_intersection_zero():
    for c in BASE_CURVES:
        assert intersection_number(c, c) == 0
        assert not witness_disjoint(c, c)
        assert not witness_disjoint(c, c.coords)


def test_intersection_invariant_under_action():
    words = ["a", "ab", "rC", "abcd", "Dr", "bdA"]
    pairs = list(combinations(BASE_CURVES, 2))[:5]
    for w in words:
        for a, b in pairs:
            ia = apply_word(w, a.coords)
            ib = apply_word(w, b.coords)
            assert intersection(ia, ib) == intersection_number(a, b)


def test_half_twist_moves_transverse_curve():
    c1, c4 = BASE_CURVES[0], BASE_CURVES[3]
    img = apply_word("a", c4.coords)
    assert img != c4.coords
    assert intersection_number(img, c4) == 2
    assert intersection(img, c4) == 2


def test_base_curves_and_window_vertices_are_essential(w4):
    # NormalCurve checks nothing: every curve the program makes is an image
    # of a base curve, and the oracle confirms it on a whole window
    for c in BASE_CURVES:
        assert is_essential(BASE, c.coords)
    assert all(is_essential(BASE, v) for v in w4.vertices)


def test_intersection_accepts_raw_coords():
    # read through the witness of the other curve; two raw tuples have none
    a, b = BASE_CURVES[0], BASE_CURVES[3]
    assert intersection_number(a, b.coords) == intersection_number(a.coords, b) == 2
    with pytest.raises(ValueError, match="witness"):
        intersection_number(a.coords, b.coords)


@pytest.mark.parametrize("bad", [
    (1, 0, 0, 0, 0, 0, 0, 0, 0),  # odd triangle sum
    (-1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 1, 0, 1, 0),  # eight coordinates
    (4, 0, 0, 0, 0, 0, 0, 0, 0),  # corner count below zero
    (0,) * 9,  # no curve
    peripheral_coords(BASE, 1),  # a loop around a puncture
])
def test_intersection_rejects_invalid_raw_coords(bad):
    # the oracle intersection refuses a raw tuple that is not a curve
    c = BASE_CURVES[0]
    with pytest.raises(ValueError):
        intersection(bad, c)
    with pytest.raises(ValueError):
        intersection(c.coords, bad)


def test_base_reduction_check_raises_on_mismatch():
    # the base curves are their own reduced forms, which makes
    # i(g(c_k), x) = 2 * (g^-1 x)[e_k] the flip search's answer
    check_base_reductions(BASE_CURVE_EDGES)
    with pytest.raises(ReductionError):
        check_base_reductions(BASE_CURVE_EDGES[1:] + BASE_CURVE_EDGES[:1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flip_program_matches_triangulation_replay(w3, data):
    a = w3.vertices[data.draw(st.integers(0, len(w3) - 1), label="a")]
    b = w3.vertices[data.draw(st.integers(0, len(w3) - 1), label="b")]
    program, edge = reduce_to_boundary(a)
    state, cur_a, cur_b = BASE, a, b
    for e, *quad in program:
        assert tuple(quad) == state.flip_quad(e)
        cur_a, cur_b = state.flip_coords(e, cur_a), state.flip_coords(e, cur_b)
        state = state.flip(e)
    assert run_flip_program(program, b) == list(cur_b)
    assert run_flip_program(program, a) == list(cur_a)
    assert list(cur_a) == list(state.neighborhood_pattern(edge))
