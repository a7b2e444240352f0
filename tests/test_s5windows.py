import gc
import json
import random
import weakref
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import s5windows
from curvelab.curves import BASE_CURVES, NormalCurve, intersection_number
from curvelab.mcg import WORD_ALPHABET, apply_word, puncture_permutation
from curvelab.s5windows import (
    build_window,
    canonical_cycle,
    detect_half_twists,
    enumerate_pentagons,
    parse_witness,
    puncture_pair,
    window_curve,
)
from curvelab.serialize import json_object
from curvelab.window import Window
from oracles import (
    act,
    arc_endpoints,
    check_rows,
    detected_curves,
    full_scan_window,
    half_twist_of,
    intersection,
    set_adjacency,
)

EXPECTED_SIZES = {0: (5, 5, 1), 1: (15, 25, 21), 2: (41, 85, 97)}


@pytest.fixture(scope="module")
def w1():
    return build_window(1)


def test_window_sizes(w2):
    for bound in (0, 1, 2):
        w = build_window(bound) if bound != 2 else w2
        nv, ne, np_ = EXPECTED_SIZES[bound]
        assert (len(w), len(w.edges), len(enumerate_pentagons(w))) == (nv, ne, np_)


def test_window_three_sizes(w3):
    assert (len(w3), len(w3.edges)) == (119, 283)
    assert len(enumerate_pentagons(w3)) == 379


def test_window_edges_are_disjointness(w2):
    for i, j in random.Random(7).sample(list(w2.edges), 20):
        a, b = window_curve(w2, i), window_curve(w2, j)
        assert intersection(a, b) == 0


def _oracle_mismatches(w, pairs):
    """Pairs whose window edge disagrees with the flip search's i == 0."""
    edges = set(w.edges)
    curves = [window_curve(w, i) for i in range(len(w))]
    return [
        (i, j) for i, j in pairs
        if ((i, j) in edges) != (intersection(curves[i], curves[j]) == 0)
    ]


def test_witness_edges_match_oracle_all_pairs(w3):
    assert _oracle_mismatches(w3, combinations(range(len(w3)), 2)) == []


def _acceptance_conjugators():
    # the words g of test_06 in test_acceptance, plus two fixed ones
    rng = random.Random(0)
    words = []
    for _ in range(10):
        words.append("".join(rng.choice(WORD_ALPHABET)
                             for _ in range(rng.randint(0, 3))))
    return sorted(set(words) | {"ab", "rC"})


@pytest.mark.parametrize("g", _acceptance_conjugators())
def test_witness_edges_match_oracle_moved_seeds(g):
    seeds = tuple(act(g, c) for c in BASE_CURVES)
    w = build_window(2, seeds=seeds)
    assert _oracle_mismatches(w, combinations(range(len(w)), 2)) == []
    assert w == full_scan_window(2, seeds)


@pytest.mark.parametrize("bound", range(5))
def test_build_window_matches_full_scan(bound):
    w = build_window(bound)
    check_rows(w)
    assert w == full_scan_window(bound)


def test_adjacent_curves_cut_off_disjoint_pairs(w4):
    # the pair build_window buckets a vertex by is the one the curve cuts off
    pairs = [arc_endpoints(v) for v in w4.vertices]
    for text, pair in zip(w4.words, pairs):
        assert puncture_pair(parse_witness(text)) == pair
    oracle = full_scan_window(4)
    assert oracle.vertices == w4.vertices
    assert not any(pairs[i] & pairs[j] for i, j in oracle.edges)


def test_inverse_puncture_labels_would_lose_edges(monkeypatch):
    def inverse_permutation(word):
        perm = puncture_permutation(word)
        return tuple(perm.index(v) + 1 for v in range(1, 6))

    monkeypatch.setattr(s5windows, "puncture_permutation", inverse_permutation)
    wrong, oracle = build_window(3), full_scan_window(3)
    assert set(wrong.edges) < set(oracle.edges)
    assert len(oracle.edges) - len(wrong.edges) == 64


def test_witness_edges_match_oracle_sampled_bound_four():
    w4 = build_window(4)
    rng = random.Random(4)
    pairs = rng.sample(list(combinations(range(len(w4)), 2)), 2000)
    pairs += rng.sample(list(w4.edges), 200)
    assert _oracle_mismatches(w4, pairs) == []


def test_build_window_rejects_wrong_seed_witness():
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    with pytest.raises(ValueError):
        build_window(1, seeds=(NormalCurve(c1.coords, ("", 3)), c3))
    with pytest.raises(ValueError):
        build_window(1, seeds=(NormalCurve(c1.coords, ("", 0)),))
    moved = act("ab", c1)
    with pytest.raises(ValueError):
        build_window(1, seeds=(NormalCurve(moved.coords, ("ba", 1)),))
    assert len(build_window(1, seeds=(moved,))) > 1


def test_window_words_witness_vertices(w2):
    for i in range(len(w2)):
        c = window_curve(w2, i)
        word, base = c.witness
        assert apply_word(word, BASE_CURVES[base - 1].coords) == c.coords


def test_window_json_roundtrip(w2):
    data = json.loads("".join(json_object(w2.json_fields(s5windows.curve_key_str))))
    back = Window.from_json(data, s5windows.parse_curve_key, s5windows.S5_INSTANCE)
    assert back == w2


def test_window_deterministic():
    assert build_window(1) == build_window(1)


def test_canonical_cycle():
    assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
    assert canonical_cycle((1, 3, 2)) == (1, 2, 3)
    assert canonical_cycle((5, 4, 3, 2, 1)) == (1, 2, 3, 4, 5)


def all_rotations_canonical(cycle):
    """The least of all rotations of the cycle and of its reversal."""
    seqs = (tuple(cycle), tuple(reversed(cycle)))
    return min(seq[s:] + seq[:s] for seq in seqs for s in range(len(seq)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_canonical_cycle_matches_all_rotations(cycle):
    # small entries repeat often, so the least entry occurs several times
    assert canonical_cycle(tuple(cycle)) == all_rotations_canonical(cycle)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=8))
def test_canonical_cycle_read_off_a_single_least_entry(cycle):
    # wider entries: mostly the least entry occurs once between distinct
    # neighbours, where the cycle is read off directly, with repeats still
    # drawn elsewhere, as a merged pentagon's class cycle repeats classes
    assert canonical_cycle(tuple(cycle)) == all_rotations_canonical(cycle)
    assert canonical_cycle(cycle) == all_rotations_canonical(cycle)  # a list too


def test_base_pentagon_is_the_unique_bound_zero_pentagon():
    w0 = build_window(0)
    pents = enumerate_pentagons(w0)
    assert len(pents) == 1
    coords = {w0.vertices[i] for i in pents[0]}
    assert coords == {c.coords for c in BASE_CURVES}


def test_pentagon_memos_live_on_their_window():
    w = build_window(1)
    pents, by_edge = enumerate_pentagons(w), s5windows.pentagons_by_edge(w)
    assert enumerate_pentagons(w) is pents
    assert s5windows.pentagons_by_edge(w) is by_edge
    other = build_window(1)  # equal to w, but its own memo
    assert enumerate_pentagons(other) == pents
    assert enumerate_pentagons(other) is not pents
    alive = weakref.ref(w)
    del w
    gc.collect()
    assert alive() is None  # no memo outside the window holds it


def test_pentagons_are_chordless(w2):
    adj = set_adjacency(w2)
    for pent in random.Random(3).sample(enumerate_pentagons(w2), 15):
        for k in range(5):
            assert pent[(k + 1) % 5] in adj[pent[k]]
            assert pent[(k + 2) % 5] not in adj[pent[k]]


def test_half_twist_of_guards():
    c1, c2 = BASE_CURVES[0], BASE_CURVES[1]
    with pytest.raises(ValueError):
        half_twist_of(c2, c1, 1)  # disjoint pair: i = 0
    c4 = BASE_CURVES[3]
    with pytest.raises(ValueError):
        half_twist_of(c4, c1, 2)


def test_half_twist_properties():
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    plus = half_twist_of(c3, c1, 1)
    minus = half_twist_of(c3, c1, -1)
    assert plus != minus
    for img in (plus, minus):
        assert intersection_number(img, c3) == 2
        assert intersection_number(img, c1) == 2


def test_half_twists_inverse_pair():
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    plus = half_twist_of(c3, c1, 1)
    back = half_twist_of(c3, plus, -1)
    assert back == c1


def test_detection_on_base_pair(w2):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    expected = {half_twist_of(c3, c1, 1), half_twist_of(c3, c1, -1)}
    assert detected_curves(c1, c3, w2) == expected


def test_detection_stable_under_larger_window(w2, w3):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    assert detected_curves(c1, c3, w2) == detected_curves(c1, c3, w3)


def test_detection_swapped_by_reflection(w2):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    detected = detected_curves(c1, c3, w2)
    reflected = {act("r", g) for g in detected}
    assert reflected == detected
    assert act("r", half_twist_of(c3, c1, 1)) == half_twist_of(c3, c1, -1)


@pytest.mark.parametrize("g", ["ab", "rC", *WORD_ALPHABET])
def test_detection_equivariant(w2, g):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    base = detected_curves(c1, c3, w2)
    seeds = tuple(act(g, c) for c in BASE_CURVES)
    w = build_window(2, seeds=seeds)
    moved = detected_curves(act(g, c1), act(g, c3), w)
    assert moved == {act(g, x) for x in base}


def test_detection_entry_over_bound_two_window(w2):
    # every ordered pair: refused unless i(alpha, beta) = 2, and otherwise
    # nothing but H_beta(alpha) and H_beta^-1(alpha) is ever detected
    curves = [window_curve(w2, i) for i in range(len(w2))]
    refused = detected = whole = 0
    for ia, ib in permutations(range(len(w2)), 2):
        alpha, beta = curves[ia], curves[ib]
        if intersection(alpha, beta) != 2:
            with pytest.raises(ValueError, match=r"needs i\(alpha, beta\) = 2"):
                detect_half_twists(w2, ia, ib)
            refused += 1
            continue
        pair = {half_twist_of(beta, alpha, s).coords for s in (1, -1)}
        found = {w2.vertices[g] for g in detect_half_twists(w2, ia, ib)}
        assert found <= pair, (ia, ib)
        detected += bool(found)
        whole += found == pair
    # 582 pairs meet twice; 174 of the refused ones used to detect curves
    assert (refused, detected, whole) == (1058, 434, 94)


def test_detection_pattern_is_the_unique_reading(w2, monkeypatch):
    c1, c3 = BASE_CURVES[0], BASE_CURVES[2]
    ia, ib = w2.index[c1.coords], w2.index[c3.coords]
    expected = {w2.index[half_twist_of(c3, c1, s).coords] for s in (1, -1)}
    positions = ("near_gamma", "near_delta", "opposite")
    readings = []
    for pattern in ((a, b) for a in positions for b in positions):
        monkeypatch.setattr(s5windows, "DETECTION_PATTERN", pattern)
        if s5windows.detect_half_twist_indices(w2, ia, ib) == expected:
            readings.append(pattern)
    assert readings == [("near_delta", "near_delta")]


def test_witness_word_parsing():
    assert s5windows.parse_witness("ab.c3") == ("ab", 3)
    assert s5windows.parse_witness("c5") == ("", 5)
    assert s5windows.witness_str(("ab", 3)) == "ab.c3"
    assert s5windows.witness_str(("", 5)) == "c5"


def test_positions_raise_unless_given_a_pentagon_edge():
    pent = (0, 1, 2, 3, 4)
    assert s5windows._positions(pent, 0, 4)["near_delta"] == {3}
    with pytest.raises(RuntimeError):
        s5windows._positions(pent, 0, 2)


def _pentagons_by_canonical_set(w):
    """Reference enumeration: each chordless 5-cycle is walked in both
    directions from its least vertex, canonicalised into a set, sorted."""
    adj = set_adjacency(w)
    pentagons = set()
    for v0 in range(len(w)):
        for v1 in adj[v0]:
            if v1 < v0:
                continue
            for v2 in adj[v1]:
                if v2 <= v0 or v2 in adj[v0]:
                    continue
                for v3 in adj[v2]:
                    if v3 <= v0 or v3 in adj[v0] or v3 in adj[v1] or v3 == v1:
                        continue
                    for v4 in adj[v3] & adj[v0]:
                        if v4 <= v0 or v4 in adj[v1] or v4 in adj[v2]:
                            continue
                        pentagons.add(canonical_cycle((v0, v1, v2, v3, v4)))
    return sorted(pentagons)


@pytest.mark.parametrize("bound,sample", [
    (2, None), (3, None), (4, None), (3, "aa"), (3, "abc"),
])
def test_pentagons_match_canonical_set_enumeration(w3, bound, sample):
    from curvelab import quotient

    g = w3 if bound == 3 else build_window(bound)
    if sample is not None:
        words = quotient.s5_sample((sample,))
        g = quotient.build_quotient(g, words, quotient.s5_contract()).graph
    pents = enumerate_pentagons(g)
    assert pents == _pentagons_by_canonical_set(g)
    assert all(canonical_cycle(p) == p for p in pents)
