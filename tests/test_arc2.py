from collections import Counter
from itertools import combinations

import pytest

import oracles
from curvelab import arc2, s5windows
from curvelab.arc2 import (
    Arc2Vertex,
    arcs_disjoint,
    classify_triangle,
    epsilon_arc,
    fill_triangle,
)
from curvelab.curves import BASE_CURVES, BASE_CURVE_PAIRS, NormalCurve, intersection_number
from oracles import (BASE, act, arc_endpoints, is_pentagon_set, pentagon_cycle,
                     witness_disjoint)
from curvelab.window import Window

# One representative triple of arcs (by curve coordinates) per configuration
# class, all drawn from the word-bound-2 window.
REPRESENTATIVES = {
    "case1": (
        (0, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 1, 1, 1),
        (0, 1, 1, 1, 1, 1, 0, 1, 2),
    ),
    "case2": (
        (0, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 1, 1, 1),
        (1, 0, 1, 1, 1, 1, 0, 1, 2),
    ),
    "case3": (
        (0, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 1, 1, 1),
        (0, 1, 2, 1, 2, 1, 1, 1, 3),
    ),
    "case4": (
        (0, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 1, 1, 1),
        (2, 1, 2, 1, 0, 1, 1, 3, 1),
    ),
    "case5": (
        (0, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1, 0, 3, 2),
    ),
    "case5-all-equal": (
        (0, 1, 0, 1, 0, 1, 1, 1, 1),
        (0, 1, 2, 1, 2, 1, 1, 1, 3),
        (2, 1, 2, 1, 0, 3, 1, 1, 1),
    ),
}

EXPECTED_PENTAGON_COUNTS = {
    "case1": 0,
    "case2": 2,
    "case3": 0,
    "case4": 2,
    "case5": 4,
    "case5-all-equal": 4,
}


def arcs_from(coords_triple, w):
    return tuple(Arc2Vertex(s5windows.window_curve(w, w.index[c])) for c in coords_triple)


def test_base_curve_endpoints():
    for c, pair in zip(BASE_CURVES, BASE_CURVE_PAIRS):
        assert arc_endpoints(c.coords) == frozenset(pair)
        assert Arc2Vertex(c).endpoints == frozenset(pair)


def test_arc_endpoints_equivariant():
    for word in ("ab", "rC", "cd"):
        from curvelab.mcg import puncture_permutation

        perm = puncture_permutation(word)
        for c in BASE_CURVES:
            image = act(word, c)
            expected = frozenset(perm[p - 1] for p in arc_endpoints(c.coords))
            assert arc_endpoints(image.coords) == expected


def test_disjoint_arcs_have_distinct_pairs(w2):
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in range(len(w2))]
    for a, b in combinations(arcs[:15], 2):
        if arcs_disjoint(a, b) and len(a.endpoints & b.endpoints) == 0:
            assert intersection_number(a.curve, b.curve) == 0


def test_arcs_disjoint_matches_intersection():
    c1, c4 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[3])
    # share puncture 2; curves meet twice, so the arcs only meet at the end
    assert arcs_disjoint(c1, c4)
    assert not arcs_disjoint(c1, c1)


def test_classification_guards(w2, w3):
    c1, c2, c4 = (Arc2Vertex(BASE_CURVES[k]) for k in (0, 1, 3))
    # endpoint pairs {1,2} and {3,4} are disjoint: that pair needs no epsilon arc
    with pytest.raises(ValueError) as exc:
        classify_triangle((c1, c2, c4), w3)
    assert str(exc.value) == (
        "a pair of arcs with distinct endpoints spans a single pentagon; "
        "only triples whose pairs all share an endpoint are classified")
    # the case5 representative's third arc crosses c1, not c4, and meets c4
    # at an endpoint
    crossing = Arc2Vertex(s5windows.window_curve(w2, w2.index[REPRESENTATIVES["case5"][2]]))
    assert crossing.endpoints & c4.endpoints and arcs_disjoint(crossing, c4)
    with pytest.raises(ValueError) as exc:
        classify_triangle((c1, c4, crossing), w3)
    assert str(exc.value) == "triangle arcs must have pairwise disjoint interiors"


def test_epsilon_arc_avoids_endpoints(w3):
    c1, c4 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[3])
    k = epsilon_arc(w3, w3.index[c1.curve.coords], w3.index[c4.curve.coords])
    eps = Arc2Vertex(s5windows.window_curve(w3, k))
    union = c1.endpoints | c4.endpoints  # {1, 2, 3}
    assert not (eps.endpoints & union)
    assert arcs_disjoint(eps, c1) and arcs_disjoint(eps, c4)


def test_epsilon_arc_outside_window_is_undecided(w2, w3):
    # a triangle of bound-3 arcs whose third arc is beyond the bound-2 window;
    # the first two have no epsilon arc in the bound-2 window
    inside = arcs_from(((0, 1, 0, 1, 0, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1, 0, 3, 2)), w2)
    outside = Arc2Vertex(s5windows.window_curve(w3, w3.index[(2, 0, 1, 2, 1, 2, 1, 2, 3)]))
    assert outside.curve.coords not in w2.index
    with pytest.raises(ValueError, match="expected a unique epsilon arc"):
        epsilon_arc(w2, *(w2.index[a.curve.coords] for a in inside))
    key = s5windows.curve_key_str(outside.curve.coords)
    for k in range(3):
        triangle = list(inside)
        triangle.insert(k, outside)
        with pytest.raises(ValueError) as exc:
            classify_triangle(tuple(triangle), w2)
        # all three arcs are located before any epsilon arc is looked for
        assert str(exc.value) == f"arc {key} is not in the bound-2 window"
    # the arcs themselves are valid: a window holding them decides the pairs
    i, j = w3.index[inside[0].curve.coords], w3.index[outside.curve.coords]
    assert isinstance(epsilon_arc(w3, i, j), int)


def test_arc_without_witness_is_undecided():
    curve = NormalCurve(BASE_CURVES[0].coords)
    with pytest.raises(ValueError) as exc:
        Arc2Vertex(curve)
    key = s5windows.curve_key_str(curve.coords)
    assert str(exc.value) == f"arc {key} has no witness word"


@pytest.mark.parametrize("label", sorted(REPRESENTATIVES))
def test_classification_reads_each_pair_once(monkeypatch, label, w2, w3):
    # window arcs: each guard pair is read once off the window's witness
    # readers, and no intersection number is computed from the curves
    arcs = arcs_from(REPRESENTATIVES[label], w2)
    calls = Counter()

    def counting(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    for name in ("apply_word", "intersection_number", "epsilon_arc"):
        monkeypatch.setattr(arc2, name, counting(name, getattr(arc2, name)))
    classify_triangle(arcs, w3)
    assert calls == {"apply_word": 3, "epsilon_arc": 3}
    assert calls["intersection_number"] == 0


def test_outside_arc_still_meets_the_disjointness_guard(w2, w3):
    # an arc beyond the bound-2 window crossing c1: the curve-level guard
    # refuses the triangle before the arc is found missing from the window
    c1, c4 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[3])
    outside = Arc2Vertex(s5windows.window_curve(w3, w3.index[(2, 0, 1, 2, 1, 2, 1, 2, 3)]))
    assert outside.curve.coords not in w2.index
    assert not arcs_disjoint(c1, outside) and arcs_disjoint(c4, outside)
    for k in range(3):
        triangle = [c1, c4]
        triangle.insert(k, outside)
        with pytest.raises(ValueError) as exc:
            classify_triangle(tuple(triangle), w2)
        assert str(exc.value) == "triangle arcs must have pairwise disjoint interiors"


@pytest.mark.parametrize("label", sorted(REPRESENTATIVES))
def test_classification(label, w2, w3):
    arcs = arcs_from(REPRESENTATIVES[label], w2)
    cfg = classify_triangle(arcs, w3)
    assert cfg.kind == label.split("-")[0]


def test_classification_rejects_non_triangle(w3):
    c1, c2 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[1])
    c3 = Arc2Vertex(BASE_CURVES[2])
    with pytest.raises(ValueError):
        classify_triangle((c1, c1, c2), w3)
    # c1, c2 share no endpoint: triple falls outside the classified cases
    with pytest.raises(ValueError):
        classify_triangle((c1, c2, c3), w3)


@pytest.mark.parametrize("label", sorted(REPRESENTATIVES))
def test_fillings(label, w2, w3):
    arcs = arcs_from(REPRESENTATIVES[label], w2)
    cfg = classify_triangle(arcs, w3)
    out = fill_triangle(cfg, w3)
    assert len(out["pentagons"]) == EXPECTED_PENTAGON_COUNTS[label]
    if out["cells"] == "tripod":
        assert out["center"] is not None
    for pent in out["pentagons"]:
        arcs = [Arc2Vertex(s5windows.window_curve(w3, w3.index[tuple(a["coords"])]))
                for a in pent]
        assert is_pentagon_set(arcs)


def test_four_pentagon_fill_structure(w2, w3):
    arcs = arcs_from(REPRESENTATIVES["case5"], w2)
    cfg = classify_triangle(arcs, w3)
    out = fill_triangle(cfg, w3)
    boundary = {tuple(a["coords"]) for a in out["boundary"]}
    counts = Counter(
        tuple(a["coords"]) for pent in out["pentagons"] for a in pent
    )
    # four auxiliary arcs: a hub in all four pentagons, three others in two
    aux = sorted(v for k, v in counts.items() if k not in boundary)
    assert aux == [2, 2, 2, 4]
    # every boundary arc appears, each in one or two pentagons
    assert all(counts[b] in (1, 2) for b in boundary)


def test_window_without_words_keeps_the_error_order(w2, w3):
    # the guards read the arcs' own curves; only the epsilon search needs words
    bare = Window(w3.instance, w3.basepoint, w3.bound, w3.vertices, w3.neighbors)
    c1, c4 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[3])
    crossing = arcs_from(REPRESENTATIVES["case5"][2:], w2)[0]
    with pytest.raises(ValueError) as exc:
        classify_triangle((c1, c4, crossing), bare)
    assert str(exc.value) == "triangle arcs must have pairwise disjoint interiors"
    with pytest.raises(ValueError) as exc:
        classify_triangle(arcs_from(REPRESENTATIVES["case1"], w2), bare)
    assert str(exc.value) == s5windows.NO_WORDS


def test_records_are_written_fresh_and_keep_no_table():
    # a fresh window, so that no other test's tables are on it
    w = s5windows.build_window(1)
    tables = set(w.__dict__)
    first = arc2.record(w, 0)
    first["endpoints"].append(0)
    first["witness"]["word"] = "x"
    witness = s5windows.parse_witness(w.words[0])
    assert arc2.record(w, 0) == {
        "coords": list(w.vertices[0]),
        "witness": dict(zip(("word", "base"), witness)),
        "endpoints": sorted(s5windows.puncture_pair(witness)),
    }
    for v in range(len(w)):
        arc2.record(w, v)
    assert set(w.__dict__) == tables  # read off the handed-over tables alone


def test_fill_deterministic(w2, w3):
    arcs = arcs_from(REPRESENTATIVES["case4"], w2)
    cfg = classify_triangle(arcs, w3)
    assert fill_triangle(cfg, w3) == fill_triangle(cfg, w3)


def test_pentagon_cycle_orders_the_cycle(w2):
    pent = s5windows.enumerate_pentagons(w2)[0]
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in pent]
    cyc = pentagon_cycle(arcs)
    for k in range(5):
        assert witness_disjoint(cyc[k].curve, cyc[(k + 1) % 5].curve)


@pytest.mark.parametrize("sides", ["one-and-four", "three-sides"])
def test_arc_endpoints_raises_on_wrong_complement(monkeypatch, sides):
    # let a non-essential input through: a peripheral loop (sides of 1 and 4
    # punctures) or the two-component multicurve c1 + c2 (three sides)
    monkeypatch.setattr(oracles, "is_essential", lambda state, coords: True)
    if sides == "one-and-four":
        coords = oracles.peripheral_coords(BASE, 1)
    else:
        coords = tuple(x + y for x, y in zip(BASE_CURVES[0].coords, BASE_CURVES[1].coords))
    with pytest.raises(RuntimeError):
        arc_endpoints(coords)


def test_pentagon_cycle_raises_on_non_pentagon(w2):
    pent = s5windows.enumerate_pentagons(w2)[0]
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in pent]
    arcs[4] = arcs[0]
    with pytest.raises(RuntimeError):
        pentagon_cycle(arcs)


def test_cells_must_be_chordless_five_cycles():
    # rows of the 5-cycle 0 1 2 3 4, and of the same cycle with the chord 0-2
    ring = ((1, 4), (0, 2), (1, 3), (2, 4), (0, 3))
    chord = ((1, 2, 4), (0, 2), (0, 1, 3), (2, 4), (0, 3))
    for cycle in ((2, 3, 4, 0, 1), (3, 2, 1, 0, 4)):
        assert arc2._pentagon(cycle, ring) == (0, 1, 2, 3, 4)
    for cycle, rows in (((0, 1, 2, 3, 4), chord), ((0, 2, 1, 3, 4), ring),
                        ((0, 1, 2, 3, 3), ring)):
        with pytest.raises(RuntimeError):
            arc2._pentagon(cycle, rows)


def test_fill_triangle_raises_on_invalid_cell(monkeypatch, w2, w3):
    cfg = classify_triangle(arcs_from(REPRESENTATIVES["case5"], w2), w3)
    good = arc2._four_pentagon_fill(cfg, w3)
    bad = [list(p) for p in good]
    bad[1][0] = bad[0][0] if bad[1][0] != bad[0][0] else bad[0][1]
    assert not is_pentagon_set([Arc2Vertex(s5windows.window_curve(w3, v)) for v in bad[1]])
    monkeypatch.setattr(arc2, "_four_pentagon_fill", lambda config, w: bad)
    with pytest.raises(RuntimeError):
        fill_triangle(cfg, w3)
