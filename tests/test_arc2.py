from itertools import combinations

import pytest

from curvelab import arc2, s5windows
from curvelab.arc2 import (
    Arc2Vertex,
    arc_endpoints,
    arcs_disjoint,
    classify_triangle,
    epsilon_arc,
    fill_triangle,
    is_pentagon_set,
    pentagon_cycle,
)
from curvelab.curves import BASE_CURVES, BASE_CURVE_PAIRS, disjoint, intersection_number
from oracles import act
from curvelab.triangulation import BASE

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


def test_epsilon_arc_guards(w3):
    c1, c2 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[1])
    with pytest.raises(ValueError):
        epsilon_arc(c1, c2, w3)  # endpoint pairs {1,2} and {3,4} are disjoint


def test_epsilon_arc_avoids_endpoints(w3):
    c1, c4 = Arc2Vertex(BASE_CURVES[0]), Arc2Vertex(BASE_CURVES[3])
    eps = epsilon_arc(c1, c4, w3)
    union = c1.endpoints | c4.endpoints  # {1, 2, 3}
    assert not (eps.endpoints & union)
    assert arcs_disjoint(eps, c1) and arcs_disjoint(eps, c4)


def test_epsilon_arc_outside_window_is_undecided(w2, w3):
    # a bound-3 arc sharing an endpoint with c1, interior-disjoint from it
    c1 = Arc2Vertex(BASE_CURVES[0])
    beyond = [Arc2Vertex(s5windows.window_curve(w3, k))
              for k in range(len(w3)) if w3.vertices[k] not in w2]
    outside = next(a for a in beyond if a.endpoints & c1.endpoints and arcs_disjoint(a, c1))
    key = s5windows.curve_key_str(outside.curve.coords)
    for pair in ((c1, outside), (outside, c1)):
        with pytest.raises(ValueError) as exc:
            epsilon_arc(*pair, w2)
        assert str(exc.value) == f"arc {key} is not in the bound-2 window"
    # the pair itself is valid: in a window holding both arcs it is decided
    assert isinstance(epsilon_arc(c1, outside, w3), Arc2Vertex)


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
    from collections import Counter

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


def test_fill_deterministic(w2, w3):
    arcs = arcs_from(REPRESENTATIVES["case4"], w2)
    cfg = classify_triangle(arcs, w3)
    assert fill_triangle(cfg, w3) == fill_triangle(cfg, w3)


def test_pentagon_cycle_orders_the_cycle(w2):
    pent = s5windows.enumerate_pentagons(w2)[0]
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in pent]
    cyc = pentagon_cycle(arcs)
    for k in range(5):
        assert disjoint(cyc[k].curve, cyc[(k + 1) % 5].curve)


@pytest.mark.parametrize("sides", ["one-and-four", "three-sides"])
def test_arc_endpoints_raises_on_wrong_complement(monkeypatch, sides):
    # let a non-essential input through: a peripheral loop (sides of 1 and 4
    # punctures) or the two-component multicurve c1 + c2 (three sides)
    monkeypatch.setattr(arc2, "is_essential", lambda state, coords: True)
    if sides == "one-and-four":
        coords = BASE.peripheral_coords(1)
    else:
        coords = tuple(x + y for x, y in zip(BASE_CURVES[0].coords, BASE_CURVES[1].coords))
    with pytest.raises(RuntimeError):
        arc_endpoints.__wrapped__(coords)


def test_pentagon_cycle_raises_on_non_pentagon(w2):
    pent = s5windows.enumerate_pentagons(w2)[0]
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in pent]
    arcs[4] = arcs[0]
    with pytest.raises(RuntimeError):
        pentagon_cycle(arcs)


def test_fill_triangle_raises_on_invalid_cell(monkeypatch, w2, w3):
    cfg = classify_triangle(arcs_from(REPRESENTATIVES["case5"], w2), w3)
    good = arc2._four_pentagon_fill(cfg, w3)
    bad = [list(p) for p in good]
    bad[1][0] = bad[0][0] if bad[1][0] != bad[0][0] else bad[0][1]
    assert not is_pentagon_set(bad[1])
    monkeypatch.setattr(arc2, "_four_pentagon_fill", lambda config, w: bad)
    with pytest.raises(RuntimeError):
        fill_triangle(cfg, w3)
