"""arc2's window reads against the scans they replaced, and the whole
triangle list of the bound-2 window.

``epsilon_arc`` takes its candidates from common window neighbours,
``_two_pentagon_fill`` takes its auxiliary arc from the common neighbours of
x0 and e12, and ``_four_pentagon_fill`` searches for an exact cover.  The
references below are the earlier implementations, kept as oracles: a scan of
every window vertex with curve-level tests, and a search over hexagon edges
that checks edge counts only at its leaves.  ``fill_triangle`` checks and
orders its cells on the window's rows and writes its records from the
window's tuples; every cell is checked here against the curve-level
``oracles.is_pentagon_set`` and ``oracles.pentagon_cycle``, and the records
against the curves they name.
"""

from collections import Counter
from itertools import combinations

import pytest

from curvelab import arc2, curves, s5windows
from curvelab.arc2 import Arc2Vertex, arcs_disjoint
from curvelab.curves import NormalCurve
from oracles import arc_endpoints, is_pentagon_set, pentagon_cycle
from test_arc2_fillings import TRIANGLES


def scan_epsilon_arc(x_i, x_j, w):
    """Every window vertex tested with ``arcs_disjoint`` (intersection numbers)."""
    candidates = []
    for k in range(len(w)):
        arc = Arc2Vertex(s5windows.window_curve(w, k))
        if arc.curve in (x_i.curve, x_j.curve):
            continue
        if arcs_disjoint(arc, x_i) and arcs_disjoint(arc, x_j):
            if not (arc.endpoints & (x_i.endpoints | x_j.endpoints)):
                candidates.append(arc)
    if len(candidates) != 1:
        raise ValueError(
            f"expected a unique epsilon arc, found {len(candidates)} in the window"
        )
    return candidates[0]


def scan_two_pentagon_fill(config, w):
    """Every window vertex tried as z, each 5-set tested with ``is_pentagon_set``."""
    loop = [Arc2Vertex(s5windows.window_curve(w, v)) for v in config.loop]
    arcs, epsilons = loop[0::2], loop[1::2]
    eps_of = {
        frozenset((0, 1)): epsilons[0],
        frozenset((1, 2)): epsilons[1],
        frozenset((0, 2)): epsilons[2],
    }
    used = {a.curve.coords for a in loop}
    solutions = []
    for pivot in range(3):
        o1, o2 = sorted({0, 1, 2} - {pivot})
        x0, x1, x2 = arcs[pivot], arcs[o1], arcs[o2]
        e01 = eps_of[frozenset((pivot, o1))]
        e12 = eps_of[frozenset((o1, o2))]
        e02 = eps_of[frozenset((pivot, o2))]
        for k in range(len(w)):
            if w.vertices[k] in used:
                continue
            z = Arc2Vertex(s5windows.window_curve(w, k))
            first = [x0, x1, z, e01, e12]
            second = [x0, x2, z, e02, e12]
            if is_pentagon_set(first) and is_pentagon_set(second):
                solutions.append((z.curve.coords, [first, second]))
    if not solutions:
        raise ValueError("no auxiliary arc closes the two pentagons in this window")
    return min(solutions)[1]


def leaf_checked_four_pentagon_fill(config, w):
    """Every pentagon through each uncovered hexagon edge, checked at the leaves."""
    hid = config.loop
    delta = {tuple(sorted((hid[i], hid[(i + 1) % 6]))) for i in range(6)}
    by_edge = s5windows.pentagons_by_edge(w)
    cands = sorted({p for e in delta for p in by_edge.get(e, ())})
    edges_of = [
        {tuple(sorted((p[i], p[(i + 1) % 5]))) for i in range(5)} for p in cands
    ]
    through = {e: [idx for idx, es in enumerate(edges_of) if e in es] for e in delta}
    order = sorted(delta)
    solutions = []

    def valid(chosen):
        count = Counter(e for idx in chosen for e in edges_of[idx])
        return all(c == (1 if e in delta else 2) for e, c in count.items())

    def dfs(i, chosen):
        if i == len(order):
            if len(chosen) == 4 and valid(chosen):
                solutions.append(tuple(sorted(cands[idx] for idx in chosen)))
            return
        e = order[i]
        if any(e in edges_of[idx] for idx in chosen):
            dfs(i + 1, chosen)
            return
        for idx in through[e]:
            if idx not in chosen and len(chosen) < 4:
                dfs(i + 1, chosen | {idx})

    dfs(0, frozenset())
    if not solutions:
        raise ValueError("no four-pentagon filling found in this window")
    return [[Arc2Vertex(s5windows.window_curve(w, v)) for v in p] for p in min(solutions)]


def window_ids(records, w):
    return [w.index[tuple(r["coords"])] for r in records]


def arc_ids(arcs, w):
    return [w.index[a.curve.coords] for a in arcs]


def record_arc(rec):
    """The arc a filling record names, carried by the curve its witness gives."""
    witness = (rec["witness"]["word"], rec["witness"]["base"])
    return Arc2Vertex(NormalCurve(tuple(rec["coords"]), witness))


def cycle_edges(cycle):
    return [frozenset((cycle[k - 1], cycle[k])) for k in range(len(cycle))]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def pairs(w2):
    """Interior-disjoint pairs of bound-2 arcs that share an endpoint."""
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in range(len(w2))]
    return [
        (a, b) for a, b in combinations(arcs, 2)
        if a.endpoints & b.endpoints and arcs_disjoint(a, b)
    ]


@pytest.fixture(scope="module")
def triangles(w2, pairs):
    """Every triangle of the bound-2 window: pairwise interior-disjoint arcs
    whose pairs all share an endpoint, in window order."""
    linked = {frozenset((a.curve.coords, b.curve.coords)) for a, b in pairs}
    arcs = [Arc2Vertex(s5windows.window_curve(w2, i)) for i in range(len(w2))]
    return [
        t for t in combinations(arcs, 3)
        if all(frozenset((a.curve.coords, b.curve.coords)) in linked
               for a, b in combinations(t, 2))
    ]


def recorded_triangles(w3, kinds=("case1", "case2", "case3", "case4", "case5",
                                 "undecided")):
    for arcs, kind, _ in TRIANGLES:
        if kind in kinds:
            yield tuple(
                Arc2Vertex(s5windows.window_curve(w3, w3.index[key]))
                for key in map(s5windows.parse_curve_key, arcs)
            )


def recorded(w3, kinds):
    for triangle in recorded_triangles(w3, kinds):
        yield arc2.classify_triangle(triangle, w3)


def test_epsilon_arc_matches_window_scan(w3, pairs):
    assert len(pairs) == 338
    found = 0
    for a, b in pairs:
        fast = outcome(arc2.epsilon_arc, w3, *arc_ids((a, b), w3))
        scan = outcome(scan_epsilon_arc, a, b, w3)
        assert fast == (scan if isinstance(scan, str) else arc_ids([scan], w3)[0])
        found += isinstance(fast, int)
    assert 0 < found < len(pairs)  # both outcomes are exercised


def test_two_pentagon_fill_matches_vertex_scan(w3):
    configs = list(recorded(w3, ("case2", "case4")))
    assert len(configs) == 20
    for config in configs:
        fast = arc2._two_pentagon_fill(config, w3)
        scan = scan_two_pentagon_fill(config, w3)
        assert [sorted(cell) for cell in fast] == [sorted(arc_ids(c, w3)) for c in scan]


def test_four_pentagon_fill_matches_leaf_checked_search(w3):
    configs = list(recorded(w3, ("case5",)))
    assert len(configs) == 6
    for config in configs:
        fast = arc2._four_pentagon_fill(config, w3)
        leaf = leaf_checked_four_pentagon_fill(config, w3)
        assert [list(cell) for cell in fast] == [arc_ids(c, w3) for c in leaf]


def test_every_triangle_classifies_and_fills(w3, triangles):
    pentagons = set(s5windows.enumerate_pentagons(w3))
    kinds = Counter()
    for triangle in triangles:
        try:
            config = arc2.classify_triangle(triangle, w3)
            filling = arc2.fill_triangle(config, w3)
        except ValueError:
            kinds["undecided"] += 1
            continue
        kinds[config.kind] += 1
        cells = [window_ids(cell, w3) for cell in filling["pentagons"]]
        assert all(s5windows.canonical_cycle(cell) in pentagons for cell in cells)
        if filling["cells"] == "tripod":
            continue
        boundary = window_ids(filling["boundary"], w3)
        hexagon = set(cycle_edges(boundary))
        covered = Counter(e for cell in cells for e in cycle_edges(cell))
        assert hexagon <= covered.keys()
        assert all(n == (1 if e in hexagon else 2) for e, n in covered.items())
        if config.kind == "case5":
            aux = Counter(v for cell in cells for v in cell if v not in boundary)
            assert sorted(aux.values()) == [2, 2, 2, 4]
    assert kinds == {"case1": 94, "case2": 308, "case3": 94, "case4": 290,
                     "case5": 76, "undecided": 120}
    assert sum(kinds.values()) == len(triangles) == 982


def fillings(w3, triangles):
    """The filling of every triangle that is decided in the bound-3 window."""
    for triangle in triangles:
        try:
            yield arc2.fill_triangle(arc2.classify_triangle(triangle, w3), w3)
        except ValueError:
            continue


def test_cells_are_curve_level_pentagons_in_cycle_order(w3, triangles):
    """Each cell, checked and ordered on window rows, is a chordless 5-cycle
    of curves under witness-read disjointness, in ``pentagon_cycle`` order;
    each record's witness gives its curve and its endpoints are the curve's."""
    cells, traced = 0, {}
    for filling in fillings(w3, [*recorded_triangles(w3), *triangles]):
        for cell in filling["pentagons"]:
            arcs = [record_arc(rec) for rec in cell]
            assert is_pentagon_set(arcs)
            assert tuple(arcs) == pentagon_cycle(arcs)
            cells += 1
        for rec in [*filling["boundary"], *(r for c in filling["pentagons"] for r in c)]:
            arc = record_arc(rec)
            assert set(rec) == {"coords", "witness", "endpoints"}
            assert rec["endpoints"] == sorted(arc.endpoints)
            coords = arc.curve.coords
            if coords not in traced:
                traced[coords] = arc_endpoints(coords)
            assert frozenset(rec["endpoints"]) == traced[coords]
    assert cells == 2 * (308 + 290) + 4 * 76 + 2 * (10 + 10) + 4 * 6


def test_fill_triangle_computes_no_intersection_number(monkeypatch, w3, triangles):
    """Cells are checked on window rows, so filling reads no intersection."""
    configs = []
    for triangle in [*recorded_triangles(w3), *triangles]:
        try:
            configs.append(arc2.classify_triangle(triangle, w3))
        except ValueError:
            continue
    calls = []
    real = curves.intersection_number

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (curves, arc2, s5windows):
        monkeypatch.setattr(module, "intersection_number", counting)
    kinds = Counter()
    for config in configs:
        arc2.fill_triangle(config, w3)
        kinds[config.kind] += 1
    assert calls == []
    assert sorted(kinds) == ["case1", "case2", "case3", "case4", "case5"]
