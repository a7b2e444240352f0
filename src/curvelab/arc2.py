"""The arc complex of arcs between distinct punctures on S_{0,5}.

Every essential curve cuts the sphere into a twice-punctured and a
thrice-punctured side; sending the curve to the unique arc joining the two
punctures inside the disk it bounds is a bijection onto arcs with distinct
endpoints, and two arcs have disjoint interiors exactly when their curves
satisfy i(curve, curve') = 2 * (number of shared endpoints).

Triangles of pairwise interior-disjoint arcs whose pairs all share an
endpoint fall into five configuration classes; fillTriangle produces the
tripod or pentagon fillings of the classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .curves import NormalCurve, disjoint, intersection_number
from .window import Window
from . import s5windows


@dataclass(frozen=True)
class Arc2Vertex:
    """An arc between two distinct punctures, carried by its curve.

    The curve must carry a witness word that gives it, as every window
    curve does: the arc's endpoints are read off the witness.
    """

    curve: NormalCurve

    @property
    def endpoints(self) -> frozenset[int]:
        return s5windows.puncture_pair(self.curve.witness)

    def __lt__(self, other: "Arc2Vertex"):
        return self.curve.coords < other.curve.coords

    def to_json(self) -> dict:
        rec = self.curve.to_json()
        rec["endpoints"] = sorted(self.endpoints)
        return rec


def arcs_disjoint(a: Arc2Vertex, b: Arc2Vertex) -> bool:
    """Interior-disjointness of the arcs, decided on the curve side."""
    if a.curve == b.curve:
        return False
    shared = len(a.endpoints & b.endpoints)
    return intersection_number(a.curve, b.curve) == 2 * shared


def _vertex(w: Window, arc: Arc2Vertex) -> int:
    """The window index of the arc's curve; an arc outside w is undecided."""
    if arc.curve.coords not in w.index:
        key = s5windows.curve_key_str(arc.curve.coords)
        raise ValueError(f"arc {key} is not in the bound-{w.bound} window")
    return w.index[arc.curve.coords]


def epsilon_arc(x_i: Arc2Vertex, x_j: Arc2Vertex, w: Window) -> Arc2Vertex:
    """The unique arc with distinct endpoints in the complement of the two.

    The inputs must be interior-disjoint and share at least one endpoint
    (arcs with disjoint endpoint pairs are directly adjacent and need no
    connector).  An arc sharing no endpoint with another is interior-disjoint
    from it exactly when their curves are disjoint: the candidates are the
    common window neighbours avoiding both endpoint pairs, and must be unique.
    """
    if not arcs_disjoint(x_i, x_j):
        raise ValueError("epsilon arc needs interior-disjoint arcs")
    if not x_i.endpoints & x_j.endpoints:
        raise ValueError("arcs with distinct endpoints are adjacent; no epsilon arc")
    i, j = _vertex(w, x_i), _vertex(w, x_j)
    taken = x_i.endpoints | x_j.endpoints
    pair = s5windows.puncture_pair
    near_j = set(w.neighbors[j])
    candidates = [k for k in w.neighbors[i] if k in near_j
                  and not pair(s5windows.parse_witness(w.words[k])) & taken]
    if len(candidates) != 1:
        raise ValueError(
            f"expected a unique epsilon arc, found {len(candidates)} in the window"
        )
    return Arc2Vertex(s5windows.window_curve(w, candidates[0]))


def is_pentagon_set(arcs: list[Arc2Vertex]) -> bool:
    """Five distinct curves forming a chordless 5-cycle under disjointness."""
    if len({a.curve.coords for a in arcs}) != 5:
        return False
    deg = [0] * 5
    edges = 0
    for (i, a), (j, b) in combinations(enumerate(arcs), 2):
        if disjoint(a.curve, b.curve):
            deg[i] += 1
            deg[j] += 1
            edges += 1
    return edges == 5 and all(d == 2 for d in deg)


def pentagon_cycle(arcs: list[Arc2Vertex]) -> tuple[Arc2Vertex, ...]:
    """Order five pentagon vertices along their cycle, canonically."""
    if not is_pentagon_set(arcs):
        raise RuntimeError("pentagon_cycle needs a chordless 5-cycle")
    arcs = sorted(arcs)
    order = [arcs[0]]
    rest = arcs[1:]
    while rest:
        nxt = min(a for a in rest if disjoint(order[-1].curve, a.curve))
        order.append(nxt)
        rest.remove(nxt)
    return tuple(order)


@dataclass(frozen=True)
class TriangleConfig:
    """A classified triangle of pairwise interior-disjoint arcs.

    The five kinds, by endpoint-sharing pattern of the arc pair-counts and
    coincidence of the epsilon connectors:
      case1 — cyclic sharing through three punctures, epsilons coincide
      case2 — star: all three arcs share one common puncture
      case3 — one pair shares both endpoints, epsilons coincide
      case4 — one pair shares both endpoints, epsilons distinct
      case5 — epsilons pairwise distinct with no short-cut adjacency (cyclic
              sharing with the spare punctures separated, or all three arcs
              joining the same pair); filled by four pentagons
    """

    arcs: tuple[Arc2Vertex, Arc2Vertex, Arc2Vertex]
    kind: str
    epsilons: tuple[Arc2Vertex, Arc2Vertex, Arc2Vertex]  # e01, e12, e02


def classify_triangle(
    arcs: tuple[Arc2Vertex, Arc2Vertex, Arc2Vertex], w: Window
) -> TriangleConfig:
    if len({a.curve.coords for a in arcs}) != 3:
        raise ValueError("triangle requires three distinct arcs")
    for a, b in combinations(arcs, 2):
        if not arcs_disjoint(a, b):
            raise ValueError("triangle arcs must have pairwise disjoint interiors")
    sharing = sorted(len(a.endpoints & b.endpoints) for a, b in combinations(arcs, 2))
    if 0 in sharing:
        raise ValueError(
            "a pair of arcs with distinct endpoints spans a single pentagon; "
            "only triples whose pairs all share an endpoint are classified"
        )
    x0, x1, x2 = arcs
    eps = (epsilon_arc(x0, x1, w), epsilon_arc(x1, x2, w), epsilon_arc(x0, x2, w))
    coincide = len({e.curve.coords for e in eps}) == 1
    punctures = frozenset().union(*(a.endpoints for a in arcs))
    if sharing == [1, 1, 1] and len(punctures) == 4:
        kind = "case2"
    elif sharing == [1, 1, 2]:
        kind = "case3" if coincide else "case4"
    elif sharing == [1, 1, 1] and len(punctures) == 3:
        kind = "case1" if coincide else "case5"
    elif sharing == [2, 2, 2]:
        kind = "case5"
    else:
        raise ValueError(f"unclassifiable endpoint pattern {sharing}")
    return TriangleConfig(tuple(arcs), kind, eps)


def _two_pentagon_fill(config: TriangleConfig, w: Window) -> list[list[Arc2Vertex]]:
    """One auxiliary z closing two pentagons joined along two edges.

    Pivoting at x0, the pentagons are x0 e01 x1 e12 z and x0 e02 x2 e12 z.
    Each holds a path from x0 to e12 through four of its vertices, so z is a
    common window neighbour of x0 and e12.  Each 5-set is tested as a
    chordless 5-cycle on the window's neighbour tuples, which record curve
    disjointness because the window is induced; the least z over the three
    pivots wins.
    """
    eps_of = dict(zip(map(frozenset, [(0, 1), (1, 2), (0, 2)]), config.epsilons))
    used = {_vertex(w, a) for a in config.arcs + config.epsilons}
    nbrs = w.neighbors
    solutions = []
    for pivot in range(3):
        o1, o2 = sorted({0, 1, 2} - {pivot})
        x0, x1, x2 = config.arcs[pivot], config.arcs[o1], config.arcs[o2]
        e01 = eps_of[frozenset((pivot, o1))]
        e12 = eps_of[frozenset((o1, o2))]
        e02 = eps_of[frozenset((pivot, o2))]
        paths = [[w.index[a.curve.coords] for a in path]
                 for path in ((x0, e01, x1, e12), (x0, e02, x2, e12))]
        for k in set(nbrs[paths[0][0]]).intersection(nbrs[paths[0][3]]) - used:
            cells = [{*path, k} for path in paths]
            # each cell has five vertices, each with two neighbours among them
            if all([len(cell.intersection(nbrs[v])) for v in cell] == [2] * 5
                   for cell in cells):
                z = Arc2Vertex(s5windows.window_curve(w, k))
                first, second = [x0, x1, z, e01, e12], [x0, x2, z, e02, e12]
                solutions.append((z.curve.coords, [first, second]))
    if not solutions:
        raise ValueError("no auxiliary arc closes the two pentagons in this window")
    return min(solutions)[1]


def _four_pentagon_fill(config: TriangleConfig, w: Window) -> list[list[Arc2Vertex]]:
    """Exact disk filling of the chordless hexagon by four pentagons.

    The hexagon x0 e01 x1 e12 x2 e02 is filled so that each of its edges lies
    in exactly one pentagon and every interior edge in exactly two; all
    solutions use one hub auxiliary in all four pentagons and three further
    auxiliaries in two each.  These are exact covers by window pentagons
    through hexagon edges, searched by branching on the open demand (a bare
    hexagon edge, or an interior edge covered once) with fewest pentagons
    that over-cover no edge; every cover by four is listed and the least wins.
    """
    hexagon = [_vertex(w, a) for p in zip(config.arcs, config.epsilons) for a in p]
    delta = {tuple(sorted((hexagon[i], hexagon[i - 1]))) for i in range(6)}
    by_edge = s5windows.pentagons_by_edge(w)
    cands = sorted({p for e in delta for p in by_edge.get(e, ())})
    edges_of = [{tuple(sorted((p[i], p[i - 1]))) for i in range(5)} for p in cands]
    through: dict[tuple[int, int], list[int]] = {}
    for idx, es in enumerate(edges_of):
        for e in es:
            through.setdefault(e, []).append(idx)
    solutions: list[tuple[tuple[int, ...], ...]] = []

    def cover(chosen: tuple[int, ...]):
        count = Counter(e for idx in chosen for e in edges_of[idx])
        full = {e for e, c in count.items() if c == (1 if e in delta else 2)}
        demands = (delta | count.keys()) - full
        if not demands and len(chosen) == 4:
            solutions.append(tuple(sorted(cands[idx] for idx in chosen)))
        elif demands and len(chosen) < 4:
            fits = [[i for i in through.get(e, ()) if full.isdisjoint(edges_of[i])]
                    for e in demands]
            for idx in min(fits, key=len):
                cover(chosen + (idx,))

    cover(())
    if not solutions:
        raise ValueError("no four-pentagon filling found in this window")
    return [[Arc2Vertex(s5windows.window_curve(w, v)) for v in pent]
            for pent in min(solutions)]


def fill_triangle(config: TriangleConfig, w: Window) -> dict:
    """The filling of the triangle's delta-loop, as prescribed by its kind.

    Returns a JSON-ready description: the boundary loop, the tripod centre
    (coinciding epsilon) or the list of pentagons, each as an ordered cycle
    of curve records; every pentagon is validated as a chordless 5-cycle.
    """
    x0, x1, x2 = config.arcs
    e01, e12, e02 = config.epsilons
    boundary = [x0, e01, x1, e12, x2, e02]
    if config.kind in ("case1", "case3"):
        result = {"cells": "tripod", "center": e01.to_json(), "pentagons": []}
    elif config.kind in ("case2", "case4"):
        result = {"cells": "pentagons", "pentagons": _two_pentagon_fill(config, w)}
    else:
        result = {"cells": "pentagons", "pentagons": _four_pentagon_fill(config, w)}
    # pentagon_cycle raises unless each cell is a chordless 5-cycle
    pentagons = [
        [a.to_json() for a in pentagon_cycle(list(pent))]
        for pent in result["pentagons"]
    ]
    return {
        "kind": config.kind,
        "arcs": [a.to_json() for a in config.arcs],
        "boundary": [a.to_json() for a in boundary],
        "cells": result["cells"],
        **({"center": result["center"]} if "center" in result else {}),
        "pentagons": pentagons,
    }
