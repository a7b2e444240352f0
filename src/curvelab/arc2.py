"""The arc complex of arcs between distinct punctures on S_{0,5}.

Every essential curve cuts the sphere into a twice-punctured and a
thrice-punctured side; sending the curve to the unique arc joining the two
punctures inside the disk it bounds is a bijection onto arcs with distinct
endpoints, and two arcs have disjoint interiors exactly when their curves
satisfy i(curve, curve') = 2 * (number of shared endpoints).

Triangles of pairwise interior-disjoint arcs whose pairs all share an
endpoint fall into five configuration classes; fill_triangle produces the
tripod or pentagon fillings of the classes.  Once the three arcs are located
in the window, classification and filling work on window indices: a
classified triangle is its delta-loop of indices, each cell is checked as a
chordless 5-cycle on the window's rows, which record curve disjointness
because the window is induced, and each vertex's record is written once,
from the window's tuples, by ``record``, which also writes the arcs and
epsilons that ``arc2 classify`` prints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .curves import NormalCurve, intersection_number
from .window import Window
from . import s5windows


@dataclass(frozen=True)
class Arc2Vertex:
    """An arc between two distinct punctures, carried by its curve.

    The curve must carry a witness word that gives it, as every window
    curve does: the arc's endpoints are read off the witness, and a curve
    without one is refused (ValueError).
    """

    curve: NormalCurve

    def __post_init__(self):
        if self.curve.witness is None:
            key = s5windows.curve_key_str(self.curve.coords)
            raise ValueError(f"arc {key} has no witness word")

    @property
    def endpoints(self) -> frozenset[int]:
        return s5windows.puncture_pair(self.curve.witness)


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


# where _endpoints keeps a window's endpoint table: in the window's own
# __dict__, as s5windows.witness_readers keeps its readers
_ENDPOINTS = "_arc2_endpoints"


def _endpoints(w: Window) -> tuple[frozenset[int], ...]:
    """The endpoints of each window vertex's arc, by index, read off its
    witness word once per window."""
    ends = w.__dict__.get(_ENDPOINTS)
    if ends is None:
        if w.words is None:
            raise ValueError(s5windows.NO_WORDS)
        ends = w.__dict__[_ENDPOINTS] = tuple(
            s5windows.puncture_pair(s5windows.parse_witness(t)) for t in w.words)
    return ends


def epsilon_arc(w: Window, i: int, j: int) -> int:
    """The index of the unique arc with distinct endpoints in the complement
    of window arcs i and j.

    The two must be interior-disjoint and share an endpoint, as
    ``classify_triangle`` checks (arcs with disjoint endpoint pairs are
    directly adjacent and need no connector).  An arc sharing no endpoint
    with another is interior-disjoint from it exactly when their curves are
    disjoint: the candidates are the common window neighbours avoiding both
    endpoint pairs, read from ``_endpoints(w)``, and must be unique.
    """
    ends = _endpoints(w)
    taken = ends[i] | ends[j]
    near_j = set(w.neighbors[j])
    candidates = [k for k in w.neighbors[i]
                  if k in near_j and taken.isdisjoint(ends[k])]
    if len(candidates) != 1:
        raise ValueError(
            f"expected a unique epsilon arc, found {len(candidates)} in the window"
        )
    return candidates[0]


@dataclass(frozen=True)
class TriangleConfig:
    """A classified triangle of pairwise interior-disjoint arcs.

    ``loop`` is its delta-loop x0 e01 x1 e12 x2 e02 of window indices.  The
    five kinds, by endpoint-sharing pattern of the arc pair-counts and
    coincidence of the epsilon connectors:
      case1 — cyclic sharing through three punctures, epsilons coincide
      case2 — star: all three arcs share one common puncture
      case3 — one pair shares both endpoints, epsilons coincide
      case4 — one pair shares both endpoints, epsilons distinct
      case5 — epsilons pairwise distinct with no short-cut adjacency (cyclic
              sharing with the spare punctures separated, or all three arcs
              joining the same pair); filled by four pentagons
    """

    kind: str
    loop: tuple[int, int, int, int, int, int]


def classify_triangle(
    arcs: tuple[Arc2Vertex, Arc2Vertex, Arc2Vertex], w: Window
) -> TriangleConfig:
    """The kind and delta-loop of a triangle: the guards read each pair's
    curves once, then the arcs are located and the epsilon arcs found on indices."""
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
    x0, x1, x2 = (_vertex(w, a) for a in arcs)
    e01, e12, e02 = epsilon_arc(w, x0, x1), epsilon_arc(w, x1, x2), epsilon_arc(w, x0, x2)
    coincide = e01 == e12 == e02
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
    return TriangleConfig(kind, (x0, e01, x1, e12, x2, e02))


def _two_pentagon_fill(config: TriangleConfig, w: Window) -> list[tuple[int, ...]]:
    """One auxiliary z closing two pentagons joined along two edges.

    Pivoting at x0, the pentagons are x0 e01 x1 e12 z and x0 e02 x2 e12 z.
    Each holds a path from x0 to e12 through four of its vertices, so z is a
    common window neighbour of x0 and e12.  Each 5-set is tested as a
    chordless 5-cycle on the window's neighbour tuples, which record curve
    disjointness because the window is induced; the least z over the three
    pivots wins.  The pentagons are index cycles, in that order.
    """
    arcs, eps = config.loop[0::2], config.loop[1::2]  # eps: e01, e12, e02
    eps_of = dict(zip(map(frozenset, [(0, 1), (1, 2), (0, 2)]), eps))
    used = set(config.loop)
    nbrs = w.neighbors
    solutions = []
    for pivot in range(3):
        o1, o2 = sorted({0, 1, 2} - {pivot})
        x0, x1, x2 = arcs[pivot], arcs[o1], arcs[o2]
        e01 = eps_of[frozenset((pivot, o1))]
        e12 = eps_of[frozenset((o1, o2))]
        e02 = eps_of[frozenset((pivot, o2))]
        paths = ((x0, e01, x1, e12), (x0, e02, x2, e12))
        for z in set(nbrs[x0]).intersection(nbrs[e12]) - used:
            cells = [{*path, z} for path in paths]
            # each cell has five vertices, each with two neighbours among them
            if all([len(cell.intersection(nbrs[v])) for v in cell] == [2] * 5
                   for cell in cells):
                solutions.append((z, [(*path, z) for path in paths]))
    if not solutions:
        raise ValueError("no auxiliary arc closes the two pentagons in this window")
    return min(solutions)[1]


def _four_pentagon_fill(config: TriangleConfig, w: Window) -> list[tuple[int, ...]]:
    """Exact disk filling of the chordless hexagon by four pentagons.

    The hexagon x0 e01 x1 e12 x2 e02 is filled so that each of its edges lies
    in exactly one pentagon and every interior edge in exactly two; all
    solutions use one hub auxiliary in all four pentagons and three further
    auxiliaries in two each.  These are exact covers by window pentagons
    through hexagon edges, searched by branching on the open demand (a bare
    hexagon edge, or an interior edge covered once) with fewest pentagons
    that over-cover no edge; every cover by four is listed and the least
    wins.  The pentagons are the window's canonical index cycles.
    """
    delta = {tuple(sorted((config.loop[i], config.loop[i - 1]))) for i in range(6)}
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
    return list(min(solutions))


def _pentagon(cycle: tuple[int, ...], nbrs) -> tuple[int, ...]:
    """The index cycle in canonical order: from its least index towards the
    lesser of that index's two cycle neighbours.  Index order is coordinate
    order in an S5 window, so this is the cycle's canonical order by curve.
    RuntimeError unless the cycle is a chordless 5-cycle of the rows
    ``nbrs``: five distinct vertices, each adjacent to the one before it
    and not to the one two before."""
    if len(set(cycle)) != 5 or not all(
        cycle[k - 1] in nbrs[v] and cycle[k - 2] not in nbrs[v]
        for k, v in enumerate(cycle)
    ):
        raise RuntimeError(f"filling cell {list(cycle)} is not a chordless 5-cycle")
    return s5windows.canonical_cycle(cycle)


def record(w: Window, v: int) -> dict:
    """The JSON record of the window's arc at index v: its curve's
    coordinates and witness, and its endpoints, written from the window's
    tuples.  Fillings and ``arc2 classify`` write every arc this way."""
    ends = _endpoints(w)[v]
    word, base = s5windows.parse_witness(w.words[v])
    return {"coords": list(w.vertices[v]),
            "witness": {"word": word, "base": base},
            "endpoints": sorted(ends)}


def fill_triangle(config: TriangleConfig, w: Window) -> dict:
    """The filling of the triangle's delta-loop, as prescribed by its kind.

    Returns a JSON-ready description: the boundary loop, the tripod centre
    (coinciding epsilon) or the list of pentagons, each as an ordered cycle
    of curve records.  The cells are found and checked on window indices:
    each pentagon is validated as a chordless 5-cycle on the window's rows,
    and ordered along its cycle from its least curve towards the lesser of
    that curve's two neighbours.  Each vertex's record is written once per
    filling, from the window's coordinates, witness word and endpoints, and
    every place that vertex takes in the filling holds that one record.
    """
    loop = config.loop
    tripod = config.kind in ("case1", "case3")
    if tripod:
        cells = []
    elif config.kind in ("case2", "case4"):
        cells = _two_pentagon_fill(config, w)
    else:
        cells = _four_pentagon_fill(config, w)
    cycles = [_pentagon(cell, w.neighbors) for cell in cells]
    rec = {v: record(w, v) for v in set(loop).union(*cycles)}
    return {
        "kind": config.kind,
        "arcs": [rec[v] for v in loop[0::2]],
        "boundary": [rec[v] for v in loop],
        "cells": "tripod" if tripod else "pentagons",
        **({"center": rec[loop[1]]} if tripod else {}),
        "pentagons": [[rec[v] for v in cycle] for cycle in cycles],
    }
