"""The arc complex of arcs between distinct punctures on S_{0,5}.

Every essential curve cuts the sphere into a twice-punctured and a
thrice-punctured side; sending the curve to the unique arc joining the two
punctures inside the disk it bounds is a bijection onto arcs with distinct
endpoints, and two arcs have disjoint interiors exactly when their curves
satisfy i(curve, curve') = 2 * (number of shared endpoints).

Triangles of pairwise interior-disjoint arcs whose pairs all share an
endpoint fall into five configuration classes; fill_triangle produces the
tripod or pentagon fillings of the classes.  Both read the window by index
once the three arcs are found in it, through the S5 window's tables (one
parse of its witness words, ``s5windows.witnesses``): the guards read each
pair's intersection off the witness readers and the endpoints off the
puncture pairs, a classified triangle is its delta-loop of indices, and
each cell is tested as a chordless 5-cycle on the window's rows, which
record curve disjointness because the window is induced.  ``record`` writes
each vertex's record, fresh, from the same witnesses and pairs; it also
writes the arcs and epsilons that ``arc2 classify`` prints.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .curves import NormalCurve, intersection_number
from .mcg import apply_word
from .window import Window
from . import s5windows


class _Arc(NamedTuple):
    curve: NormalCurve


class Arc2Vertex(_Arc):
    """An arc between two distinct punctures, carried by its curve.

    The curve must carry a witness word that gives it, as every window
    curve does: the arc's endpoints are read off the witness, and a curve
    without one is refused (ValueError).
    """

    __slots__ = ()

    def __new__(cls, curve: NormalCurve) -> "Arc2Vertex":
        if curve.witness is None:
            raise ValueError(f"arc {s5windows.curve_key_str(curve.coords)} has no witness word")
        return tuple.__new__(cls, (curve,))

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


def epsilon_arc(w: Window, i: int, j: int) -> int:
    """The index of the unique arc with distinct endpoints in the complement
    of window arcs i and j.

    The two must be interior-disjoint and share an endpoint, as
    ``classify_triangle`` checks (arcs with disjoint endpoint pairs are
    directly adjacent and need no connector).  An arc sharing no endpoint
    with another is interior-disjoint from it exactly when their curves are
    disjoint: the candidates are the common window neighbours avoiding both
    endpoint pairs, read off ``s5windows.puncture_pairs``, and must be
    unique.
    """
    ends = s5windows.puncture_pairs(w)
    taken, near_j = ends[i] | ends[j], w.neighbors[j]
    candidates = [k for k in w.neighbors[i]
                  if taken.isdisjoint(ends[k]) and k in near_j]
    if len(candidates) != 1:
        raise ValueError(
            f"expected a unique epsilon arc, found {len(candidates)} in the window"
        )
    return candidates[0]


class TriangleConfig(NamedTuple):
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
    """The kind and delta-loop of a triangle.

    When all three arcs are vertices of a window with witness words, each
    guard pair's intersection is read once off the window's witness readers
    and each endpoint off its puncture pairs; otherwise the guards read the
    arcs' curves (``arcs_disjoint``) before ``_vertex`` refuses an outside
    arc, or the epsilon search a window without words, so the errors come
    in the same order.  The epsilon arcs are found on indices."""
    coords = [a.curve.coords for a in arcs]
    if len(set(coords)) != 3:
        raise ValueError("triangle requires three distinct arcs")
    c0, c1, c2 = coords
    x0, x1, x2 = located = w.index.get(c0), w.index.get(c1), w.index.get(c2)
    if None in located or w.words is None:
        disjoint = all(arcs_disjoint(a, b) for a, b in combinations(arcs, 2))
        ends = [a.endpoints for a in arcs]
        shared = [len(a & b) for a, b in combinations(ends, 2)]
    else:
        # i(g(c_k), y) = 2 * apply_word(g^-1, y)[e_k]: the pairs 01 and 02
        # are read off x0's witness and 12 off x1's; the arcs are
        # interior-disjoint when that is twice their shared endpoints
        pairs, readers = s5windows.puncture_pairs(w), s5windows.witness_readers(w)
        ends = [pairs[x0], pairs[x1], pairs[x2]]
        shared = [len(a & b) for a, b in combinations(ends, 2)]
        (inv0, e0), (inv1, e1) = readers[x0], readers[x1]
        disjoint = shared == [apply_word(inv0, c1)[e0], apply_word(inv0, c2)[e0],
                              apply_word(inv1, c2)[e1]]
    if not disjoint:
        raise ValueError("triangle arcs must have pairwise disjoint interiors")
    sharing = sorted(shared)
    if 0 in sharing:
        raise ValueError(
            "a pair of arcs with distinct endpoints spans a single pentagon; "
            "only triples whose pairs all share an endpoint are classified"
        )
    if None in located:
        x0, x1, x2 = (_vertex(w, a) for a in arcs)
    e01, e12, e02 = epsilon_arc(w, x0, x1), epsilon_arc(w, x1, x2), epsilon_arc(w, x0, x2)
    coincide = e01 == e12 == e02
    punctures = frozenset().union(*ends)
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

    Pivoting at x0, the pentagons are x0 e01 x1 e12 z and x0 e02 x2 e12 z:
    the two ways round the delta-loop from x0 to the epsilon opposite it,
    closed by a common window neighbour z of x0 and e12 outside the loop.
    Such a path x0 e x e12 closed by z is a 5-cycle, and it is chordless on
    the window's rows, which record curve disjointness because the window
    is induced, exactly when x and e12 avoid x0 and e12 avoids e (checked
    once per pivot), and z avoids e and x.  The least z over the three
    pivots wins.  The pentagons are index cycles, in that order.
    """
    loop, nbrs = config.loop, w.neighbors
    used = set(loop)
    solutions = []
    for p in (0, 2, 4):
        turn = loop[p:] + loop[:p]  # x0 first
        ahead, back = turn[:4], (turn[0], *turn[:2:-1])
        # the way through the earlier of the other two arcs comes first
        paths = (back, ahead) if p == 2 else (ahead, back)
        x0, e12 = turn[0], turn[3]
        if e12 in nbrs[x0] or any(x in nbrs[x0] or e12 in nbrs[e] for _, e, x, _ in paths):
            continue
        for z in nbrs[x0]:
            if z in nbrs[e12] and z not in used and not any(
                    z in nbrs[e] or z in nbrs[x] for _, e, x, _ in paths):
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
    wins, on edge bitmasks.  The pentagons are the window's canonical index
    cycles.
    """
    delta = {tuple(sorted((config.loop[i], config.loop[i - 1]))) for i in range(6)}
    by_edge = s5windows.pentagons_by_edge(w)
    cands = sorted({p for e in delta for p in by_edge.get(e, ())})
    # one bit per edge of the hexagon and its pentagons, the hexagon's six lowest
    bit = {e: k for k, e in enumerate(delta)}
    hexagon = (1 << len(bit)) - 1
    masks, through = [0] * len(cands), [[] for _ in bit]  # bit -> pentagons
    for idx, p in enumerate(cands):
        for a, b in zip(p, p[1:] + p[:1]):
            k = bit.setdefault((a, b) if a < b else (b, a), len(through))
            if k == len(through):
                through.append([])
            masks[idx] |= 1 << k
            through[k].append(idx)
    solutions: list[tuple[tuple[int, ...], ...]] = []

    def cover(chosen: tuple[int, ...], once: int, twice: int):
        full = (once & hexagon) | twice
        demands = (hexagon | once) & ~full
        if not demands and len(chosen) == 4:
            solutions.append(tuple(sorted(cands[idx] for idx in chosen)))
        elif demands and len(chosen) < 4:
            fits = [[i for i in through[b] if not masks[i] & full]
                    for b in range(demands.bit_length()) if demands >> b & 1]
            for idx in min(fits, key=len):
                cover(chosen + (idx,), once ^ masks[idx], twice | (once & masks[idx]))

    cover((), 0, 0)
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
    coordinates and witness, and its endpoints, written fresh from the
    window's tables.  Fillings and ``arc2 classify`` write every arc this
    way."""
    word, base = s5windows.witnesses(w)[v]
    return {"coords": list(w.vertices[v]),
            "witness": {"word": word, "base": base},
            "endpoints": sorted(s5windows.puncture_pairs(w)[v])}


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
