"""Re-derivation of the generator flip encodings behind mcg's kernels.

Searches the flip graph of the base triangulation for shortest flip
sequences whose final triangulation is combinatorially isomorphic to the
base one (orientation-preservingly) under a prescribed puncture
permutation.  Each hit yields a candidate Atom; candidates are then pinned
behaviourally (action on the base pentagon, intersection numbers), and the
shipped encodings must be among them.  Each shipped half-twist must be the
least, by (flips, relabel), of the shortest candidates that the certificate
``oracles.same_mapping_class`` identifies with the conjugate of h1 by a
power of the rotation, so a hand edit to an encoding fails here.
"""

from collections import Counter

import pytest

from curvelab.curves import BASE_CURVES
from curvelab.mcg import NUM_EDGES
from curvelab.triangulation import Triangulation
from oracles import (
    ATOMS,
    BASE,
    CONJUGATED_HALF_TWISTS,
    H1_ATOM,
    RHO_ATOM,
    Atom,
    edge_endpoints,
    flippable,
    intersection,
    replay_atom,
    same_mapping_class,
)


def _pair_counter(state: Triangulation, perm: dict[int, int] | None = None):
    pairs = []
    for e in range(NUM_EDGES):
        u, v = edge_endpoints(state, e)
        if perm:
            u, v = perm[u], perm[v]
        pairs.append((min(u, v), max(u, v)))
    return Counter(pairs)


def isomorphisms(state: Triangulation, perm: dict[int, int]) -> list[tuple[int, ...]]:
    """All orientation-preserving edge relabellings phi with
    perm(corners(state)) == corners(BASE) under phi, triangle by triangle."""
    base_by_corners: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for t, corners in enumerate(BASE.tri_corners):
        for rot in range(3):
            key = tuple(corners[(rot + k) % 3] for k in range(3))
            base_by_corners.setdefault(key, []).append((t, rot))

    results: list[tuple[int, ...]] = []

    def backtrack(t: int, used: set[int], phi: dict[int, int]):
        if t == len(state.tri_edges):
            results.append(tuple(phi[e] for e in range(NUM_EDGES)))
            return
        corners = tuple(perm[c] for c in state.tri_corners[t])
        for bt, rot in base_by_corners.get(corners, []):
            if bt in used:
                continue
            new: dict[int, int] = {}
            ok = True
            for k in range(3):
                src = state.tri_edges[t][k]
                dst = BASE.tri_edges[bt][(rot + k) % 3]
                prior = phi.get(src, new.get(src))
                if prior is None:
                    if dst in phi.values() or dst in new.values():
                        ok = False
                        break
                    new[src] = dst
                elif prior != dst:
                    ok = False
                    break
            if ok:
                phi.update(new)
                backtrack(t + 1, used | {bt}, phi)
                for k in new:
                    del phi[k]

    backtrack(0, set(), {})
    return results


def find_candidates(perm: dict[int, int], max_depth: int = 8) -> list[Atom]:
    """All shortest flip sequences realising the puncture permutation."""
    base_pairs = _pair_counter(BASE)
    vertex_perm = tuple(perm[v] for v in range(1, 6))

    def heuristic(state: Triangulation) -> int:
        diff = _pair_counter(state, perm) - base_pairs
        return sum(diff.values())

    for depth in range(max_depth + 1):
        hits: list[Atom] = []

        def dfs(state: Triangulation, path: list[int], remaining: int):
            h = heuristic(state)
            if h > remaining:
                return
            if remaining == 0:
                for phi in isomorphisms(state, perm):
                    hits.append(Atom(tuple(path), phi, vertex_perm))
                return
            for f in range(NUM_EDGES):
                if path and path[-1] == f:
                    continue
                if not flippable(state, f):
                    continue
                path.append(f)
                dfs(state.flip(f), path, remaining - 1)
                path.pop()

        dfs(BASE, [], depth)
        if hits:
            return hits
    return []


def pin_rho() -> list[Atom]:
    """Candidates for the rotation: advance every puncture by one and send
    the base pentagon around itself (c1 -> c4 -> c2 -> c5 -> c3 -> c1)."""
    perm = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
    cycle = [0, 3, 1, 4, 2]  # indices of c1, c4, c2, c5, c3
    out = []
    for atom in find_candidates(perm):
        if all(
            replay_atom(atom, BASE_CURVES[cycle[k]].coords)
            == BASE_CURVES[cycle[(k + 1) % 5]].coords
            for k in range(5)
        ):
            out.append(atom)
    return out


def pin_h1() -> list[Atom]:
    """Candidates for the half-twist swapping punctures 1 and 2.

    Must fix the three base curves not crossing it (c1, c2, c5), move c3 and
    c4, and send c4 to a curve still meeting c4 twice (a full twist would
    force higher intersection)."""
    perm = {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}
    c1, c2, c3, c4, c5 = (c.coords for c in BASE_CURVES)
    out = []
    for atom in find_candidates(perm):
        if any(replay_atom(atom, c) != c for c in (c1, c2, c5)):
            continue
        img = replay_atom(atom, c4)
        if img == c4 or intersection(img, c4) != 2:
            continue
        if intersection(img, c1) != 2:
            continue
        out.append(atom)
    return out


def pin_half_twist(letter: str) -> list[Atom]:
    """Shortest candidates certified equal to the conjugated half-twist."""
    oracle = CONJUGATED_HALF_TWISTS[letter]
    perm = {v: oracle.vertex_perm[v - 1] for v in range(1, 6)}
    return [atom for atom in find_candidates(perm) if same_mapping_class(atom, oracle)]


def test_shipped_atoms_are_rederived():
    assert RHO_ATOM in pin_rho()
    assert H1_ATOM in pin_h1()


@pytest.mark.parametrize("letter", "abcd")
def test_shipped_half_twist_is_least_shortest_program(letter):
    hits = pin_half_twist(letter)
    assert ATOMS[letter] == min(hits, key=lambda a: (a.flips, a.relabel))
