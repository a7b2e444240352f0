"""Workload menus and seeded schedules.

A run is a closed loop: one client issues one operation at a time.  Each
workload has a fixed round, a list of menu entries in fixed proportions.  A
run executes whole rounds, each shuffled by the seed, so every run carries
the same mix and its median and tail fall on the same entries.  The number
of rounds is fixed by ``--seconds`` and ``round_s`` in config.json, the
share of ``--seconds`` one round stands for.  It is close to the round's
duration at reference machine speed, but chosen per workload so that the
median and tail land inside one entry (below) and the three workloads
together average about ``--seconds`` per run.

With m entries per round and R rounds, the median and the tail (rank
m*R - 10) should fall inside the R repeats of one entry, not between two
entries whose times differ: that holds for odd m with R = 3 or 4, which is
why the verify rounds have 11 entries.
"""

from __future__ import annotations

import random

FAREY_SUITES = "simplicial,lift,ball2,covering"
S5_SUITES = "simplicial,lift,ball2,covering,transfer,support,relations"

WORKLOADS = ("farey-verify", "s5-verify", "arc2-fill")


def farey_entry(height: int, matrix: str, power: int, conj_len: int) -> dict:
    return {
        "id": f"h{height}-m{matrix}-k{power}-c{conj_len}",
        "args": ["verify", "--instance", "farey", "--height", str(height),
                 "--matrix", matrix, "--power", str(power),
                 "--conj-len", str(conj_len), "--suites", FAREY_SUITES],
    }


def s5_entry(word_bound: int, sample: str) -> dict:
    return {
        "id": f"b{word_bound}-s{sample or 'none'}",
        "args": ["verify", "--instance", "s5", "--word-bound", str(word_bound),
                 "--sample", sample, "--suites", S5_SUITES],
    }


# Heights 30, 40 and 55; three hyperbolic bases; powers in the hypothesis
# (K=8) and out of it (K<8); conjugator lengths 1 and 2.  Height 30 carries
# most of the round so that a run holds 33 operations.
FAREY_ROUND = [
    farey_entry(30, "2,1,1,1", 8, 1),
    farey_entry(30, "2,1,1,1", 6, 1),
    farey_entry(30, "2,1,1,1", 4, 1),
    farey_entry(30, "3,2,1,1", 8, 1),
    farey_entry(30, "3,2,1,1", 6, 1),
    farey_entry(30, "3,2,1,1", 4, 1),
    farey_entry(30, "2,1,1,1", 8, 2),
    farey_entry(30, "2,1,1,1", 6, 2),
    farey_entry(30, "1,1,1,2", 8, 1),
    farey_entry(40, "2,1,1,1", 8, 1),
    farey_entry(55, "2,1,1,1", 8, 1),
]

# Three cheap bound-2 entries and eight bound-3 entries: the median lands
# on a bound-3 entry, where the window build dominates.
S5_ROUND = [
    s5_entry(2, "aaaa"),
    s5_entry(2, "abab"),
    s5_entry(2, "ac"),
    s5_entry(3, ""),
    s5_entry(3, "aa"),
    s5_entry(3, "r"),
    s5_entry(3, "bb,dd"),
    s5_entry(3, "abc"),
    s5_entry(3, "cdcd"),
    s5_entry(3, "aaaa"),
    s5_entry(3, "abab"),
]

# Outcomes of the arc2 pool and how many of each one round draws.  The six
# slow two-pentagon fills put the median inside the case2/case4 class.
ARC2_OUTCOMES = ["undecided", "case1", "case3", "case5"] + ["case2", "case4"] * 3

ROUNDS = {"farey-verify": FAREY_ROUND, "s5-verify": S5_ROUND}


def rounds_for(seconds: float, round_s: float) -> int:
    """Whole rounds for a run of ``seconds``, one per ``round_s`` of it."""
    return max(1, round(seconds / round_s))


def verify_schedule(workload: str, seed: int, rounds: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(rounds):
        batch = list(ROUNDS[workload])
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def arc2_schedule(pool: list[dict], seed: int, rounds: int) -> list[dict]:
    """Pool entries in fixed per-outcome proportions, drawn by the seed.

    Sampling is stratified: an outcome drawn k times in a run has its pool
    entries sorted by reference op time and cut into k equal strata, and the
    seed picks one entry from each.  Every run then holds the same spread of
    cheap and dear triangles, and its median does not depend on which ones
    the seed happened to draw.
    """
    rng = random.Random(f"arc2-fill:{seed}")
    by_outcome: dict[str, list[dict]] = {}
    for entry in pool:
        by_outcome.setdefault(entry["outcome"], []).append(entry)
    draws: dict[str, list[dict]] = {}
    for outcome in sorted(set(ARC2_OUTCOMES)):
        entries = sorted(by_outcome[outcome], key=lambda e: (e["ref_ms"], e["arcs"]))
        k = ARC2_OUTCOMES.count(outcome) * rounds
        n = len(entries)
        picks = []
        for i in range(k):
            lo, hi = i * n // k, (i + 1) * n // k
            picks.append(entries[rng.randrange(lo, max(hi, lo + 1))])
        rng.shuffle(picks)
        draws[outcome] = picks
    ops = []
    for _ in range(rounds):
        batch = list(ARC2_OUTCOMES)
        rng.shuffle(batch)
        ops.extend(draws[outcome].pop() for outcome in batch)
    return ops
