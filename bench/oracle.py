"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports boxagree: boxes are tuples of integer (lo, hi) pairs,
graphs are lists of 0-based adjacency bitsets, and every quantity is
recomputed from its definition, so a check cannot share a bug with the
library it checks.  Coordinates are integers in whatever unit the caller
chose (the overlap predicate is invariant under scaling).
"""

from __future__ import annotations

from itertools import combinations


def overlap(a, b) -> bool:
    """Closed boxes meet iff their sides meet on every axis."""
    return all(max(la, lb) <= min(ha, hb) for (la, ha), (lb, hb) in zip(a, b))


def graph_of(boxes) -> list[int]:
    """Intersection graph as 0-based adjacency bitsets."""
    n = len(boxes)
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if overlap(boxes[i], boxes[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    """1-based edge list with u < v, in lexicographic order."""
    n = len(adj)
    return [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def clique_counts(adj: list[int]) -> list[int]:
    """counts[s-1] = number of s-vertex cliques, for s = 1..omega."""
    counts: list[int] = []

    def grow(size: int, cand: int) -> None:
        if len(counts) < size:
            counts.append(0)
        counts[size - 1] += 1
        while cand:
            low = cand & -cand
            cand ^= low
            grow(size + 1, cand & adj[low.bit_length() - 1])

    for v in range(len(adj)):
        grow(1, adj[v] & ~((2 << v) - 1))
    return counts


def has_independent_triple(adj: list[int]) -> bool:
    return any(
        not (adj[i] >> j & 1 or adj[i] >> k & 1 or adj[j] >> k & 1)
        for i, j, k in combinations(range(len(adj)), 3)
    )


def exposure_holds(boxes, index: int, axis: int, side: str, coordinate) -> bool:
    """Box `index` (1-based) has its `side` face on {x_axis = coordinate}, and
    every box missing that hyperplane lies strictly on the far side."""
    lo, hi = boxes[index - 1][axis - 1]
    if (lo if side == "lower" else hi) != coordinate:
        return False
    for j, box in enumerate(boxes, start=1):
        blo, bhi = box[axis - 1]
        if j == index or blo <= coordinate <= bhi:
            continue
        if side == "lower" and blo > coordinate:
            return False
        if side == "upper" and bhi < coordinate:
            return False
    return True


def k_partite_edges(d: int) -> list[tuple[int, int]]:
    """Complete d-partite graph on the pairs {1,2}, {3,4}, ..."""
    n = 2 * d
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if not (u % 2 == 1 and v == u + 1)]


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = set(edges)
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if (u, v) not in present]


# The arrangement fixtures, scaled so every coordinate is an integer: halves
# for all but `exposure`.
ARRANGEMENT_FIXTURES = {
    "z5": [
        [(2, 8), (0, 10)], [(0, 4), (6, 24)], [(6, 12), (8, 12)],
        [(10, 14), (10, 20)], [(2, 12), (14, 18)],
    ],
    "fig38a": [
        [(10, 12), (0, 40)], [(30, 32), (0, 40)], [(0, 40), (10, 12)],
        [(0, 40), (30, 32)], [(4, 28), (2, 20)], [(2, 16), (14, 36)],
        [(24, 34), (8, 28)], [(14, 38), (26, 38)],
    ],
    "fig38b": [
        [(2, 16), (14, 18)], [(0, 4), (6, 24)], [(2, 8), (0, 10)],
        [(6, 16), (4, 12)], [(10, 14), (8, 20)], [(3, 12), (8, 16)],
        [(13, 18), (2, 22)], [(-2, 20), (1, 7)],
    ],
    "exposure": [  # in twentieths: its corners include 7/4 and 11/5
        [(10, 35), (50, 70)], [(45, 85), (35, 80)], [(50, 70), (10, 44)],
        [(0, 80), (25, 40)], [(10, 25), (10, 30)], [(20, 40), (0, 60)],
    ],
    "two_camps 3": [[(0, 2)]] * 3 + [[(4, 6)]] * 3,
}

# Intersection graphs the fixture module registers, recorded independently.
FIXTURE_EDGES = {
    "z5": [(1, 2), (1, 3), (2, 5), (3, 4), (4, 5)],
    "fig38a": [
        (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 7), (2, 8),
        (3, 5), (3, 7), (4, 6), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8),
    ],
    "fig38b": [
        (1, 2), (1, 5), (1, 6), (1, 7), (2, 3), (2, 6), (2, 8), (3, 4),
        (3, 6), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7),
        (7, 8),
    ],
    "exposure": [(1, 6), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)],
    "two_camps 3": [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)],
}
FIXTURE_EDGES["fig38c"] = FIXTURE_EDGES["fig38a"] + [(1, 2), (6, 7)]
FIG134_COMPLEMENT_EDGES = [
    (1, 2), (1, 3), (1, 7), (1, 9), (2, 4), (2, 8), (2, 10), (3, 4), (3, 6),
    (3, 12), (4, 5), (4, 11), (5, 7), (5, 9), (5, 12), (6, 8), (6, 9),
    (6, 10), (7, 10), (7, 11), (8, 11), (8, 12), (9, 13), (10, 13),
    (11, 13), (12, 13),
]
FIXTURE_EDGES["fig134"] = complement_edges(13, FIG134_COMPLEMENT_EDGES)
