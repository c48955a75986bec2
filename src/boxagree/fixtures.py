"""Built-in example arrangements and graphs, with registered expected edge
lists so loaders can re-validate the geometry against the combinatorics.

Names with a parameter are written as e.g. ``"k_partite 3"`` or
``"two_camps 4"``.
"""

from __future__ import annotations

from .geometry import Arrangement, _is_digits
from .graphs import MAX_VERTICES, Graph


class UnknownFixtureError(ValueError):
    pass


# Five 2-boxes whose intersection graph is the 5-cycle 1-2-5-4-3-1;
# agreement number 2, proportion 2/5.
_Z5 = Arrangement.of(2, [
    [(1, 4), (0, 5)],
    [(0, 2), (3, 12)],
    [(3, 6), (4, 6)],
    [(5, 7), (5, 10)],
    [(1, 6), (7, 9)],
])
_Z5_EDGES = ((1, 2), (1, 3), (2, 5), (3, 4), (4, 5))

# Eight 2-boxes realizing a 4-regular graph with 16 edges, clique number 3
# and 8 triangles.
_FIG38A = Arrangement.of(2, [
    [(5, 6), (0, 20)],
    [(15, 16), (0, 20)],
    [(0, 20), (5, 6)],
    [(0, 20), (15, 16)],
    [(2, 14), (1, 10)],
    [(1, 8), (7, 18)],
    [(12, 17), (4, 14)],
    [(7, 19), (13, 19)],
])
_FIG38A_EDGES = (
    (1, 3), (1, 4), (1, 5), (1, 6),
    (2, 3), (2, 4), (2, 7), (2, 8),
    (3, 5), (3, 7), (4, 6), (4, 8),
    (5, 6), (5, 7), (6, 8), (7, 8),
)

# Eight 2-boxes realizing a 17-edge graph with maximum degree 5, clique
# number 3 and 10 triangles.  Box 5's lower edge sits at y=4 so that boxes
# 5 and 8 stay disjoint.
_FIG38B = Arrangement.of(2, [
    [(1, 8), (7, 9)],
    [(0, 2), (3, 12)],
    [(1, 4), (0, 5)],
    [(3, 8), (2, 6)],
    [(5, 7), (4, 10)],
    [("3/2", 6), (4, 8)],
    [("13/2", 9), (1, 11)],
    [(-1, 10), ("1/2", "7/2")],
])
_FIG38B_EDGES = (
    (1, 2), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 6), (2, 8),
    (3, 4), (3, 6), (3, 8),
    (4, 5), (4, 6), (4, 7), (4, 8),
    (5, 6), (5, 7), (7, 8),
)

# The 16-edge graph above plus edges {1,2} and {6,7}: 18 edges, 12
# triangles, clique number still 3.  No box realization is bundled.
_FIG38C_EDGES = _FIG38A_EDGES + ((1, 2), (6, 7))

# 13-vertex, 8-regular graph with clique number 4 and 39 cliques of size 4,
# defined as the complement of the 4-regular, triangle-free graph below.
_FIG134_COMPLEMENT_EDGES = (
    (1, 2), (1, 3), (1, 7), (1, 9),
    (2, 4), (2, 8), (2, 10),
    (3, 4), (3, 6), (3, 12),
    (4, 5), (4, 11),
    (5, 7), (5, 9), (5, 12),
    (6, 8), (6, 9), (6, 10),
    (7, 10), (7, 11),
    (8, 11), (8, 12),
    (9, 13), (10, 13), (11, 13), (12, 13),
)

# Wheel with four spokes: 4-cycle 1-2-3-4 plus hub 5.
_W4_EDGES = ((1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5))

# Six 2-boxes illustrating exposure: box 1 is exposed by the horizontal
# hyperplane {y = 5/2} (boxes 2 and 6 meet it, the rest lie strictly below).
_EXPOSURE = Arrangement.of(2, [
    [("1/2", "7/4"), ("5/2", "7/2")],
    [("9/4", "17/4"), ("7/4", 4)],
    [("5/2", "7/2"), ("1/2", "11/5")],
    [(0, 4), ("5/4", 2)],
    [("1/2", "5/4"), ("1/2", "3/2")],
    [(1, 2), (0, 3)],
])
_EXPOSURE_EDGES = ((1, 6), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6))


def k_partite(d: int) -> Graph:
    """Complete d-partite graph on d pairs: all edges except {2i-1, 2i}.
    d is checked against the graph's vertex cap before any edge is listed."""
    if not 1 <= d <= MAX_VERTICES // 2:
        raise ValueError(f"need 1 <= d <= {MAX_VERTICES // 2}, got {d}")
    n = 2 * d
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if not (u % 2 == 1 and v == u + 1)
    ]
    return Graph(n, edges)


def two_camps(r: int) -> Arrangement:
    """Linear society of r copies of [0,1] and r copies of [2,3]; its graph
    is two disjoint r-cliques, agreement proportion 1/2.  r is checked
    against the graph's vertex cap before any box is built."""
    if not 1 <= r <= MAX_VERTICES // 2:
        raise ValueError(f"need 1 <= r <= {MAX_VERTICES // 2}, got {r}")
    boxes = [[(0, 1)]] * r + [[(2, 3)]] * r
    return Arrangement.of(1, boxes)


_STATIC = {
    "z5": (_Z5, "five 2-boxes; 5-cycle intersection graph, proportion 2/5"),
    "fig38a": (_FIG38A, "eight 2-boxes; 4-regular 16-edge graph, omega 3"),
    "fig38b": (_FIG38B, "eight 2-boxes; 17-edge graph, max degree 5, omega 3"),
    "fig38c": (Graph(8, _FIG38C_EDGES), "18-edge graph on 8 vertices, omega 3"),
    "fig134": (
        Graph(13, _FIG134_COMPLEMENT_EDGES).complement(),
        "13-vertex 8-regular graph, omega 4, 39 cliques of size 4",
    ),
    "w4": (Graph(5, _W4_EDGES), "wheel with four spokes"),
    "exposure": (_EXPOSURE, "six 2-boxes; box 1 exposed by {y = 5/2}"),
}

_PARAMETRIC = {
    "k_partite": (k_partite, "complete d-partite graph on d pairs (usage: k_partite <d>)"),
    "two_camps": (two_camps, "r+r copies of two disjoint intervals (usage: two_camps <r>)"),
}

_EXPECTED_EDGES = {
    "z5": _Z5_EDGES,
    "fig38a": _FIG38A_EDGES,
    "fig38b": _FIG38B_EDGES,
    "exposure": _EXPOSURE_EDGES,
}


def names() -> list[tuple[str, str]]:
    """Registered fixture names with one-line descriptions."""
    rows = [(k, desc) for k, (_, desc) in _STATIC.items()]
    rows += [(k, desc) for k, (_, desc) in _PARAMETRIC.items()]
    return sorted(rows)


def _unknown(name: str) -> UnknownFixtureError:
    available = ", ".join(k for k, _ in names())
    return UnknownFixtureError(f"unknown fixture {name!r}; available: {available}")


def load(name: str) -> Arrangement | Graph:
    """Look up a fixture by name, e.g. ``load("z5")`` or ``load("k_partite 3")``."""
    parts = name.split()
    if not parts:
        raise _unknown(name)
    if len(parts) == 1:
        if parts[0] in _STATIC:
            return _STATIC[parts[0]][0]
        if parts[0] in _PARAMETRIC:
            raise UnknownFixtureError(
                f"fixture {parts[0]!r} needs an integer argument, e.g. {parts[0]!r} 3"
            )
        raise _unknown(name)
    if len(parts) == 2 and parts[0] in _PARAMETRIC:
        if not _is_digits(parts[1]):  # read as graph files are: ASCII digits alone
            raise UnknownFixtureError(
                f"fixture {parts[0]!r} takes an integer argument, got {parts[1]!r}"
            )
        return _PARAMETRIC[parts[0]][0](int(parts[1]))
    raise _unknown(name)


def expected_graph(name: str) -> Graph:
    """The registered intersection graph of an arrangement fixture, built
    from its edge list independently of the geometry, so that the two can
    be cross-checked; a graph fixture is its own."""
    if name in _EXPECTED_EDGES:
        return Graph(_STATIC[name][0].n, _EXPECTED_EDGES[name])
    obj = load(name)
    if isinstance(obj, Graph):
        return obj
    raise UnknownFixtureError(f"no registered edge list for {name!r}")
