"""Exposed boxes, arrangement splitting, and the edge-count recurrences that
fall out of the split identity f_k(B) = f_k(B') + f_{k-1}(B'').

A box is exposed when an axis-parallel hyperplane supports it and every box
missing that hyperplane lies in the opposite half-space.  The box whose
lower endpoint c on axis 1 is largest is exposed by {x_1 = c}: every other
box has lo <= c, so one that misses the hyperplane has hi < c and lies on
the far side.  That lemma is why `find_exposed` returns its one candidate
unchecked; `validate_exposure` is the independent check that tests and
`verify-paper` apply to it.  Note the naive sweep picture (move a
hyperplane in from infinity; the first box it touches is exposed) picks the
largest *upper* endpoint instead and can fail the opposite-side condition,
e.g. for [0,10] and [2,3] on a line.

Splitting at box i leaves B', the family without box i, and B'', the pieces
B_i & B_j.  The intersection graph of B' is G - i, and by the Helly property
its cliques count f(B'); so B' is read off the arrangement's cached graph
and only B'' is swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .geometry import (Arrangement, Box, FVector, _lt, f_vector,
                       intersect_boxes, intersection_graph)
from .graphs import clique_counts
from .search import default_eta_table


@dataclass(frozen=True)
class ExposureCertificate:
    """Box `box_index` is exposed by the hyperplane {x_axis = coordinate},
    which supports the named face of the box."""

    box_index: int
    axis: int  # 1..d
    side: str  # "lower" | "upper"
    coordinate: Fraction


def validate_exposure(arr: Arrangement, cert: ExposureCertificate) -> bool:
    """Check the two defining conditions directly: the hyperplane supports
    the box on the named face, and every box disjoint from the hyperplane
    sits strictly on the other side.  A box index, axis or side out of range
    is not a certificate, so it gets False."""
    if not (1 <= cert.box_index <= arr.n and 1 <= cert.axis <= arr.dimension
            and cert.side in ("lower", "upper")):
        return False
    q = arr.box(cert.box_index).sides[cert.axis - 1]
    c = cert.coordinate
    if (q.lo if cert.side == "lower" else q.hi) != c:
        return False  # the hyperplane does not support the named face
    for j, box in enumerate(arr.boxes, start=1):
        if j == cert.box_index:
            continue
        side = box.sides[cert.axis - 1]
        if side.contains(c):
            continue  # meets the hyperplane
        if cert.side == "lower" and side.lo > c:
            return False  # same (upper) side as the exposed box
        if cert.side == "upper" and side.hi < c:
            return False
    return True


def find_exposed(arr: Arrangement) -> ExposureCertificate:
    """The lemma's certificate: axis 1, lower face, the least index whose
    lower endpoint there is the largest, c; the hyperplane is {x_1 = c}.
    The module docstring proves it exposed, so it is not re-validated."""
    lows = [b.sides[0].lo for b in arr.boxes]
    i = 0
    for j in range(1, arr.n):
        if _lt(lows[i], lows[j]):
            i = j
    return ExposureCertificate(i + 1, 1, "lower", lows[i])


def split(arr: Arrangement, i: int) -> dict[int, Box | None]:
    """B'' for box i: a map from each other index j to B_i & B_j, None where
    they miss, so the keys stay the indices of B' (G - i)."""
    if arr.n < 2:
        raise ValueError("splitting needs at least two boxes")
    bi = arr.box(i)
    return {
        j: intersect_boxes(bi, arr.box(j))
        for j in range(1, arr.n + 1)
        if j != i
    }


def _f_partial(dimension: int, pieces: dict[int, Box | None]) -> FVector:
    """f-vector of the present members of an optional-box family; a subset
    counts only when every member is present and they intersect."""
    present = [b for b in pieces.values() if b is not None]
    if not present:
        return FVector((0,))
    return f_vector(Arrangement(dimension, tuple(present)))


def split_identity_failures(arr: Arrangement) -> tuple[int, ...]:
    """The k in 1..n-1 where f_k(B) == f_k(B') + f_{k-1}(B'') fails, with
    the split taken once at the exposed box.  f(B) is the arrangement's
    cached f-vector and f(B') the clique counts of G - i; only B'' is
    swept.  Each side counts cliques of every size in one traversal, so all
    k cost what one does."""
    pieces = split(arr, find_exposed(arr).box_index)
    # row k holds f_k(B), f_k(B') and f_{k-1}(B''), 0 past each stored range;
    # B' is G - i, whose vertices are the keys of `pieces`
    rows = zip_longest(
        f_vector(arr).entries[1:],
        clique_counts(intersection_graph(arr).induced(pieces))[1:],
        _f_partial(arr.dimension, pieces).entries,
        fillvalue=0,
    )
    return tuple(k for k, (whole, kept, partial) in enumerate(rows, start=1)
                 if whole != kept + partial)


def verify_split_identity(arr: Arrangement, k: int) -> bool:
    """Evaluate f_k(B) == f_k(B') + f_{k-1}(B'') with the split taken at the
    exposed box (see `split_identity_failures`)."""
    if not 1 <= k <= arr.n - 1:
        raise ValueError(f"need 1 <= k <= n-1 = {arr.n - 1}, got {k}")
    return k not in split_identity_failures(arr)


def e_upper_recurrence(n: int, r: int, d: int) -> int:
    """Edge-count upper bound from unrolling e(n) <= e(n-1) + eta(r-1, d-1)
    down to the r-clique base case: C(r,2) + (n-r) * eta(r-1, d-1).

    The eta table supplies eta(r-1, d-1) exactly for d-1 in {0, 1} and falls
    back to the dimension-free value (or its upper bound) otherwise; a
    MissingEtaError names any entry it cannot provide.
    """
    if not (n >= r >= 2 and d >= 1):
        raise ValueError(f"need n >= r >= 2 and d >= 1, got n={n}, r={r}, d={d}")
    return math.comb(r, 2) + (n - r) * default_eta_table().eta_dim(r - 1, d - 1)


def e_upper_closed(n: int, r: int, d: int, gamma_prev: float | Fraction):
    """Closed-form edge bound C(r,2) + (n-r)(r-1)/gamma(d-1); exact when
    gamma_prev is a Fraction, float otherwise."""
    if not (n >= r >= 2 and d >= 1):
        raise ValueError(f"need n >= r >= 2 and d >= 1, got n={n}, r={r}, d={d}")
    if gamma_prev <= 0:
        raise ValueError(f"need gamma_prev > 0, got {gamma_prev}")
    return math.comb(r, 2) + (n - r) * (r - 1) / gamma_prev
