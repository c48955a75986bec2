"""Exposed boxes, arrangement splitting, and the edge-count recurrences that
fall out of the split identity f_k(B) = f_k(B') + f_{k-1}(B'').

A box is exposed when an axis-parallel hyperplane supports it and every box
missing that hyperplane lies in the opposite half-space.  The box whose
lower endpoint c on axis 1 is largest is exposed by {x_1 = c}: every other
box has lo <= c, so one that misses the hyperplane has hi < c and lies on
the far side.  That one candidate is all `find_exposed` builds, and an
independent validator still checks it.  Note the naive sweep picture (move
a hyperplane in from infinity; the first box it touches is exposed) picks
the largest *upper* endpoint instead and can fail the opposite-side
condition, e.g. for [0,10] and [2,3] on a line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .geometry import Arrangement, Box, FVector, f_vector, intersect_boxes
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
    sits strictly on the other side."""
    if not 1 <= cert.axis <= arr.dimension:
        return False
    if cert.side not in ("lower", "upper"):
        return False
    q = arr.box(cert.box_index).sides[cert.axis - 1]
    c = cert.coordinate
    if cert.side == "lower":
        if q.lo != c:
            return False
    else:
        if q.hi != c:
            return False
    for j in range(1, arr.n + 1):
        if j == cert.box_index:
            continue
        side = arr.box(j).sides[cert.axis - 1]
        if side.contains(c):
            continue  # meets the hyperplane
        if cert.side == "lower" and side.lo > c:
            return False  # same (upper) side as the exposed box
        if cert.side == "upper" and side.hi < c:
            return False
    return True


def find_exposed(arr: Arrangement) -> ExposureCertificate:
    """The lemma's certificate: axis 1, lower face, the least index whose
    lower endpoint there is the largest, c; the hyperplane is {x_1 = c}."""
    lows = [b.sides[0].lo for b in arr.boxes]
    c = max(lows)
    cert = ExposureCertificate(lows.index(c) + 1, 1, "lower", c)
    if not validate_exposure(arr, cert):  # pragma: no cover - see the module docstring
        raise RuntimeError("no exposed box found; arrangement state corrupt")
    return cert


def split(arr: Arrangement, i: int) -> tuple[Arrangement, dict[int, Box | None]]:
    """Drop box i, and intersect it with every other box.

    Returns (the n-1 remaining boxes as an arrangement, a map from each
    other original index to its intersection with box i, absent entries
    kept as None)."""
    if arr.n < 2:
        raise ValueError("splitting needs at least two boxes")
    bi = arr.box(i)
    rest = arr.drop(i)
    pieces = {
        j: intersect_boxes(bi, arr.box(j))
        for j in range(1, arr.n + 1)
        if j != i
    }
    return rest, pieces


def _f_partial(dimension: int, pieces: dict[int, Box | None]) -> FVector:
    """f-vector of the present members of an optional-box family; a subset
    counts only when every member is present and they intersect."""
    present = [b for b in pieces.values() if b is not None]
    if not present:
        return FVector((0,))
    return f_vector(Arrangement(dimension, tuple(present)))


def split_identity_failures(arr: Arrangement) -> tuple[int, ...]:
    """The k in 1..n-1 where f_k(B) == f_k(B') + f_{k-1}(B'') fails, with
    the split taken once at the exposed box.  Each side counts cliques of
    every size in one traversal of its own intersection graph, so all k
    cost what one does."""
    cert = find_exposed(arr)
    rest, pieces = split(arr, cert.box_index)
    # row k holds f_k(B), f_k(B') and f_{k-1}(B''), 0 past each stored range
    rows = zip_longest(
        f_vector(arr).entries[1:],
        f_vector(rest).entries[1:],
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
