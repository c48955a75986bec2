"""Exposed boxes, arrangement splitting, and the edge-count recurrences that
fall out of the split identity f_k(B) = f_k(B') + f_{k-1}(B'').

A box is exposed when an axis-parallel hyperplane supports it and every box
missing that hyperplane lies in the opposite half-space.  The box whose
lower endpoint c on axis 1 is largest is exposed by {x_1 = c}: every other
box has lo <= c, so one that misses the hyperplane has hi < c and lies on
the far side.  That lemma is why `find_exposed` returns its one candidate
unchecked, read off the arrangement's integer grid; `validate_exposure` is
the independent check that tests and `verify-paper` apply to it.  It also
reads the grid: it cross-multiplies the certificate's coordinate p/q with
each endpoint e on the axis's scale s, comparing e*q with p*s, exact
because q and s are positive.  Note the naive sweep
picture (move a hyperplane in from infinity; the first box it touches is
exposed) picks the largest *upper* endpoint instead and can fail the
opposite-side condition, e.g. for [0,10] and [2,3] on a line.

Splitting at box i leaves B', the family without box i, and B'', the pieces
B_i & B_j.  The intersection graph of B' is G - i, and by the Helly property
its cliques count f(B'); so B' is read off the arrangement's cached graph
and only B'' is swept.  B'' is built once on the parent's grid, each piece
the max of the lows and the min of the highs, and is itself a grid-backed
arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .geometry import Arrangement, _pair, f_vector, intersection_graph
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
    p, q = _pair(cert.coordinate)
    axis = cert.axis - 1
    c = p * arr._scales[axis]  # the hyperplane, times q and the axis's scale
    lows, highs = arr._lows[axis], arr._highs[axis]
    face = lows if cert.side == "lower" else highs
    if face[cert.box_index - 1] * q != c:
        return False  # the hyperplane does not support the named face
    for lo, hi in zip(lows, highs):
        lo, hi = lo * q, hi * q
        if lo <= c <= hi:
            continue  # meets the hyperplane, as the exposed box does
        if cert.side == "lower" and lo > c:
            return False  # same (upper) side as the exposed box
        if cert.side == "upper" and hi < c:
            return False
    return True


def find_exposed(arr: Arrangement) -> ExposureCertificate:
    """The lemma's certificate: axis 1, lower face, the least index whose
    lower endpoint there is the largest, c; the hyperplane is {x_1 = c}.
    The module docstring proves it exposed, so it is not re-validated."""
    lows = arr._lows[0]
    c = max(lows)
    return ExposureCertificate(lows.index(c) + 1, 1, "lower", Fraction(c, arr._scales[0]))


def split(arr: Arrangement, i: int) -> tuple[tuple[int, ...], Arrangement | None]:
    """B'' for box i: the other indices j whose box meets box i, ascending,
    and the arrangement of their pieces B_i & B_j in that order, or None
    when box i meets no other box."""
    if arr.n < 2:
        raise ValueError("splitting needs at least two boxes")
    if not 1 <= i <= arr.n:
        raise IndexError(f"box index {i} out of range 1..{arr.n}")
    i -= 1
    met = [j for j in range(arr.n) if j != i]
    axes = []
    for scale, lows, highs in zip(arr._scales, arr._lows, arr._highs):
        lo, hi = lows[i], highs[i]
        starts = [x if x > lo else lo for x in lows]  # max of the two lows
        ends = [x if x < hi else hi for x in highs]  # min of the two highs
        met = [j for j in met if starts[j] <= ends[j]]
        axes.append((scale, starts, ends))
    if not met:
        return (), None
    pieces = Arrangement._of_grid(arr.dimension, [
        (scale, [starts[j] for j in met], [ends[j] for j in met])
        for scale, starts, ends in axes])
    return tuple(j + 1 for j in met), pieces


def split_identity_failures(arr: Arrangement) -> tuple[int, ...]:
    """The k in 1..n-1 where f_k(B) == f_k(B') + f_{k-1}(B'') fails, with
    the split taken once at the exposed box.  f(B) is the clique counts
    that the arrangement's graph keeps and f(B') those of G - i; only B''
    is swept.  Each side counts cliques of every size in one traversal, so
    all k cost what one does."""
    i = find_exposed(arr).box_index
    _, pieces = split(arr, i)
    # row k holds f_k(B), f_k(B') and f_{k-1}(B''), 0 past each stored range
    rows = zip_longest(
        f_vector(arr).entries[1:],
        clique_counts(intersection_graph(arr).induced(
            j for j in range(1, arr.n + 1) if j != i))[1:],
        () if pieces is None else f_vector(pieces).entries,
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
