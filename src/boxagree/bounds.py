"""Closed-form bound evaluation: the convex fractional-Helly proportion, the
1/(2d) lower bound, the iterated root-map bound, edge-count bounds, and the
quadratic-growth cap on maximal agreeable graph sizes.

Reals are double precision.  `root_map`, `gamma_lower` (d = 1..1000) and
`beta_convex` are evaluated without cancellation and stay within 1e-12
relative error of a decimal evaluation good to 60 digits; where a bound has
a closed surd form it is also carried exactly as a RadicalExpression so
regression tests can compare symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate


@dataclass(frozen=True)
class RadicalExpression:
    """Exact value of the form rational + coeff * sqrt(radicand)."""

    rational: Fraction
    coeff: Fraction
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.radicand < 0:
            raise ValueError("radicand must be non-negative")

    def value(self) -> float:
        return float(self.rational) + float(self.coeff) * math.sqrt(self.radicand)

    def __str__(self) -> str:
        return f"{self.rational} + {self.coeff}*sqrt({self.radicand})"


#: Exact value of root_map(1/2): (5 - sqrt(13)) / 6.
ROOT_MAP_AT_HALF = RadicalExpression(Fraction(5, 6), Fraction(-1, 6), Fraction(13))

#: Exact value of beta_convex(2, 3, 1): 1 - sqrt(2/3).
BETA_2_3_1 = RadicalExpression(Fraction(1), Fraction(-1), Fraction(2, 3))


def beta_convex(k: int, m: int, d: int) -> float:
    """Agreement-proportion lower bound for (k,m)-agreeable convex families
    in dimension d: 1 - (1 - C(k,d+1)/C(m,d+1))^(1/(d+1)).

    Binomials vanish below the diagonal, so the bound is 0 whenever k <= d:
    m hyperplanes in general position in R^d are k-wise intersecting, yet no
    point lies on d + 1 of them.  For k == m >= d + 1 the two binomials
    cancel and the bound is 1, which is Helly's theorem.
    """
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    num = math.comb(k, d + 1)
    if num == 0:
        return 0.0
    ratio = num / math.comb(m, d + 1)
    if ratio == 1.0:
        return 1.0
    # 1 - (1 - ratio)^(1/(d+1)) without the cancellation of two numbers near 1
    return -math.expm1(math.log1p(-ratio) / (d + 1))


def main_lower_bound(d: int) -> Fraction:
    """Agreement proportion of any (2,3)-agreeable d-box society: >= 1/(2d)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return Fraction(1, 2 * d)


def root_map(x: float) -> float:
    """The map (-2 - x + sqrt(4 - 4x + 5x^2)) / (2(x - 2)) on [0, 1].

    This is the limit of (smaller quadratic root)/n in the edge-count
    sandwich; iterating it from 1/2 descends through the per-dimension
    proportion bounds.  Fixed point at 0; exact value at 1/2 is
    ROOT_MAP_AT_HALF.  It is evaluated as 2x / (2 + x + sqrt(4 - 4x + 5x^2)),
    the same function times the conjugate over itself, which subtracts no
    two numbers near 2 and so keeps small x to full relative precision.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"root_map domain is [0, 1], got {x}")
    return 2.0 * x / (2.0 + x + math.sqrt(4.0 - 4.0 * x + 5.0 * x * x))


def gamma_lower(d: int) -> float:
    """Box-society agreement proportion lower bound: root_map iterated d-1
    times starting from 1/2."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    x = 0.5
    for _ in range(d - 1):
        x = root_map(x)
    return x


def edge_lower_bound(n: int, omega: int) -> Fraction:
    """Minimum edge count of a (2,3)-agreeable graph: n(n - omega - 1)/2,
    clamped at zero.  Sharp (the 5-cycle attains it at n=5, omega=2)."""
    if not 1 <= omega <= n:
        raise ValueError(f"need 1 <= omega <= n, got omega={omega}, n={n}")
    return max(Fraction(0), Fraction(n * (n - omega - 1), 2))


def eta_quadratic_bound(r: int) -> int:
    """Quadratic growth cap r(r+3)/2 on the maximal (2,3)-agreeable graph
    size with clique number at most r."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    return r * (r + 3) // 2


def quadratic_coefficients(n: int, gamma: float) -> tuple[float, float, float]:
    """(a, b, c) of the sandwich inequality written as a quadratic in r:
    (gamma-2) r^2 + (2n + gamma n + 2 - gamma) r + (-gamma n^2 - 2n + gamma n) >= 0.
    """
    a = gamma - 2.0
    b = 2.0 * n + gamma * n + 2.0 - gamma
    c = -gamma * n * n - 2.0 * n + gamma * n
    return a, b, c


def quadratic_min_root(n: int, gamma: float) -> float:
    """Smaller root of the sandwich quadratic in r; the clique number of an
    n-vertex society must sit at or above it.  As n grows, root/n tends to
    root_map(gamma)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"need 0 < gamma <= 1, got {gamma}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a, b, c = quadratic_coefficients(n, gamma)
    disc = b * b - 4.0 * a * c
    if disc < 0:  # pragma: no cover - the discriminant is provably >= 0 here
        raise ArithmeticError(f"negative discriminant {disc} for n={n}, gamma={gamma}")
    # a < 0, so the branch with +sqrt is the smaller root
    return (-b + math.sqrt(disc)) / (2.0 * a)


def comparison_table(d_max: int = 5) -> list[tuple[int, Fraction, float]]:
    """Rows (d, 1/(2d), iterated root-map bound) for d = 1..d_max; each row's
    bound is the one before it with one more `root_map`, as `gamma_lower`
    iterates it.  The cost grows with d_max, so d_max stops at 1000, where
    the module's accuracy guarantee for `gamma_lower` stops too."""
    if not 1 <= d_max <= 1000:
        raise ValueError(f"need 1 <= d_max <= 1000, got {d_max}")
    gammas = accumulate(range(1, d_max), lambda x, _: root_map(x), initial=0.5)
    return [(d, main_lower_bound(d), g) for d, g in zip(range(1, d_max + 1), gammas)]
