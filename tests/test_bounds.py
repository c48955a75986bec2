import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
import sympy

from boxagree import (
    BETA_2_3_1,
    ROOT_MAP_AT_HALF,
    beta_convex,
    comparison_table,
    edge_lower_bound,
    eta_quadratic_bound,
    gamma_lower,
    main_lower_bound,
    quadratic_min_root,
    root_map,
)
from boxagree import bounds
from boxagree.bounds import quadratic_coefficients
from boxagree.verify import PRINTED_TABLE, printed_value_matches


def test_beta_line_case():
    assert abs(beta_convex(2, 3, 1) - (1 - math.sqrt(2 / 3))) < 1e-12
    assert abs(beta_convex(2, 3, 1) - 0.1835) < 5e-5
    assert abs(BETA_2_3_1.value() - beta_convex(2, 3, 1)) < 1e-12


def test_beta_plane_blind_spot():
    assert beta_convex(2, 3, 2) == 0.0


def test_beta_k_equals_m():
    # Helly's theorem gives 1 once m >= d + 1; below it, m hyperplanes in
    # general position meet m at a time but no point lies on d + 1 of them
    for m in (2, 3, 5):
        for d in (1, 2, 4):
            assert beta_convex(m, m, d) == (1.0 if m > d else 0.0)


def test_beta_zero_whenever_k_at_most_d():
    for k in range(2, 6):
        for m in range(k + 1, 8):
            for d in range(k, 8):
                assert beta_convex(k, m, d) == 0.0


def test_beta_positive_above_dimension():
    assert beta_convex(3, 4, 2) > 0
    assert beta_convex(4, 6, 3) > 0


def test_beta_matches_a_decimal_oracle():
    # 1 - (1 - ratio)^(1/(d+1)) at 60 digits; the float code must not lose
    # the small bounds to cancellation, e.g. (8, 197, 7) was 0.5% off
    worst = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for k in range(2, 12):
            for m in [*range(k, 220, 7), 197]:
                for d in range(1, 10):
                    got = beta_convex(k, m, d)
                    num = math.comb(k, d + 1)
                    if num == 0:
                        assert got == 0.0
                        continue
                    ratio = Decimal(num) / math.comb(m, d + 1)
                    exact = 1 - (1 - ratio) ** (Decimal(1) / (d + 1))
                    assert got > 0
                    worst = max(worst, abs(Decimal(got) - exact) / exact)
    assert worst <= Decimal("1e-12")


def test_beta_preconditions():
    with pytest.raises(ValueError):
        beta_convex(1, 3, 1)
    with pytest.raises(ValueError):
        beta_convex(3, 2, 1)
    with pytest.raises(ValueError):
        beta_convex(2, 3, 0)


def test_main_lower_bound_values():
    assert main_lower_bound(1) == Fraction(1, 2)
    assert main_lower_bound(2) == Fraction(1, 4)
    assert main_lower_bound(3) == Fraction(1, 6)
    with pytest.raises(ValueError):
        main_lower_bound(0)


def test_root_map_fixed_point_and_half():
    assert root_map(0.0) == 0.0
    exact = (5 - math.sqrt(13)) / 6
    assert abs(root_map(0.5) - exact) < 1e-12
    assert ROOT_MAP_AT_HALF.rational == Fraction(5, 6)
    assert ROOT_MAP_AT_HALF.coeff == Fraction(-1, 6)
    assert ROOT_MAP_AT_HALF.radicand == Fraction(13)
    assert abs(ROOT_MAP_AT_HALF.value() - exact) < 1e-15


def test_root_map_iterated_twice():
    assert abs(root_map(root_map(0.5)) - 0.11) < 0.01


def test_root_map_domain():
    with pytest.raises(ValueError):
        root_map(-0.1)
    with pytest.raises(ValueError):
        root_map(1.1)


def test_root_map_monotone_and_contracting():
    xs = [i / 1000 for i in range(1001)]
    values = [root_map(x) for x in xs]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(root_map(x) < x for x in xs if x > 0)


def test_gamma_lower_values():
    assert gamma_lower(1) == 0.5
    assert abs(gamma_lower(2) - 0.23) < 0.01
    assert abs(gamma_lower(5) - 0.02) < 0.01


def test_gamma_lower_matches_a_decimal_oracle():
    # The oracle iterates the map as written, (-2 - x + sqrt(...)) / (2(x - 2)).
    # Its numerator cancels about log10(1/x) digits (x is near 1e-301 at
    # d = 1000), so it runs at 400 digits to keep 60 after the cancellation.
    with localcontext() as ctx:
        ctx.prec = 400
        x = Decimal(1) / 2
        for d in range(1, 1001):
            got = gamma_lower(d)
            assert got > 0
            assert abs(Decimal(got) - x) / x <= Decimal("1e-12")
            x = (-2 - x + (4 - 4 * x + 5 * x * x).sqrt()) / (2 * (x - 2))


def test_printed_table_reproduction():
    for d, (main_str, gamma_str) in PRINTED_TABLE.items():
        assert printed_value_matches(float(main_lower_bound(d)), main_str)
        assert printed_value_matches(gamma_lower(d), gamma_str)


def test_main_dominates_gamma():
    for d in range(1, 21):
        assert float(main_lower_bound(d)) >= gamma_lower(d) - 1e-12


def test_comparison_table_shape():
    rows = comparison_table(5)
    assert [d for d, _, _ in rows] == [1, 2, 3, 4, 5]
    assert rows[0][1] == Fraction(1, 2) and rows[0][2] == 0.5
    for d_max in (0, 1001):
        with pytest.raises(ValueError, match="need 1 <= d_max <= 1000"):
            comparison_table(d_max)


def test_comparison_table_maps_once_per_row(monkeypatch):
    # each row carries the last one's bound on by one root_map, so the cost
    # is linear in d_max; the values are gamma_lower's to the bit
    calls = []
    real_root_map = bounds.root_map

    def counted(x):
        calls.append(x)
        return real_root_map(x)

    monkeypatch.setattr(bounds, "root_map", counted)
    rows = comparison_table(200)
    assert len(calls) == 199
    monkeypatch.undo()
    assert rows == [(d, main_lower_bound(d), gamma_lower(d)) for d in range(1, 201)]


def test_edge_lower_bound_values():
    assert edge_lower_bound(5, 2) == 5
    assert edge_lower_bound(8, 3) == 16
    assert edge_lower_bound(6, 5) == 0
    assert edge_lower_bound(7, 2) == Fraction(14)
    with pytest.raises(ValueError):
        edge_lower_bound(3, 4)


def test_eta_quadratic_bound_values():
    assert eta_quadratic_bound(1) == 2
    assert eta_quadratic_bound(4) == 14
    assert eta_quadratic_bound(5) == 20
    with pytest.raises(ValueError):
        eta_quadratic_bound(0)


def test_quadratic_root_asymptotics():
    n = 10**6
    assert abs(quadratic_min_root(n, 0.5) / n - root_map(0.5)) < 1e-4


def test_quadratic_root_finite_positive_for_small_n():
    for n in range(5, 40):
        root = quadratic_min_root(n, 0.5)
        assert 0 < root < n


def test_quadratic_root_is_a_root_and_smaller():
    for n in (10, 100, 1000):
        for gamma in (0.1, 0.5, 1.0):
            a, b, c = quadratic_coefficients(n, gamma)
            r = quadratic_min_root(n, gamma)
            assert abs(a * r * r + b * r + c) < 1e-6 * max(1.0, abs(c))
            other = (-b - math.sqrt(b * b - 4 * a * c)) / (2 * a)
            assert r <= other


def test_quadratic_discriminant_symbolic():
    n, g = sympy.symbols("n g", positive=True)
    b = 2 * n + g * n + 2 - g
    a = g - 2
    c = -g * n**2 - 2 * n + g * n
    disc = sympy.expand(b**2 - 4 * a * c)
    expected = sympy.expand((2 * n + g * n + 2 - g) ** 2
                            - 4 * (g - 2) * (-g * n**2 - 2 * n + g * n))
    assert sympy.simplify(disc - expected) == 0
    for nv in (2, 5, 50, 1000):
        for gv in (Fraction(1, 100), Fraction(1, 2), 1):
            assert disc.subs({n: nv, g: sympy.Rational(gv)}) >= 0


def test_quadratic_root_preconditions():
    with pytest.raises(ValueError):
        quadratic_min_root(1, 0.5)
    with pytest.raises(ValueError):
        quadratic_min_root(10, 0.0)
    with pytest.raises(ValueError):
        quadratic_min_root(10, 1.5)
