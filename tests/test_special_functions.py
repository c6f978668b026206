import math
from fractions import Fraction

import numpy as np
import pytest

from sturmverify import (
    BivariatePolynomial,
    PoleError,
    UnsupportedRegimeError,
    c_const,
    c_poch,
    gamma_m,
    gamma_m_pole_order,
    limit_factor,
    log_gamma_m,
    p_m_closed,
    p_m_closed_poly,
    p_m_poly,
)


def test_c_poch_exact_values():
    assert c_poch(0, Fraction(7, 3)) == 1
    assert c_poch(1, Fraction(5)) == 5
    # 1/2 * 1 * 3/2
    assert c_poch(3, Fraction(1, 2)) == Fraction(3, 4)
    assert c_poch(2, Fraction(-1, 2)) == Fraction(-1, 2) * Fraction(0)


def test_c_poch_recursion_and_float_path():
    rng = np.random.default_rng(5)
    for _ in range(50):
        length = int(rng.integers(0, 6))
        alpha = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
        assert c_poch(length + 1, alpha) == c_poch(length, alpha) * (alpha + Fraction(length, 2))
        got = c_poch(length, float(alpha))
        assert got == pytest.approx(float(c_poch(length, alpha)), rel=1e-13, abs=1e-300)


def test_c_poch_negative_length():
    with pytest.raises(ValueError):
        c_poch(-1, 1.0)


def test_gamma_m_genus_one_is_gamma():
    for s in (0.3, 1.0, 2.5, 7.25):
        assert gamma_m(1, s) == pytest.approx(math.gamma(s), rel=1e-15)


def test_gamma_m_genus_two_product_form():
    for s in (1.0, 1.75, 3.5):
        want = math.pi ** 0.5 * math.gamma(s) * math.gamma(s - 0.5)
        assert gamma_m(2, s) == pytest.approx(want, rel=1e-14)


def test_gamma_m_genus_three_product_form():
    s = 2.25
    want = math.pi ** 1.5 * math.gamma(s) * math.gamma(s - 0.5) * math.gamma(s - 1.0)
    assert gamma_m(3, s) == pytest.approx(want, rel=1e-14)


def test_gamma_m_overflow_raises():
    # one factor past math.gamma's range, and a product of finite factors past the double range
    for s in (400.0, 171.0):
        with pytest.raises(OverflowError, match="exceeds the double range"):
            gamma_m(2, s)
    assert math.isfinite(gamma_m(2, 80.0))


def test_gamma_m_shift_recursion(rng):
    # Gamma_m(s + 1) = Gamma_m(s) * prod_nu (s - nu/2)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        s = float(rng.uniform(0.5 * (m - 1) + 0.26, 6.0))
        factor = 1.0
        for nu in range(m):
            factor *= s - 0.5 * nu
        assert gamma_m(m, s + 1.0) == pytest.approx(gamma_m(m, s) * factor, rel=1e-12)


def test_gamma_m_pole_detection():
    # genus 2: factors Gamma(s) Gamma(s - 1/2); the two can never both be
    # at poles (they differ by a half), so the order stays 1
    assert gamma_m_pole_order(2, 0.5) == 1
    assert gamma_m_pole_order(2, 0.0) == 1
    assert gamma_m_pole_order(2, -0.5) == 1
    assert gamma_m_pole_order(2, 1.0) == 0
    assert gamma_m_pole_order(3, Fraction(1, 4)) == 0
    # genus 3 at s = 0: Gamma(0) and Gamma(-1) both blow up
    assert gamma_m_pole_order(3, 0.0) == 2
    with pytest.raises(PoleError) as err:
        gamma_m(3, 0.0)
    assert err.value.order == 2


def test_gamma_m_regular_at_negative_non_half_integers():
    # reflection region: all factors finite
    val = gamma_m(2, 0.3)
    want = math.pi ** 0.5 * math.gamma(0.3) * math.gamma(-0.2)
    assert val == pytest.approx(want, rel=1e-13)


def test_log_gamma_m_matches_value_and_sign():
    for m, s in ((1, 2.5), (2, 1.6), (3, 2.2), (2, 0.3)):
        logmag, sign = log_gamma_m(m, s)
        direct = gamma_m(m, s)
        assert sign == (1 if direct > 0 else -1)
        assert logmag == pytest.approx(math.log(abs(direct)), rel=1e-12)


def test_c_const_genus_one():
    for kappa in (2, 3, 4):
        want = (4 * math.pi) ** (-(kappa - 1)) * math.gamma(kappa - 1)
        assert c_const(1, kappa) == pytest.approx(want, rel=1e-14)


def test_c_const_positive_in_range():
    for m in range(1, 5):
        for kappa in range(m + 1, m + 5):
            assert c_const(m, kappa) > 0


class TestBivariatePolynomial:
    def test_algebra_is_exact(self):
        s = BivariatePolynomial.variable_s()
        z = BivariatePolynomial.variable_z()
        p = (s + z) * (s - z)
        assert p == s * s - z * z
        assert p(Fraction(3), Fraction(2)) == Fraction(5)

    def test_shift_is_substitution(self):
        s = BivariatePolynomial.variable_s()
        z = BivariatePolynomial.variable_z()
        p = s * s * z + 2 * z
        shifted = p.shift(ds=Fraction(-1, 2), dz=Fraction(1, 2))
        for sv in (Fraction(0), Fraction(2), Fraction(-3, 2)):
            for zv in (Fraction(1), Fraction(-1, 3)):
                assert shifted(sv, zv) == p(sv - Fraction(1, 2), zv + Fraction(1, 2))

    def test_shift_composes(self):
        s = BivariatePolynomial.variable_s()
        z = BivariatePolynomial.variable_z()
        p = s * z * z - 3 * s + z
        twice = p.shift(ds=Fraction(1, 2)).shift(ds=Fraction(1, 2))
        assert twice == p.shift(ds=Fraction(1))

    def test_float_eval(self):
        s = BivariatePolynomial.variable_s()
        p = s * s - Fraction(1, 4)
        assert p(0.5, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_rejects_float_coefficients(self):
        with pytest.raises((TypeError, ValueError)):
            BivariatePolynomial.constant(0.25)


def test_pm_identity_exact():
    for m in range(1, 9):
        assert p_m_poly(m) == p_m_closed_poly(m)


def test_pm_closed_poly_is_z_free():
    for m in range(1, 7):
        poly = p_m_closed_poly(m)
        assert all(dz == 0 for (_, dz) in poly.coeffs)


def test_pm_recursion_exact():
    s = BivariatePolynomial.variable_s()
    z = BivariatePolynomial.variable_z()
    for m in range(1, 9):
        prev = p_m_poly(m)
        nxt = z * prev.shift(ds=Fraction(-1, 2), dz=Fraction(1, 2)) - (z + s) * prev.shift(
            ds=Fraction(-1, 2)
        )
        assert nxt == p_m_poly(m + 1)


def test_pm_closed_scalar_matches_poly(rng):
    for _ in range(40):
        m = int(rng.integers(1, 7))
        s = float(rng.uniform(-3, 4))
        poly_val = float(p_m_poly(m)(Fraction(s), Fraction(17, 3)))
        assert p_m_closed(m, s) == pytest.approx(poly_val, rel=1e-12, abs=1e-12)


def test_pm_closed_roots_exact():
    # roots at s = j/2 for j < m
    assert p_m_closed(2, 0.5) == 0.0
    assert p_m_closed(3, 1.0) == 0.0
    assert p_m_closed(5, 1.5) == 0.0


def test_limit_factor_weight_below_range():
    with pytest.raises(UnsupportedRegimeError):
        limit_factor(3, 1)
    with pytest.raises(UnsupportedRegimeError):
        limit_factor(2, 0)


def test_limit_factor_vanishing_weights_exact_zero():
    for m in range(2, 6):
        for k in range(m, m + 4):
            assert limit_factor(m, k) == 0.0


def test_limit_factor_critical_weight_frozen_values():
    assert limit_factor(1, 0) == pytest.approx(-4 * math.pi, rel=1e-13)
    assert limit_factor(2, 1) == pytest.approx(-16 * math.pi ** 2, rel=1e-13)
    assert limit_factor(3, 2) == pytest.approx(-((4 * math.pi) ** 3), rel=1e-13)
    assert limit_factor(4, 3) == pytest.approx(-((4 * math.pi) ** 4), rel=1e-13)


def test_limit_factor_critical_weight_general(rng):
    # at k = m-1 the limit is always exactly -(4 pi)^m
    for m in range(1, 9):
        assert limit_factor(m, m - 1) == pytest.approx(-((4 * math.pi) ** m), rel=1e-12)
