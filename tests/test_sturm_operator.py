import math

import numpy as np
import pytest

from sturmverify import (
    FourierExpansion,
    HalfIntegralForm,
    MonteCarloParams,
    PoleError,
    UnsupportedRegimeError,
    a_closed,
    a_closed_qsum,
    limit_factor,
    maass_coeff_factor,
    phantom_coeff,
    phantom_series,
    sturm_limit,
    sturm_numeric,
)
from conftest import half_integral

FOUR_PI = 4 * math.pi
UNIT2 = HalfIntegralForm(((2, 0), (0, 2)))  # det(T) = 1
UNIT3 = HalfIntegralForm(((2, 0, 0), (0, 2, 0), (0, 0, 2)))


def scaled_identity_form(m):
    return HalfIntegralForm(tuple(tuple(2 if i == j else 0 for j in range(m)) for i in range(m)))


class TestClosedCoefficient:
    def test_genus_one_frozen(self):
        # z0 = 1, arg = 2, Gamma_1(2) = 1, polynomial -s at s=1
        form = HalfIntegralForm(((2,),))
        want = -3.0 / (16 * math.pi**2)
        assert a_closed(1, 1, 1.0, form, 3.0) == pytest.approx(want, rel=1e-14)

    def test_genus_two_frozen(self):
        # Gamma_2(5/2) = (3/4) pi, (4 pi)^{-5}, polynomial s(s-1/2) at s=1
        want = 3.0 / (8192 * math.pi**4)
        assert a_closed(2, 2, 1.0, UNIT2, 1.0) == pytest.approx(want, rel=1e-13)

    def test_polynomial_roots_give_exact_zero(self):
        assert a_closed(2, 2, 0.5, UNIT2, 1.7) == 0.0
        assert a_closed(3, 3, 1.0, UNIT3, 1.0) == 0.0
        assert a_closed(3, 3, 0.5, UNIT3, -2.0) == 0.0

    def test_gamma_pole_raises(self):
        form = HalfIntegralForm(((2,),))
        with pytest.raises(PoleError) as info:
            a_closed(1, 1, -1.0, form, 1.0)
        assert info.value.order >= 1

    def test_branches_agree_random(self, rng):
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, 7))
            s = float(rng.uniform(0.51, 3.99))
            form = HalfIntegralForm(half_integral(rng, m))
            b_t = float(rng.uniform(-2.0, 2.0)) or 1.0
            lhs = a_closed(m, k, s, form, b_t)
            rhs = a_closed_qsum(m, k, s, form, b_t)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        assert worst <= 1e-11

    def test_branches_agree_near_polynomial_root(self):
        # the alternating sum cancels violently here; the exact-rational
        # accumulation must keep both branches glued together
        form = scaled_identity_form(5)
        s = 2.0 + 1e-9
        lhs = a_closed(5, 5, s, form, 1.0)
        rhs = a_closed_qsum(5, 5, s, form, 1.0)
        assert abs(lhs) < 1e-25  # genuinely deep in the cancellation zone
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestPhantomCoefficient:
    def test_frozen_genus_two(self):
        assert phantom_coeff(2, UNIT2, 1.0) == pytest.approx(-16 * math.pi**2, rel=1e-15)

    def test_frozen_genus_three(self):
        form = HalfIntegralForm(((2, 1, 0), (1, 2, 0), (0, 0, 2)))
        # det(2T) = 6 so det(T) = 3/4
        want = -(FOUR_PI**3) * 1.5
        assert phantom_coeff(3, form, 2.0) == pytest.approx(want, rel=1e-15)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            phantom_coeff(3, UNIT2, 1.0)

    def test_series_requires_critical_weight(self):
        h = FourierExpansion(2, 4, {UNIT2: 1.0})
        with pytest.raises(UnsupportedRegimeError):
            phantom_series(h)

    def test_series_termwise_exact(self):
        other = HalfIntegralForm(((4, 2), (2, 2)))
        h = FourierExpansion(2, 1, {UNIT2: 2.0, other: -0.5})
        image = phantom_series(h)
        assert image.m == 2 and image.k == 3
        assert set(image.terms) == set(h.terms)
        for form, b in h.terms.items():
            assert image.terms[form] == phantom_coeff(2, form, b)


class TestLimitMachinery:
    def test_prefactor_identity(self):
        for m in range(1, 9):
            lhs = (-1) ** (m + 1) * (2j * (2j * math.pi)) ** m
            rhs = -(FOUR_PI**m)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_limit_matches_phantom_chain(self, rng):
        for m in range(2, 6):
            for _ in range(10):
                form = HalfIntegralForm(half_integral(rng, m))
                b_t = float(rng.uniform(0.5, 2.0))
                via_limit = sturm_limit(m, m - 1, form, b_t).value
                direct = phantom_coeff(m, form, b_t)
                assert via_limit == pytest.approx(direct, rel=1e-12)


class TestSturmResult:
    def test_phantom_limit_json(self):
        res = sturm_limit(2, 1, UNIT2, 1.0)
        assert res.regime == "phantom"
        data = res.to_json()
        assert set(data) == {"m", "k", "limit", "T", "value", "regime"}
        assert data["limit"] is True
        assert data["T"] == [[2, 0], [0, 2]]
        assert data["value"] == pytest.approx(-16 * math.pi**2, rel=1e-13)

    def test_vanishing_limit_is_exact_zero(self):
        res = sturm_limit(2, 3, UNIT2, 1.0)
        assert res.regime == "vanishing"
        assert res.value == 0.0

    def test_unsupported_weight(self):
        with pytest.raises(UnsupportedRegimeError):
            sturm_limit(3, 1, UNIT3, 1.0)


class TestNumericSmoke:
    def test_small_sample_agrees_with_closed_form(self):
        form = HalfIntegralForm(((2,),))
        b_t = 1.3

        def coeff(f, y):
            return b_t * maass_coeff_factor(1, 1, f, y)

        est = sturm_numeric(1, 3, coeff, form, 1.0, MonteCarloParams(samples=20_000, seed=123))
        closed = a_closed(1, 1, 1.0, form, b_t)
        assert abs(est.value - closed) <= 5 * est.stderr + 1e-12 * abs(closed)

    def test_rejects_boundary_heavy_proposal(self):
        def coeff(f, y):
            return np.ones(y.shape[0])

        params = MonteCarloParams(samples=100, seed=0, nu=0.5)
        with pytest.raises(ValueError):
            sturm_numeric(2, 4, coeff, UNIT2, 1.0, params)
