import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sturmverify import (
    FourierExpansion,
    HalfIntegralForm,
    NotPositiveDefiniteError,
    det_dz_closed,
    int_det,
    maass_apply,
    maass_coeff_factor,
)
from conftest import leibniz_det, spd

TWO_PI_I = 2j * math.pi


class TestIntDet:
    def test_matches_permutation_expansion(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            mat = [[int(x) for x in row] for row in rng.integers(-9, 10, (n, n))]
            assert int_det(mat) == leibniz_det(mat)

    def test_exact_for_huge_entries(self):
        # float determinants lose these; cofactor arithmetic must not
        big = 10**12
        mat = [[big, big - 1], [big + 1, big]]
        assert int_det(mat) == big * big - (big - 1) * (big + 1)
        assert int_det(mat) == 1

    def test_empty_and_single(self):
        assert int_det([[7]]) == 7


class TestHalfIntegralForm:
    def test_det_is_exact_fraction(self):
        form = HalfIntegralForm(((2, 1), (1, 2)))
        assert form.det == Fraction(3, 4)
        assert form.m == 2

    def test_to_array_halves(self):
        form = HalfIntegralForm(((2, 1), (1, 2)))
        np.testing.assert_allclose(form.to_array(), [[1.0, 0.5], [0.5, 1.0]])

    def test_json_roundtrip_and_hashable(self):
        form = HalfIntegralForm(((2, 1), (1, 4)))
        assert form.to_json() == [[2, 1], [1, 4]]
        assert HalfIntegralForm(tuple(map(tuple, form.to_json()))) == form
        assert hash(form) == hash(HalfIntegralForm(((2, 1), (1, 4))))

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            HalfIntegralForm(((1, 0), (0, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            HalfIntegralForm(((2, 1), (0, 2)))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            HalfIntegralForm(((2, 0.5), (0.5, 2)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            HalfIntegralForm(((2, 4), (4, 2)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            HalfIntegralForm(((2, 0, 0), (0, 2, 0)))

    def test_accepts_integral_floats(self):
        form = HalfIntegralForm(((2.0, 1.0), (1.0, 2.0)))
        assert form.two_t == ((2, 1), (1, 2))


class TestFourierExpansion:
    def test_tuple_keys_are_wrapped(self):
        h = FourierExpansion(2, 4, {((2, 0), (0, 2)): 1.5})
        (form,) = h.terms
        assert isinstance(form, HalfIntegralForm)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            FourierExpansion(3, 4, {((2, 0), (0, 2)): 1.0})

    def test_json_roundtrip(self):
        h = FourierExpansion(2, 6, {((2, 1), (1, 2)): 0.25, ((4, 0), (0, 2)): -1.0})
        again = FourierExpansion.from_json(h.to_json())
        assert again.m == h.m and again.k == h.k
        assert again.terms == h.terms

    def test_from_json_malformed(self):
        with pytest.raises(ValueError):
            FourierExpansion.from_json({"m": 2, "k": 4})
        with pytest.raises(ValueError):
            FourierExpansion.from_json({"m": 2, "k": 4, "terms": [{"twoT": [[2, 0], [0, 2]]}]})

    def test_save_load(self, tmp_path):
        h = FourierExpansion(1, 12, {((2,),): 1.0, ((4,),): -24.0})
        path = tmp_path / "expansion.json"
        with open(path, "w") as fh:
            json.dump(h.to_json(), fh)
        assert FourierExpansion.load(path).terms == h.terms


class TestDetDzClosed:
    def test_genus_one_manual_derivative(self, rng):
        # det(d/dZ) is d/dz = (d/dx - i d/dy)/2; apply by hand to y^j e^{2 pi i t z}
        for _ in range(10):
            t = float(rng.uniform(-2, 2))
            j = float(rng.uniform(0.5, 4.0))
            z = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
            y = z.imag
            phase = np.exp(TWO_PI_I * t * z)
            want = y ** (j - 1) * phase * (TWO_PI_I * t * y - 0.5j * j)
            got = det_dz_closed(1, j, [[t]], [[z]])
            assert got == pytest.approx(want, rel=1e-12)

    def test_genus_two_hand_expansion(self, rng):
        for _ in range(10):
            t = rng.uniform(-1, 1, (2, 2))
            t = (t + t.T) / 2
            x = rng.uniform(-1, 1, (2, 2))
            x = (x + x.T) / 2
            y = spd(rng, 2)
            z = x + 1j * y
            j = float(rng.uniform(0.5, 3.0))
            dety = np.linalg.det(y)
            phase = np.exp(TWO_PI_I * np.trace(t @ z))
            poly = (
                j * (j + 0.5)
                - 4 * math.pi * j * np.trace(t @ y)
                + 16 * math.pi**2 * np.linalg.det(t) * dety
            )
            want = -0.25 * dety ** (j - 1) * phase * poly
            got = det_dz_closed(2, j, t, z)
            assert got == pytest.approx(want, rel=1e-11)

    def test_zero_index_keeps_only_power_term(self):
        y = np.diag([1.0, 2.0])
        z = 1j * y
        j = 2.0
        # T = 0 kills every trace term; C_2(2) = 2 * 5/2 = 5
        want = (2j) ** (-2) * np.linalg.det(y) ** (j - 1) * 5.0
        assert det_dz_closed(2, j, np.zeros((2, 2)), z) == pytest.approx(want, rel=1e-13)

    def test_rank_deficient_index_allowed(self, rng):
        t = np.array([[1.0, 1.0], [1.0, 1.0]])  # det 0
        z = rng.uniform(-1, 1, (2, 2))
        z = (z + z.T) / 2 + 1j * spd(rng, 2)
        val = det_dz_closed(2, 1.5, t, z)
        assert np.isfinite(val)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            det_dz_closed(2, 1.0, np.eye(3), 1j * np.eye(2))


class TestMaassCoeffFactor:
    def test_genus_one_formula(self):
        form = HalfIntegralForm(((2,),))  # t = 1
        for k in (1, 2, 5):
            for y in (0.5, 1.0, 3.0):
                want = k / y - 4 * math.pi
                got = maass_coeff_factor(1, k, form, [[y]])
                assert got == pytest.approx(want, rel=1e-13)

    def test_genus_two_hand_value(self):
        # T = [[1, 1/2], [1/2, 1]], Y = I, k = 4: the sandwich spectrum gives
        # e1 = 2, e2 = 3/4 and the rising half-step factors at 7/2 are
        # C_2(7/2) = (7/2)(4) = 14 and C_1(7/2) = 7/2, so the ratio is
        # 14 - 28 pi + 12 pi^2.
        form = HalfIntegralForm(((2, 1), (1, 2)))
        want = 14.0 - 28 * math.pi + 12 * math.pi**2
        got = maass_coeff_factor(2, 4, form, np.eye(2))
        assert got == pytest.approx(want, rel=1e-14)

    def test_accepts_plain_matrix_index(self):
        form = HalfIntegralForm(((2, 1), (1, 2)))
        got_form = maass_coeff_factor(2, 4, form, np.eye(2))
        got_mat = maass_coeff_factor(2, 4, form.to_array(), np.eye(2))
        assert got_form == got_mat

    def test_batch_matches_single(self, rng):
        form = HalfIntegralForm(((2, 0), (0, 4)))
        ys = np.stack([spd(rng, 2) for _ in range(8)])
        batch = maass_coeff_factor(2, 3, form, ys)
        assert batch.shape == (8,)
        for i in range(8):
            single = maass_coeff_factor(2, 3, form, ys[i])
            assert batch[i] == pytest.approx(single, rel=1e-14)


class TestMaassApply:
    def test_present_index_scales_factor(self, rng):
        form = HalfIntegralForm(((2, 1), (1, 2)))
        h = FourierExpansion(2, 4, {form: 2.5})
        coeff = maass_apply(h)
        y = spd(rng, 2)
        assert coeff(form, y) == pytest.approx(
            2.5 * maass_coeff_factor(2, 4, form, y), rel=1e-14
        )

    def test_absent_index_is_zero(self, rng):
        h = FourierExpansion(2, 4, {((2, 0), (0, 2)): 1.0})
        other = HalfIntegralForm(((4, 0), (0, 4)))
        assert maass_apply(h)(other, spd(rng, 2)) == 0.0

    def test_absent_index_batch_shape(self, rng):
        h = FourierExpansion(2, 4, {((2, 0), (0, 2)): 1.0})
        other = HalfIntegralForm(((4, 0), (0, 4)))
        ys = np.stack([spd(rng, 2) for _ in range(5)])
        out = maass_apply(h)(other, ys)
        assert out.shape == (5,)
        assert np.all(out == 0.0)
