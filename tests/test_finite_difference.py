import itertools
import math

import numpy as np
import pytest

from sturmverify import UnsupportedRegimeError, det_dz_numeric, exterior_derivative_num
from sturmverify import finite_difference
from sturmverify.finite_difference import _STEPS, _perm_sign
from conftest import spd

TWO_PI_I = 2j * math.pi


class TestSymPartial:
    """The symmetric derivative, degree 1 of ``exterior_derivative_num``."""

    def test_linear_trace_gives_coefficients(self, rng):
        t = rng.uniform(-2, 2, (3, 3))
        t = (t + t.T) / 2
        y = spd(rng, 3)

        def f(mats):
            return np.sum(t * mats, axis=(1, 2))

        got = exterior_derivative_num(f, y, 1).entries
        np.testing.assert_allclose(got, t, rtol=1e-9, atol=1e-9)

    def test_log_det_gradient(self, rng):
        # d log det Y in the symmetric convention is Y^{-1}
        y = spd(rng, 2)
        inv = np.linalg.inv(y)

        def f(mats):
            return np.log(np.linalg.det(mats))

        np.testing.assert_allclose(exterior_derivative_num(f, y, 1).entries, inv, rtol=1e-7)


class TestExteriorDerivative:
    def test_det_gradient_is_adjugate(self, rng):
        y = spd(rng, 3)
        out = exterior_derivative_num(np.linalg.det, y, 1)
        want = np.linalg.det(y) * np.linalg.inv(y)
        np.testing.assert_allclose(out.entries, want, rtol=1e-6, atol=1e-8)

    def test_degree_zero_is_plain_value(self, rng):
        y = spd(rng, 2)
        out = exterior_derivative_num(lambda m: np.trace(m, axis1=1, axis2=2), y, 0)
        assert out.entries[0, 0] == pytest.approx(np.trace(y))

    def test_refuses_deep_mixed_partials(self):
        y = np.eye(4)
        with pytest.raises(UnsupportedRegimeError):
            exterior_derivative_num(np.linalg.det, y, 4)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            exterior_derivative_num(lambda m: np.ones(len(m)), np.eye(2), 3)

    def test_unstable_step_warns(self):
        # the jump lies between the outer points of the h and h/2 stencils
        # (1.01 and 1.005), so only the step h sees it
        def jump(y):
            return np.where(y[:, 0, 0] > 1.0075, 1.0, 0.0)

        with pytest.warns(RuntimeWarning, match="unstable"):
            exterior_derivative_num(jump, np.array([[1.0]]), 1)


class TestDetDzNumeric:
    def test_exponential_genus_one(self):
        t = 0.7
        z = 0.3 + 1.1j

        def f(zz):
            return np.exp(TWO_PI_I * t * zz[:, 0, 0])

        want = TWO_PI_I * t * np.exp(TWO_PI_I * t * z)
        got = det_dz_numeric(f, np.array([[z]]))
        assert got == pytest.approx(want, rel=1e-8)

    def test_exponential_genus_two(self, rng):
        t = rng.uniform(-1, 1, (2, 2))
        t = (t + t.T) / 2
        x = rng.uniform(-1, 1, (2, 2))
        z = (x + x.T) / 2 + 1j * spd(rng, 2)

        def f(zz):
            return np.exp(TWO_PI_I * np.trace(t @ zz, axis1=1, axis2=2))

        want = (TWO_PI_I) ** 2 * np.linalg.det(t) * np.exp(TWO_PI_I * np.trace(t @ z))
        got = det_dz_numeric(f, z)
        assert got == pytest.approx(want, rel=1e-6)

    def test_refuses_large_genus(self):
        with pytest.raises(UnsupportedRegimeError):
            det_dz_numeric(lambda zz: np.ones(len(zz)), 1j * np.eye(4))


def test_perm_sign():
    assert _perm_sign((0, 1, 2)) == 1
    assert _perm_sign((1, 0, 2)) == -1
    assert _perm_sign((1, 2, 0)) == 1
    assert _perm_sign((2, 1, 0)) == -1


# ---------------------------------------------------------------------------
# the batched stencil trees equal a scalar nested recursion bit for bit,
# both the values at steps h and h/2 (rich False) and their Richardson
# combination (rich True)

_STENCIL = ((2, -1.0 / 12.0), (1, 8.0 / 12.0), (-1, -8.0 / 12.0), (-2, 1.0 / 12.0))
_H = _STEPS[0]


def _ref_delta(n, mu, nu, dtype=float):
    delta = np.zeros((n, n), dtype=dtype)
    delta[mu, nu] = 1.0
    delta[nu, mu] = 1.0
    return delta


def _ref_coord_diff(g, base, delta, h):
    acc = None
    for off, coeff in _STENCIL:
        term = coeff * g(base + (off * h) * delta)
        acc = term if acc is None else acc + term
    return acc / h


def _ref_extrapolate(evaluate, rich):
    big = evaluate(_H)
    small = evaluate(0.5 * _H)
    return (16.0 * small - big) / 15.0 if rich else (big, small)


def _ref_nested_diff(f, base, deltas, h):
    if not deltas:
        return f(base)
    rest = deltas[1:]
    return _ref_coord_diff(lambda yy: _ref_nested_diff(f, yy, rest, h), base, deltas[0], h)


def _ref_sym_partial(f, y, mu, nu, rich):
    delta = _ref_delta(y.shape[0], mu, nu)
    factor = 1.0 if mu == nu else 0.5
    return _ref_extrapolate(lambda hh: factor * _ref_coord_diff(f, y, delta, hh), rich)


def _ref_exterior_derivative(f, y, q, rich):
    m = y.shape[0]
    subs = list(itertools.combinations(range(1, m + 1), q))

    def matrix_at(hh):
        out = np.empty((len(subs), len(subs)))
        for i, a in enumerate(subs):
            for j, b in enumerate(subs):
                total = 0.0
                for perm in itertools.permutations(range(q)):
                    deltas = []
                    factor = 1.0
                    for k in range(q):
                        row, col = a[k] - 1, b[perm[k]] - 1
                        deltas.append(_ref_delta(m, row, col))
                        factor *= 1.0 if row == col else 0.5
                    total += _perm_sign(perm) * factor * _ref_nested_diff(f, y, deltas, hh)
                out[i, j] = total
        return out

    return _ref_extrapolate(matrix_at, rich)


def _ref_det_dz(f, z, rich):
    m = z.shape[0]

    def dz_nested(zz, pairs, hh):
        if not pairs:
            return f(zz)
        (mu, nu), rest = pairs[0], pairs[1:]
        delta = _ref_delta(m, mu, nu, dtype=complex)

        def g(w):
            return dz_nested(w, rest, hh)

        dx = _ref_coord_diff(g, zz, delta, hh)
        dy = _ref_coord_diff(g, zz, 1j * delta, hh)
        factor = 1.0 if mu == nu else 0.5
        return factor * 0.5 * (dx - 1j * dy)

    def full(hh):
        total = 0.0 + 0.0j
        for perm in itertools.permutations(range(m)):
            total += _perm_sign(perm) * dz_nested(z, [(i, perm[i]) for i in range(m)], hh)
        return total

    return _ref_extrapolate(full, rich)


def _batched(scalar_f):
    return lambda stack: np.array([scalar_f(mat) for mat in stack])


@pytest.fixture
def per_step(monkeypatch):
    """The (step h, step h/2) values each oracle call hands to ``_extrapolate``."""
    seen = []
    extrapolate = finite_difference._extrapolate

    def spy(values):
        seen.append(tuple(values))
        return extrapolate(values)

    monkeypatch.setattr(finite_difference, "_extrapolate", spy)
    return seen


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool((got == want).all())


@pytest.mark.parametrize("rich", [False, True], ids=lambda rich: f"order4-rich{rich}")
@pytest.mark.parametrize("m", [1, 2, 3])
class TestBitwiseAgainstRecursion:
    def test_sym_partial(self, rng, m, rich, per_step):
        # degree 1 of the exterior derivative is the symmetric partial, entry by entry
        y = spd(rng, m)
        t = spd(rng, m, scale=0.3)

        def f(mat):
            return np.linalg.det(mat) ** 1.7 * math.exp(np.trace(t @ mat))

        got = exterior_derivative_num(_batched(f), y, 1).entries
        if not rich:
            got = np.asarray(per_step[-1])
        for mu in range(m):
            for nu in range(m):
                assert _same_bits(got[..., mu, nu], _ref_sym_partial(f, y, mu, nu, rich))

    def test_exterior_derivative(self, rng, m, rich, per_step):
        y = spd(rng, m)
        t = spd(rng, m, scale=0.3)

        def f(mat):
            return np.linalg.det(mat) ** 1.3 * math.exp(np.trace(t @ mat))

        for q in range(m + 1):
            got = exterior_derivative_num(_batched(f), y, q).entries
            if not rich:
                got = per_step[-1]
            assert _same_bits(got, _ref_exterior_derivative(f, y, q, rich))

    def test_det_dz(self, rng, m, rich, per_step):
        t = spd(rng, m, scale=0.4)
        x = rng.uniform(-0.8, 0.8, (m, m))
        z = (x + x.T) / 2 + 1j * (spd(rng, m, scale=0.6) + 0.5 * np.eye(m))

        def f(mat):
            return np.linalg.det(mat.imag) ** 2.2 * np.exp(TWO_PI_I * np.trace(t @ mat))

        got = det_dz_numeric(_batched(f), z)
        if not rich:
            got = per_step[-1]
        assert _same_bits(got, _ref_det_dz(f, z, rich))


def test_scalar_valued_f_is_rejected():
    with pytest.raises(ValueError, match="one value per matrix"):
        exterior_derivative_num(lambda stack: float(np.sum(stack)), np.eye(2), 1)
