import math
import sys

import numpy as np
import pytest

from sturmverify import (
    FourierExpansion,
    HalfIntegralForm,
    MonteCarloParams,
    gamma_m,
    i_q_closed,
    i_q_numeric,
    integrate_invariant,
    maass_apply,
    sturm_numeric,
)
from sturmverify import cone_integration, suites
from sturmverify.cone_integration import q_trace_integral_num
from sturmverify.exterior_algebra import exterior_power_batch, trace_sandwich
from conftest import spd

FOUR_PI = 4 * math.pi


class TestParams:
    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            MonteCarloParams(samples=0)

    def test_rejects_empty_chunks(self):
        with pytest.raises(ValueError):
            MonteCarloParams(samples=10, chunk_size=0)

    def test_defaults(self):
        p = MonteCarloParams()
        assert p.samples == 1_000_000 and p.seed == 0 and p.nu is None


class TestClosedForm:
    def test_genus_one_gamma_identity(self):
        # single-variable cone integral: int_0^infty y^{s-1} e^{-4 pi y} dy
        for s in (1.0, 2.5, 3.75):
            want = FOUR_PI ** (-s) * math.gamma(s)
            assert i_q_closed(1, 0, s) == pytest.approx(want, rel=1e-13)

    def test_genus_one_weighted_identity(self):
        # the q = 1 trace inserts y: s/(4 pi) times the plain integral
        for s in (1.0, 2.5, 3.75):
            want = s / FOUR_PI * FOUR_PI ** (-s) * math.gamma(s)
            assert i_q_closed(1, 1, s) == pytest.approx(want, rel=1e-13)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            i_q_closed(2, 3, 1.0)
        with pytest.raises(ValueError):
            i_q_closed(2, -1, 1.0)


class TestEstimator:
    def test_same_seed_is_deterministic(self):
        params = MonteCarloParams(samples=30_000, seed=42)
        t = np.array([[1.0, 0.25], [0.25, 1.5]])
        a = i_q_numeric(2, 1, 2.5, t, params)
        b = i_q_numeric(2, 1, 2.5, t, params)
        assert a.value == b.value
        assert a.stderr == b.stderr
        assert a.rejected == b.rejected

    def test_thread_count_does_not_change_values(self, monkeypatch):
        params = MonteCarloParams(samples=40_000, seed=3, chunk_size=4096)
        t = np.eye(2)
        monkeypatch.setenv("STURM_THREADS", "1")
        serial = i_q_numeric(2, 2, 1.5, t, params)
        monkeypatch.setenv("STURM_THREADS", "4")
        threaded = i_q_numeric(2, 2, 1.5, t, params)
        assert_identical(serial, threaded)

    @pytest.mark.parametrize("case", ["m3", "tuple"])
    def test_thread_count_does_not_change_other_values(self, case, monkeypatch):
        params = MonteCarloParams(samples=40_000, seed=3, chunk_size=4096)
        if case == "tuple":
            # a bundled integrand: a scalar and a matrix component share the draw
            def run():
                return integrate_invariant(lambda y: (np.ones(len(y)), y), 3, params, t=np.eye(3), power=0.5)
        else:

            def run():
                return (i_q_numeric(3, 3, 1.5, np.eye(3), params),)

        monkeypatch.setenv("STURM_THREADS", "1")
        serial = run()
        monkeypatch.setenv("STURM_THREADS", "4")
        threaded = run()
        for est, est_threaded in zip(serial, threaded, strict=True):
            assert_identical(est, est_threaded)

    def test_matches_closed_form(self):
        params = MonteCarloParams(samples=100_000, seed=7)
        t = np.array([[1.2, 0.3], [0.3, 0.9]])
        for q in (0, 1, 2):
            est = i_q_numeric(2, q, 2.5, t, params)
            want = i_q_closed(2, q, 2.5)
            assert abs(est.value - want) <= 4 * est.stderr + 1e-12 * abs(want)

    def test_index_matrix_invariance(self):
        # the estimand does not depend on T; independent seeds must agree
        t_a = np.eye(2)
        t_b = np.array([[2.0, 0.5], [0.5, 1.0]])
        a = i_q_numeric(2, 1, 2.0, t_a, MonteCarloParams(samples=80_000, seed=21))
        b = i_q_numeric(2, 1, 2.0, t_b, MonteCarloParams(samples=80_000, seed=22))
        assert abs(a.value - b.value) <= 4 * math.hypot(a.stderr, b.stderr)

    def test_rejections_are_counted_and_masked(self):
        def spotty(y):
            out = np.ones(y.shape[0])
            out[y[:, 0, 0] > 1.5] = np.nan
            return out

        est = integrate_invariant(spotty, 1, MonteCarloParams(samples=4096, seed=5), t=np.eye(1), power=1.0)
        assert est.rejected > 0
        assert est.samples == 4096
        assert np.isfinite(est.value)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_twin_point_is_exact(self, m):
        # at nu = 2 power the weighted gamma factor is the constant
        # det(t)^{-power} Gamma_m(power), so the plain integral has no
        # sampling error left, only rounding
        rng = np.random.default_rng(40 + m)
        t = spd(rng, m)
        s = m / 2 + 0.75
        params = MonteCarloParams(samples=64, seed=3, nu=2 * s)
        est = integrate_invariant(lambda y: np.ones(len(y)), m, params, t=t, power=s)
        want = float(np.linalg.det(t)) ** -s * gamma_m(m, s)
        assert est.value == pytest.approx(want, rel=1e-13, abs=0.0)
        assert est.stderr <= 1e-15 * abs(est.value)
        assert est.rejected == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_twin_point_stderr_is_the_sample_std(self, m, monkeypatch):
        # with the constant weight c the stderr is c std(f) / sqrt(n),
        # whatever the chunking
        monkeypatch.setenv("STURM_THREADS", "1")
        rng = np.random.default_rng(50 + m)
        t = spd(rng, m)
        s = m / 2 + 0.75
        params = MonteCarloParams(samples=10 * 997, seed=4, nu=2 * s, chunk_size=997)
        values = []

        def trace(y):
            values.append(np.trace(y, axis1=1, axis2=2))
            return values[-1]

        est = integrate_invariant(trace, m, params, t=t, power=s)
        assert len(values) == 10
        c = float(np.linalg.det(t)) ** -s * gamma_m(m, s)
        values = np.concatenate(values)
        assert est.stderr == pytest.approx(c * np.std(values) / math.sqrt(values.size), rel=1e-12)


class TestMatrixIntegral:
    def test_scalar_matrix_structure(self):
        # int Y^[q] e^{-tr Y} det(Y)^s dY_inv is a scalar matrix with the
        # half-step Pochhammer times Gamma_m on the diagonal
        m, q, s = 2, 1, 2.0
        est = q_trace_integral_num(m, q, s, MonteCarloParams(samples=60_000, seed=11))
        want = 2.0 * gamma_m(2, 2.0)  # (-1) C_1(-2) Gamma_2(2) = pi
        assert want == pytest.approx(math.pi, rel=1e-13)
        for i in range(2):
            assert abs(est.value[i, i] - want) <= 4 * est.stderr[i, i]
        for i, j in ((0, 1), (1, 0)):
            assert abs(est.value[i, j]) <= 4 * est.stderr[i, j]

    def test_estimate_bookkeeping(self):
        est = q_trace_integral_num(2, 1, 2.0, MonteCarloParams(samples=10_000, seed=1))
        assert est.samples == 10_000
        assert 0 < est.effective_samples <= est.samples
        assert est.value.shape == (2, 2)
        assert est.stderr.shape == (2, 2)


# Lone integrands written out one degree at a time, as the estimators were
# before degrees shared a draw: the oracle for the bundled passes.  Each
# returns only its polynomial part; integrate_invariant supplies the
# exponential and the det(Y) power.


def lone_i_q(m, q, s, t, params):
    det_t_s = float(np.linalg.det(t)) ** s

    def integrand(y):
        return trace_sandwich(y, t, q) * det_t_s

    return integrate_invariant(integrand, m, params, t=FOUR_PI * t, power=s)


def lone_q_trace(m, q, s, params):
    return integrate_invariant(lambda y: exterior_power_batch(y, q), m, params, t=np.eye(m), power=s)


def assert_identical(a, b):
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.ndim(a.value) == np.ndim(b.value)
    assert a.samples == b.samples
    assert a.effective_samples == b.effective_samples
    assert a.rejected == b.rejected


class TestBundledDraw:
    # ten chunks, so every component is summed pairwise across chunks
    PARAMS = MonteCarloParams(samples=20_000, seed=17, chunk_size=2048)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_i_q_bundle_equals_lone_degrees(self, m, threads, monkeypatch):
        monkeypatch.setenv("STURM_THREADS", threads)
        t = np.eye(m) + 0.2 * np.ones((m, m))
        bundle = i_q_numeric(m, range(m + 1), 2.5, t, self.PARAMS)
        assert len(bundle) == m + 1
        for q, est in enumerate(bundle):
            assert_identical(est, i_q_numeric(m, q, 2.5, t, self.PARAMS))
            assert_identical(est, lone_i_q(m, q, 2.5, t, self.PARAMS))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_q_trace_bundle_equals_lone_degrees(self, m, threads, monkeypatch):
        monkeypatch.setenv("STURM_THREADS", threads)
        mats = q_trace_integral_num(m, list(range(m + 1)), 2.5, self.PARAMS)
        assert len(mats) == m + 1
        for q, est in enumerate(mats):
            assert est.value.shape == (math.comb(m, q),) * 2
            assert_identical(est, q_trace_integral_num(m, q, 2.5, self.PARAMS))
            assert_identical(est, lone_q_trace(m, q, 2.5, self.PARAMS))

    def test_components_reject_on_their_own(self):
        def clean(y):
            return np.trace(y, axis1=1, axis2=2)

        def spotty(y):
            out = clean(y)
            out[y[:, 0, 0] > 1.5] = np.nan
            return out

        factor = {"t": np.eye(2), "power": 2.0}
        est_clean, est_spotty = integrate_invariant(lambda y: (clean(y), spotty(y)), 2, self.PARAMS, **factor)
        assert est_clean.rejected == 0
        assert est_spotty.rejected > 0
        assert est_spotty.samples == est_clean.samples == self.PARAMS.samples
        assert_identical(est_clean, integrate_invariant(clean, 2, self.PARAMS, **factor))
        assert_identical(est_spotty, integrate_invariant(spotty, 2, self.PARAMS, **factor))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            i_q_numeric(2, [0, 3], 2.5, np.eye(2), self.PARAMS)
        with pytest.raises(ValueError):
            q_trace_integral_num(2, [], 2.5, self.PARAMS)

    @pytest.mark.parametrize("m, q_only", [(2, None), (3, None), (2, 0)])
    def test_run_cone_records_match_lone_passes(self, m, q_only, monkeypatch):
        def i_q_lone(m_, q, s_, t, params):
            if np.ndim(q) == 0:
                return lone_i_q(m_, q, float(s_), t, params)
            return tuple(lone_i_q(m_, d, float(s_), t, params) for d in q)

        def q_trace_lone(m_, qs, s_, params):
            return tuple(lone_q_trace(m_, d, float(s_), params) for d in qs)

        bundled = suites.run_cone(m=m, s=2.5, samples=4096, seed=3, q_only=q_only)
        monkeypatch.setattr(suites, "i_q_numeric", i_q_lone)
        monkeypatch.setattr(suites, "q_trace_integral_num", q_trace_lone)
        assert suites.run_cone(m=m, s=2.5, samples=4096, seed=3, q_only=q_only) == bundled


# Every determinant of a sampled SPD matrix is spd_det's.  LU stays only
# for the general minors of the exterior powers Y^[q], q >= 2.
SPY_FORMS = {2: ((2, 1), (1, 2)), 3: ((2, 1, 0), (1, 2, 1), (0, 1, 2))}


@pytest.mark.parametrize("m", [2, 3])
def test_no_lu_det_on_a_sampled_stack(m, monkeypatch):
    stacks = []
    lu_det = np.linalg.det

    def spy(a, *args, **kwargs):
        if np.ndim(a) > 2:
            frame, callers = sys._getframe(1), []
            for _ in range(3):
                callers.append(frame.f_code.co_qualname)
                frame = frame.f_back
            stacks.append((np.shape(a), tuple(callers)))
        return lu_det(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", spy)
    params = MonteCarloParams(samples=4096, seed=2)
    form = HalfIntegralForm(SPY_FORMS[m])
    i_q_numeric(m, range(m + 1), 2.5, form.to_array(), params)
    coeff = maass_apply(FourierExpansion(m, m - 1, {form: 1.0}))
    sturm_numeric(m, m + 1, coeff, form, 1.0 if m == 2 else 1.5, params)
    assert not stacks
    suites.run_cone(m=m, s=2.5, samples=4096, seed=3)
    assert stacks
    for shape, callers in stacks:
        assert callers[:2] == ("_minors", "exterior_power_batch")
        assert callers[2].startswith("q_trace_integral_num.<locals>.integrand")
        n, dim, q, q_cols = shape
        assert q == q_cols >= 2 and dim == math.comb(m, q)


# The sampler's column products against einsum: B = L A keeps every bit,
# and Y = B B^T, summed in another order, stays within its rounding bound;
# a chunk's partial sums and the estimates built from them stay within
# rounding of the same draw formed with einsum.


def bartlett_draw(rng, m, count, nu):
    a = np.zeros((count, m, m))
    for i in range(m):
        a[:, i, i] = np.sqrt(2.0 * rng.standard_gamma(0.5 * (nu - i), size=count))
    rows, cols = np.tril_indices(m, k=-1)
    a[:, rows, cols] = rng.standard_normal((count, rows.size))
    return a


def dense_factor(rng, m):
    """Lower-triangular, positive diagonal, negative off-diagonal entries."""
    return np.diag(rng.uniform(0.5, 1.5, m)) - np.tril(rng.uniform(0.1, 1.0, (m, m)), k=-1)


def einsum_chunk_partials(f, m, nu, power, chol_scale, log_norm, seed, chunk_index, count):
    """``_chunk_partials`` of the same draw, with the products formed by einsum."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    a = bartlett_draw(rng, m, count, nu)
    b = np.einsum("ij,njk->nik", chol_scale, a)
    y = np.einsum("nik,njk->nij", b, b)
    logdet_y = 2.0 * np.sum(np.log(np.einsum("nii->ni", b)), axis=1)
    log_q = 0.5 * (nu - m - 1.0) * logdet_y - 0.5 * np.einsum("nij,nij->n", a, a) - log_norm
    w = np.exp(-0.5 * (m + 1.0) * logdet_y - log_q)
    weight = np.exp((power - 0.5 * nu) * logdet_y + log_norm)
    out = f(y)
    bundled = isinstance(out, tuple)
    components = out if bundled else (out,)
    return bundled, [
        cone_integration._component_partials(np.asarray(fx, dtype=float), weight, w, count) for fx in components
    ]


def assert_close(x, x_ref, rtol=1e-12):
    """Entries agree to ``rtol`` of the largest entry (sums of rounded terms)."""
    x, x_ref = np.asarray(x, dtype=float), np.asarray(x_ref, dtype=float)
    assert x.shape == x_ref.shape
    np.testing.assert_allclose(x, x_ref, rtol=rtol, atol=rtol * np.max(np.abs(x_ref)))


class TestColumnProducts:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_bartlett_products_equal_einsum(self, m):
        rng = np.random.default_rng(100 + m)
        for count in (1, 5, 4096):
            a = bartlett_draw(rng, m, count, m + 2.5)
            for chol in (0.5 * np.eye(m), dense_factor(rng, m)):
                b, y = cone_integration._bartlett_products(chol, a)
                b_ref = np.einsum("ij,njk->nik", chol, a)
                assert np.array_equal(b, b_ref)
                assert np.array_equal(y, np.swapaxes(y, 1, 2))
                # each side rounds a sum of m products by about m eps sum_k |B_ik B_jk| <= m eps sqrt(Y_ii Y_jj)
                diag = np.einsum("nii->ni", y)
                bound = 4 * m * np.finfo(float).eps * np.sqrt(diag[:, :, None] * diag[:, None, :])
                assert np.all(np.abs(y - np.einsum("nik,njk->nij", b_ref, b_ref)) <= bound)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_chunk_partials_equal_einsum_reference(self, m, threads, monkeypatch):
        monkeypatch.setenv("STURM_THREADS", threads)

        def f(y):
            return np.trace(y, axis1=1, axis2=2), y

        rng = np.random.default_rng(300 + m)
        chol = dense_factor(rng, m)
        for chunk_index, count in ((0, 2048), (1, 2048), (7, 333)):
            got = cone_integration._chunk_partials(f, m, m + 4.0, 2.5, chol, 1.25, 11, chunk_index, count)
            want = einsum_chunk_partials(f, m, m + 4.0, 2.5, chol, 1.25, 11, chunk_index, count)
            assert got[0] == want[0]
            for got_parts, want_parts in zip(got[1], want[1], strict=True):
                sums, sums_ref = got_parts[:4], want_parts[:4]
                assert got_parts[4:] == want_parts[4:]
                for x, x_ref in zip(sums, sums_ref, strict=True):
                    assert_close(x, x_ref)

        params = MonteCarloParams(samples=9000, seed=5, nu=m + 4.0, chunk_size=1024)
        t = chol @ chol.T
        new = integrate_invariant(f, m, params, t=t, power=2.5)
        monkeypatch.setattr(cone_integration, "_chunk_partials", einsum_chunk_partials)
        old = integrate_invariant(f, m, params, t=t, power=2.5)
        for est, est_ref in zip(new, old, strict=True):
            assert_close(est.value, est_ref.value)
            assert_close(est.stderr, est_ref.stderr, rtol=1e-9)
            assert (est.samples, est.rejected) == (est_ref.samples, est_ref.rejected)


class TestWorkerCount:
    def test_valid_values(self, monkeypatch):
        monkeypatch.delenv("STURM_THREADS", raising=False)
        assert cone_integration.worker_count() == 1
        for raw, want in (("1", 1), ("2", 2), (" 3 ", 3), ("+4", 4)):
            monkeypatch.setenv("STURM_THREADS", raw)
            assert cone_integration.worker_count() == want

    @pytest.mark.parametrize("raw", ["abc", "", "0", "-2", "1.5"])
    def test_invalid_values_raise(self, raw, monkeypatch):
        monkeypatch.setenv("STURM_THREADS", raw)
        with pytest.raises(ValueError, match="STURM_THREADS"):
            cone_integration.worker_count()
