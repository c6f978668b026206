import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sturmverify import (
    ExteriorMatrix,
    NotPositiveDefiniteError,
    eps,
    exterior_power,
    exterior_power_batch,
    q_subsets,
    sqcap,
    sym_sqrt,
    trace_sandwich,
)
from sturmverify.exterior_algebra import _subset_index, sandwich_esp_all, spd_det
from conftest import esp_brute, leibniz_det, minor, spd


def test_q_subsets_lexicographic():
    assert q_subsets(3, 0) == ((),)
    assert q_subsets(3, 1) == ((1,), (2,), (3,))
    assert q_subsets(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert q_subsets(4, 2)[0] == (1, 2)
    for m in range(1, 7):
        for q in range(m + 1):
            subs = q_subsets(m, q)
            assert len(subs) == math.comb(m, q)
            assert list(subs) == sorted(subs)


def test_eps_hand_values():
    assert eps((1,), (2,)) == 1
    assert eps((2,), (1,)) == -1
    assert eps((1, 3), (2,)) == -1
    assert eps((1, 2), (3, 4)) == 1
    assert eps((3, 4), (1, 2)) == 1  # 4 crossings, even
    assert eps((), (1, 2)) == 1


def test_eps_matches_permutation_sign():
    # sign of the permutation sorting the concatenation
    for m in range(2, 6):
        for p in range(m + 1):
            for a1 in itertools.combinations(range(1, m + 1), p):
                rest = [i for i in range(1, m + 1) if i not in a1]
                for q in range(len(rest) + 1):
                    for a2 in itertools.combinations(rest, q):
                        concat = list(a1) + list(a2)
                        inv = sum(
                            1
                            for i in range(len(concat))
                            for j in range(i + 1, len(concat))
                            if concat[i] > concat[j]
                        )
                        assert eps(a1, a2) == (-1) ** inv


def test_eps_validation():
    with pytest.raises(ValueError):
        eps((2, 1), (3,))
    with pytest.raises(ValueError):
        eps((1, 2), (2,))


def test_exterior_power_edge_degrees(rng):
    mat = rng.uniform(-2, 2, (4, 4))
    assert exterior_power(mat, 0).entries.shape == (1, 1)
    assert exterior_power(mat, 0).entries[0, 0] == 1.0
    np.testing.assert_allclose(exterior_power(mat, 1).entries, mat)
    assert exterior_power(mat, 4).entries[0, 0] == pytest.approx(np.linalg.det(mat), rel=1e-12)


def test_exterior_power_entries_are_minors(rng):
    for _ in range(10):
        m = int(rng.integers(2, 6))
        q = int(rng.integers(1, m + 1))
        mat = rng.integers(-4, 5, (m, m))
        power = exterior_power(mat.astype(float), q)
        for i, a in enumerate(q_subsets(m, q)):
            for j, b in enumerate(q_subsets(m, q)):
                exact = leibniz_det(minor(mat, a, b).tolist())
                assert power.entries[i, j] == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_exterior_power_identity():
    for m in range(1, 6):
        for q in range(m + 1):
            np.testing.assert_allclose(
                exterior_power(np.eye(m), q).entries, np.eye(math.comb(m, q))
            )


def test_functoriality(rng):
    for _ in range(60):
        m = int(rng.integers(2, 6))
        q = int(rng.integers(0, m + 1))
        a = rng.uniform(-2, 2, (m, m))
        b = rng.uniform(-2, 2, (m, m))
        lhs = exterior_power(a @ b, q).entries
        rhs = (exterior_power(a, q) @ exterior_power(b, q)).entries
        ref = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) / ref <= 1e-10


def test_inverse_commutes(rng):
    for _ in range(10):
        m = int(rng.integers(2, 5))
        a = spd(rng, m)
        q = int(rng.integers(1, m + 1))
        lhs = exterior_power(np.linalg.inv(a), q).entries
        rhs = np.linalg.inv(exterior_power(a, q).entries)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_transpose_commutes(rng):
    mat = rng.uniform(-3, 3, (5, 5))
    for q in range(6):
        np.testing.assert_allclose(
            exterior_power(mat.T, q).entries, exterior_power(mat, q).entries.T, atol=1e-12
        )


def test_exterior_matrix_validation():
    with pytest.raises(ValueError):
        ExteriorMatrix(3, 2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ExteriorMatrix(3, 5, np.zeros((1, 1)))


def test_exterior_power_batch_matches_loop(rng):
    mats = rng.uniform(-1.5, 1.5, (7, 4, 4))
    for q in range(5):
        batch = exterior_power_batch(mats, q)
        for i in range(7):
            np.testing.assert_allclose(
                batch[i], exterior_power(mats[i], q).entries, rtol=1e-12, atol=1e-12
            )


def _minors_by_entry(mats, q):
    """Reference minors: the entries themselves at q = 1, which is exact
    (a 1 x 1 LU det differs from its entry in the last bit on about 10% of
    real and 14% of complex uniform inputs), else one np.linalg.det call
    per (row subset, column subset)."""
    if q == 1:
        return mats
    subs = [list(a) for a in itertools.combinations(range(mats.shape[-1]), q)]
    out = np.empty(mats.shape[:-2] + (len(subs), len(subs)), dtype=mats.dtype)
    for i, rows in enumerate(subs):
        for j, cols in enumerate(subs):
            out[..., i, j] = np.linalg.det(mats[..., rows, :][..., cols])
    return out


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_minors_bitwise_equal_per_entry_determinants(rng, m, complex_entries):
    for q in range(m + 1):
        mats = rng.uniform(-1.5, 1.5, (6, m, m))
        if complex_entries:
            mats = mats + 1j * rng.uniform(-1.5, 1.5, (6, m, m))
        batch = exterior_power_batch(mats, q)
        assert batch.flags.c_contiguous
        assert batch.dtype == mats.dtype
        assert (batch == _minors_by_entry(mats, q)).all()
        for mat in mats:
            assert (exterior_power(mat, q).entries == _minors_by_entry(mat, q)).all()


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_minors_degree_one_are_the_entries(rng, complex_entries):
    mats = rng.uniform(-1.5, 1.5, (6, 4, 4))
    if complex_entries:
        mats = mats + 1j * rng.uniform(-1.5, 1.5, (6, 4, 4))
    out = exterior_power_batch(mats, 1)
    assert out is not mats and out.flags.c_contiguous
    assert np.array_equal(out.view(np.int64), mats.view(np.int64))
    assert np.array_equal(exterior_power(mats[0], 1).entries.view(np.int64), mats[0].view(np.int64))


def test_batch_gather_temporary_stays_within_input_size(rng):
    # beyond the output, the gathered submatrices and their determinants
    # may take about as much memory as the input stack itself
    mats = rng.uniform(-1.5, 1.5, (4096, 5, 5))
    for q in range(6):
        tracemalloc.start()
        try:
            out = exterior_power_batch(mats, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.5 * mats.nbytes


def test_sqcap_hand_formula_genus_two(rng):
    a = rng.uniform(-1, 1, (2, 2))
    b = rng.uniform(-1, 1, (2, 2))
    got = sqcap(exterior_power(a, 1), exterior_power(b, 1)).entries[0, 0]
    want = 0.5 * (a[0, 0] * b[1, 1] - a[0, 1] * b[1, 0] - a[1, 0] * b[0, 1] + a[1, 1] * b[0, 0])
    assert got == pytest.approx(want, rel=1e-14)


def test_sqcap_degree_zero_is_identity_action(rng):
    m = 4
    a = rng.uniform(-2, 2, (m, m))
    x = exterior_power(a, 2)
    out = sqcap(exterior_power(np.eye(m), 0), x)
    np.testing.assert_allclose(out.entries, x.entries)


def test_sqcap_closure(rng):
    for _ in range(60):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(0, m + 1))
        q = int(rng.integers(0, m - p + 1))
        a = rng.uniform(-2, 2, (m, m))
        lhs = sqcap(exterior_power(a, p), exterior_power(a, q)).entries
        rhs = exterior_power(a, p + q).entries
        ref = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) / ref <= 1e-10


def test_sqcap_genus_mismatch():
    with pytest.raises(ValueError):
        sqcap(exterior_power(np.eye(2), 1), exterior_power(np.eye(3), 1))


def test_sym_sqrt_squares_back(rng):
    for _ in range(10):
        m = int(rng.integers(1, 6))
        y = spd(rng, m)
        root = sym_sqrt(y)
        np.testing.assert_allclose(root @ root, y, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(root, root.T, atol=1e-12)


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        sym_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _bartlett_draws(rng, m, nu, count):
    """Y = A A^T for lower-triangular Bartlett factors A of Wishart(nu, E),
    symmetric bit for bit (the lower triangle is mirrored)."""
    a = np.tril(rng.standard_normal((count, m, m)), k=-1)
    diag = np.arange(m)
    a[:, diag, diag] = np.sqrt(rng.chisquare(nu - diag, size=(count, m)))
    y = np.tril(a @ np.swapaxes(a, 1, 2))
    return y + np.swapaxes(np.tril(y, k=-1), 1, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_spd_det_within_cholesky_bound_of_exact(rng, m):
    # against the exact determinant of the same floats
    for nu in range(max(3, m), 9):
        ys = _bartlett_draws(rng, m, nu, 6)
        for y, got in zip(ys, spd_det(ys)):
            exact = leibniz_det([[Fraction(float(x)) for x in row] for row in y])
            bound = Fraction(m * np.finfo(float).eps * np.linalg.cond(y)) * exact
            assert abs(Fraction(float(got)) - exact) <= bound, (nu, y)


def test_spd_det_genus_one_is_the_entry(rng):
    ys = rng.uniform(1e-3, 1e3, (50, 1, 1))
    assert np.array_equal(spd_det(ys).view(np.int64), ys[:, 0, 0].view(np.int64))


def test_spd_det_batch_equals_rows_bitwise(rng):
    for m in range(1, 6):
        ys = np.stack([spd(rng, m) for _ in range(9)])
        rows = np.array([spd_det(y) for y in ys])
        assert np.array_equal(spd_det(ys).view(np.int64), rows.view(np.int64))


def test_spd_det_leading_shapes(rng):
    ys = np.stack([spd(rng, 4) for _ in range(5)])
    assert spd_det(ys[0]).shape == ()
    assert spd_det(ys).shape == (5,)
    index = _subset_index(4, 3)
    gathered = ys[:, index[:, :, None], index[:, None, :]]
    minors = spd_det(gathered)
    assert minors.shape == (5, 4)
    for n in range(5):
        for c, rows in enumerate(index):
            assert minors[n, c] == spd_det(ys[n][np.ix_(rows, rows)])
    np.testing.assert_allclose(minors, np.linalg.det(gathered), rtol=1e-12)


def test_spd_det_non_positive_pivot_is_nan():
    # LU gives +1 and -3 here; neither matrix is positive definite
    assert np.isnan(spd_det(-np.eye(2)))
    assert np.isnan(spd_det(np.array([[1.0, 2.0], [2.0, 1.0]])))


def _exact_principal_minor_sums(y, t):
    """e_0..e_m of the eigenvalues of Y T as exact sums of its principal
    minors, from the exact rational values of the float entries."""
    m = len(y)
    yf = [[Fraction(float(x)) for x in row] for row in y]
    tf = [[Fraction(float(x)) for x in row] for row in t]
    yt = [[sum(yf[i][k] * tf[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return [
        sum(leibniz_det([[yt[i][j] for j in rows] for i in rows]) for rows in itertools.combinations(range(m), q))
        for q in range(m + 1)
    ]


def _index_kinds(rng, m):
    """SPD, zero, rank-one all-ones ([[1, 1], [1, 1]] at m = 2) and indefinite T."""
    q_mat, _ = np.linalg.qr(rng.standard_normal((m, m)))
    signs = np.where(np.arange(m) % 2, -1.0, 1.0)
    indefinite = (q_mat * (signs * rng.uniform(0.5, 2.0, m))) @ q_mat.T
    return {
        "spd": spd(rng, m),
        "zero": np.zeros((m, m)),
        "ones": np.ones((m, m)),
        "indefinite": 0.5 * (indefinite + indefinite.T),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sandwich_esp_all_matches_exact_principal_minors(rng, m):
    # The error is relative to e_q(Y |T|), the sum of the absolute values of
    # the terms prod(d_S) det(G_S); for PSD T that is e_q(YT) itself.  The
    # zero eigenvalues of a singular T come out of eigh only to within
    # eps ||T||, so there the scale is at least binom(m, q) (||Y|| ||T||)^q.
    for kind, t in _index_kinds(rng, m).items():
        d, u = np.linalg.eigh(t)
        t_abs = (u * np.abs(d)) @ u.T
        for _ in range(3):
            y = spd(rng, m)
            got = sandwich_esp_all(y, t, m)
            want = _exact_principal_minor_sums(y, t)
            terms = _exact_principal_minor_sums(y, t_abs)
            assert got.shape == (m + 1,)
            for q in range(m + 1):
                scale = max(abs(terms[q]), abs(want[q]))
                if kind in ("zero", "ones"):
                    norms = float(np.linalg.norm(y, 2) * np.linalg.norm(t, 2))
                    scale = max(scale, Fraction(math.comb(m, q) * norms**q))
                err = abs(Fraction(float(got[q])) - want[q])
                assert err <= Fraction(1, 10**12) * scale, (kind, q, got[q], want[q])


def test_sandwich_esp_all_below_full_degree(rng):
    for m in range(1, 6):
        ys = np.stack([spd(rng, m) for _ in range(4)])
        t = spd(rng, m)
        full = sandwich_esp_all(ys, t, m)
        for qmax in range(m):
            part = sandwich_esp_all(ys, t, qmax)
            assert part.shape == (4, qmax + 1)
            assert np.array_equal(part.view(np.int64), full[:, : qmax + 1].view(np.int64))


def test_sandwich_esp_all_batch_equals_rows_bitwise(rng):
    for m in range(1, 6):
        for t in _index_kinds(rng, m).values():
            ys = np.stack([spd(rng, m) for _ in range(7)])
            batch = sandwich_esp_all(ys, t, m)
            rows = np.stack([sandwich_esp_all(y, t, m) for y in ys])
            assert np.array_equal(batch.view(np.int64), rows.view(np.int64))


def test_sandwich_esp_all_runs_no_eigensolver_on_the_batch(rng, monkeypatch):
    shapes = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def spy(a, *args, _solver=solver, **kwargs):
            shapes.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    ys = np.stack([spd(rng, 3) for _ in range(5)])
    sandwich_esp_all(ys, spd(rng, 3), 3)
    assert shapes == [(3, 3)]


def test_trace_sandwich_eigenvalue_oracle(rng):
    for _ in range(25):
        m = int(rng.integers(1, 6))
        y = spd(rng, m)
        t = spd(rng, m)
        eig = np.linalg.eigvals(y @ t).real
        for q in range(m + 1):
            want = esp_brute(eig, q)
            assert trace_sandwich(y, t, q) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_trace_sandwich_edge_degrees(rng):
    m = 3
    y = spd(rng, m)
    t = spd(rng, m)
    assert trace_sandwich(y, t, 0) == pytest.approx(1.0)
    want = np.linalg.det(y) * np.linalg.det(t)
    assert trace_sandwich(y, t, m) == pytest.approx(want, rel=1e-11)
    assert trace_sandwich(y, t, 1) == pytest.approx(np.trace(y @ t), rel=1e-11)


def test_trace_sandwich_batch_matches_single(rng):
    ys = np.stack([spd(rng, 3) for _ in range(6)])
    t = spd(rng, 3)
    for q in range(4):
        batch = trace_sandwich(ys, t, q)
        assert batch.shape == (6,)
        for i in range(6):
            assert batch[i] == pytest.approx(trace_sandwich(ys[i], t, q), rel=1e-12)
