"""Monte Carlo integration over the cone of SPD matrices against the
invariant measure det(Y)^{-(m+1)/2} prod_{j<=k} dY_jk, and the closed
forms of the exterior-trace integrals it cross-checks.

Sampling strategy
-----------------
Every integral has the form  int f(Y) det(Y)^p exp(-tr(tY)) dY_inv  for an
SPD matrix t and a power p, and ``integrate_invariant`` owns that gamma
factor.  The proposal is a Wishart(nu, V) distribution with V = (2t)^{-1},
built by the Bartlett construction: Y = (L A)(L A)^T with V = L L^T, A
lower triangular, A_ii^2 ~ chi^2(nu - i) (0-based i) and standard normal
subdiagonal.  The importance weight times the gamma factor is then
exp((p - nu/2) log det Y + log_norm): the trace cancels exactly, and
log det Y = log det V + 2 sum log A_ii comes from the Bartlett diagonal.
The integrand ``f`` supplies only the remaining polynomial part.  L A and
Y are formed from (n,) column products over the triangles (see
``_bartlett_products``).

Reproducibility: samples are drawn in fixed-size chunks, chunk c from the
substream SeedSequence(seed, spawn_key=(c,)), and per-chunk partial sums
are combined pairwise in chunk order.  The estimate therefore depends on
(seed, params, integrand) only; never on the worker count, which the
environment variable STURM_THREADS (an integer >= 1) merely caps for
speed.

Diagnostics: a sample is rejected and counted when its weighted gamma
factor underflows to 0 or is not finite, or when the integrand is not
finite there.  Rejected samples still count in the sample size, as
zeros.  The variance is the centred sum of squares over the sample size:
each chunk sums squares about its own mean, and the pairwise reduction
adds the gap between merged means, so an integrand that is constant after
weighting reports a stderr at rounding level, not a cancellation residue.
The effective sample size is that of the raw importance weights.

Bundled integrands: an integrand may return a tuple of components that
share one draw (the samples, the weights and Y are computed once per
chunk).  Each component is then reduced exactly as it would be alone: its
own finite mask and ``rejected`` count, its own pairwise chunk sums and
effective sample size.  A sample that one component rejects still counts
in the others.  Each component's estimate is therefore bitwise the one a
lone integral of that component, with the same seed, t, power, nu and
budget, would give.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exterior_algebra import exterior_power_batch, sandwich_esp_all
from .special_functions import FOUR_PI, c_poch, gamma_m, log_gamma_m


@dataclass(frozen=True)
class MonteCarloParams:
    """Sampling budget and reproducibility knobs for cone integrals."""

    samples: int = 1_000_000
    seed: int = 0
    nu: float | None = None  # proposal degrees of freedom; None = per-integral default
    chunk_size: int = 65_536

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass
class IntegralEstimate:
    """Importance-sampling estimate with per-entry standard error."""

    value: object
    stderr: object
    samples: int
    effective_samples: float
    rejected: int = 0


def worker_count() -> int:
    """Threads for chunk sampling: STURM_THREADS, default 1.

    Raises ValueError when the variable is not an integer or is below 1.
    """
    raw = os.environ.get("STURM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"STURM_THREADS must be an integer >= 1 (got {raw!r})")
    return workers


def _bartlett_products(chol, a):
    """``(B, Y)`` with ``B = L A`` and ``Y = B B^T``, for a lower-triangular
    ``chol`` = L and a batch ``a`` of lower-triangular Bartlett factors.

    Both are sums of (n,) column products over the triangles, in ascending
    order; the exact zeros outside them are skipped.
    """
    m = a.shape[1]
    b = np.zeros_like(a)
    for i in range(m):
        for k in range(i + 1):
            b[:, i, k] = sum(chol[i, j] * a[:, j, k] for j in range(k, i + 1))
    y = np.empty_like(a)
    for i in range(m):
        for j in range(i + 1):
            y[:, i, j] = y[:, j, i] = sum(b[:, i, k] * b[:, j, k] for k in range(j + 1))
    return b, y


def _chunk_partials(f, m, nu, power, chol_scale, log_norm, seed, chunk_index, count):
    """(bundled, per-component partial sums) of one chunk's shared draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    a = np.zeros((count, m, m))
    for i in range(m):
        a[:, i, i] = np.sqrt(2.0 * rng.standard_gamma(0.5 * (nu - i), size=count))
    tril = np.tril_indices(m, k=-1)
    if tril[0].size:
        a[:, tril[0], tril[1]] = rng.standard_normal((count, tril[0].size))
    b, y = _bartlett_products(chol_scale, a)
    diag = np.einsum("nii->ni", b)
    logdet_y = 2.0 * np.sum(np.log(diag), axis=1)
    tr_viy = np.einsum("nij,nij->n", a, a)
    log_q = 0.5 * (nu - m - 1.0) * logdet_y - 0.5 * tr_viy - log_norm
    w = np.exp(-0.5 * (m + 1.0) * logdet_y - log_q)
    # w det(Y)^power exp(-tr(tY)), with tr(tY) = tr_viy / 2 cancelled exactly
    weight = np.exp((power - 0.5 * nu) * logdet_y + log_norm)
    out = f(y)
    bundled = isinstance(out, tuple)
    components = out if bundled else (out,)
    return bundled, [_component_partials(np.asarray(fx, dtype=float), weight, w, count) for fx in components]


def _component_partials(fx, weight, w, count):
    """Partial sums of ``fx * weight``: the sum and the centred sum of
    squares about the chunk mean.  ``w``, the raw importance weight, only
    feeds the effective sample size."""
    x = fx * (weight if fx.ndim == 1 else weight[:, None, None])
    # a weight that underflowed to 0 says nothing about fx there
    finite = np.isfinite(w) & np.isfinite(weight) & (weight > 0.0)
    finite &= np.isfinite(x) if x.ndim == 1 else np.isfinite(x).all(axis=(1, 2))
    rejected = int(count - np.count_nonzero(finite))
    if rejected:
        mask = finite if x.ndim == 1 else finite[:, None, None]
        x = np.where(mask, x, 0.0)
        w = np.where(finite, w, 0.0)
    sum_x = x.sum(axis=0)
    sq_dev = x - sum_x / count
    sq_dev *= sq_dev  # in place, so the chunk holds one temporary
    return (
        sum_x,
        sq_dev.sum(axis=0),
        float(w.sum()),
        float((w * w).sum()),
        count,
        rejected,
    )


def _pairwise_sum(items):
    """Sum partials pairwise; the centred sums of squares are merged with
    the gap between the two means (Chan, Golub & LeVeque 1979)."""
    if len(items) == 1:
        return items[0]
    half = len(items) // 2
    left = _pairwise_sum(items[:half])
    right = _pairwise_sum(items[half:])
    sum_x, m2, *rest = (l + r for l, r in zip(left, right))
    n_left, n_right = left[4], right[4]
    gap = right[0] / n_right - left[0] / n_left
    return (sum_x, m2 + gap * gap * (n_left * n_right / (n_left + n_right)), *rest)


def _estimate(partials) -> IntegralEstimate:
    """Combine one component's per-chunk partial sums, in chunk order."""
    sum_x, m2, sum_w, sum_w2, n_total, n_rej = _pairwise_sum(partials)
    mean = sum_x / n_total
    stderr = np.sqrt(m2 / n_total / n_total)
    ess = (sum_w * sum_w / sum_w2) if sum_w2 > 0.0 else 0.0
    return IntegralEstimate(
        value=float(mean) if np.ndim(mean) == 0 else mean,
        stderr=float(stderr) if np.ndim(stderr) == 0 else stderr,
        samples=int(n_total),
        effective_samples=float(ess),
        rejected=int(n_rej),
    )


def integrate_invariant(
    f, m: int, params: MonteCarloParams, *, t, power, nu_default=None
) -> IntegralEstimate | tuple:
    """Estimate  int f(Y) det(Y)^power exp(-tr(tY)) dY_inv  over SPD matrices.

    ``t`` is an SPD (m, m) matrix.  ``f`` receives a batch (n, m, m) of SPD
    samples and returns only the remaining factor: (n,) scalars or
    (n, d, d) matrices, or a tuple of such components that share the draw.
    A plain array gives one ``IntegralEstimate``; a tuple gives a tuple of
    estimates, one per component, each reduced on its own: a sample whose
    weighted gamma factor or component value is unusable is masked and
    counted in that component's ``rejected`` only, and each component has
    its own effective sample size.  The proposal is Wishart(nu, (2t)^{-1}).
    Degrees of freedom: ``params.nu`` overrides ``nu_default`` overrides
    m + 2 power, and must exceed m - 1.
    """
    nu = params.nu if params.nu is not None else (nu_default if nu_default is not None else m + 2.0 * power)
    if nu <= m - 1:
        raise ValueError(f"proposal degrees of freedom nu={nu} must exceed m-1={m - 1}")
    chol = np.linalg.cholesky(np.linalg.inv(2.0 * np.asarray(t, dtype=float)))
    logdet_scale = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_norm = (
        0.5 * nu * m * math.log(2.0) + 0.5 * nu * logdet_scale + log_gamma_m(m, 0.5 * nu)[0]
    )

    chunks = []
    remaining = params.samples
    index = 0
    while remaining > 0:
        count = min(params.chunk_size, remaining)
        chunks.append((index, count))
        remaining -= count
        index += 1

    def run(job):
        chunk_index, count = job
        return _chunk_partials(f, m, nu, power, chol, log_norm, params.seed, chunk_index, count)

    workers = worker_count()
    if workers == 1 or len(chunks) == 1:
        partials = [run(job) for job in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, chunks))

    bundled = partials[0][0]
    estimates = tuple(_estimate(list(parts)) for parts in zip(*(parts for _, parts in partials)))
    return estimates if bundled else estimates[0]


def i_q_closed(m: int, q: int, s) -> float:
    """Closed form of the exterior-trace cone integral:

        (-4 pi)^{-q} (4 pi)^{-m s} binom(m, q) C_q(-s) Gamma_m(s).
    """
    if not 0 <= q <= m:
        raise ValueError(f"q={q} out of range 0..{m}")
    g = gamma_m(m, s)
    sf = float(s)
    return (-FOUR_PI) ** (-q) * FOUR_PI ** (-m * sf) * math.comb(m, q) * c_poch(q, -sf) * g


def _degrees(m: int, q) -> list:
    """Validated degree list of ``q``, one degree or a sequence of them."""
    degrees = [q] if np.ndim(q) == 0 else list(q)
    if not degrees:
        raise ValueError("at least one degree is required")
    for d in degrees:
        if not 0 <= d <= m:
            raise ValueError(f"q={d} out of range 0..{m}")
    return degrees


def i_q_numeric(m: int, q, s, t_mat, params: MonteCarloParams):
    """Monte Carlo oracle for the exterior-trace integral

        int trace((Y^{1/2} T Y^{1/2})^[q]) det(TY)^s exp(-4 pi tr(TY)) dY_inv .

    The estimand is independent of the SPD matrix ``t_mat`` (invariance of
    the measure); distinct choices must agree within error.  ``q`` is one
    degree, giving one estimate, or a sequence of degrees, giving a tuple
    of estimates in the same order from one shared draw; each equals the
    single-degree estimate bitwise.
    """
    degrees = _degrees(m, q)
    t = np.asarray(t_mat, dtype=float)
    sf = float(s)
    det_t_s = float(np.linalg.det(t)) ** sf
    qmax = max(degrees)

    def integrand(y):
        esp = sandwich_esp_all(y, t, qmax)
        return tuple(esp[:, d] * det_t_s for d in degrees)

    estimates = integrate_invariant(integrand, m, params, t=FOUR_PI * t, power=sf)
    return estimates if np.ndim(q) else estimates[0]


def q_trace_integral_num(m: int, q, s, params: MonteCarloParams):
    """Monte Carlo oracle for the matrix-valued integral

        int Y^[q] exp(-trace Y) det(Y)^s dY_inv = (-1)^q C_q(-s) Gamma_m(s) E .

    ``q`` is one degree, giving one estimate, or a sequence of degrees,
    giving a tuple of estimates in the same order from one shared draw;
    each equals the single-degree estimate bitwise.
    """
    degrees = _degrees(m, q)

    def integrand(y):
        return tuple(exterior_power_batch(y, d) for d in degrees)

    estimates = integrate_invariant(integrand, m, params, t=np.eye(m), power=s)
    return estimates if np.ndim(q) else estimates[0]
