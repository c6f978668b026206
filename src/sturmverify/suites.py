"""Named verification suites behind the CLI.

Each suite compares closed forms against independent oracles (exact
rational expansion, eigenvalue recomputation, finite differences, Monte
Carlo) and returns CheckRecords; random instances draw from seeded
substreams so reports are reproducible field-for-field.

Every check is one row built by one of three check kinds: a gap check
(the worst of a list of gaps against a tolerance; ``worst`` lets a NaN
through, so a comparison that broke down fails), an exact check (a value
that must equal its expected value; a predicate is 1.0 when it holds) and
a sigma check (an IntegralEstimate within 3 standard errors of a closed
value or of a second estimate).  A check that reads an estimate with no
accepted sample fails, with a note.  ``run_suite`` is the one dispatch
from suite names to suites and owns the run sizes and the defaults.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cone_integration import (
    IntegralEstimate,
    MonteCarloParams,
    i_q_closed,
    i_q_numeric,
    integrate_invariant,
    q_trace_integral_num,
)
from .exterior_algebra import (
    ExteriorMatrix,
    exterior_power,
    sqcap,
    sym_sqrt,
    trace_sandwich,
)
from .finite_difference import det_dz_numeric, exterior_derivative_num
from .maass_operator import (
    FourierExpansion,
    HalfIntegralForm,
    _det_dz_amplitude,
    det_dz_closed,
    maass_apply,
    maass_coeff_factor,
)
from .report import CheckRecord
from .special_functions import (
    FOUR_PI,
    BivariatePolynomial,
    c_const,
    c_poch,
    gamma_m,
    limit_factor,
    p_m_closed_poly,
    p_m_poly,
)
from .sturm_operator import a_closed, a_closed_qsum, phantom_coeff, sturm_numeric

DEFAULT_SAMPLES = 1_000_000
QUICK_SAMPLES = 100_000
QUICK_GENUS = 3

# the suites in the order ``verify all`` runs them
SUITES = ("pm", "exterior", "sandwich", "maass", "cone", "sturm")


class SuiteParameters(NamedTuple):
    """Single-suite parameters and defaults; nu None is the per-integral default, q None every degree."""

    m: int = 2
    k: int = 1
    s: float = 2.5
    nu: float | None = None
    q: int | None = None


def run_suite(
    suite: str, seed: int, samples: int, max_genus: int, quick: bool, params: SuiteParameters = SuiteParameters()
) -> list:
    """Records of the named suite; "all" joins every suite in SUITES order,
    each at the default parameters.  The maass suite carries the
    finite-difference rules too.  Quick mode caps the samples and the genus,
    and runs 50 exterior instances up to QUICK_GENUS (else 200 up to 5)."""
    if suite == "all":
        return [record for name in SUITES for record in run_suite(name, seed, samples, max_genus, quick)]
    if quick:
        samples, max_genus = min(samples, QUICK_SAMPLES), min(max_genus, QUICK_GENUS)
    instances, max_m = (50, QUICK_GENUS) if quick else (200, 5)
    if suite == "pm":
        return run_pm(max_genus)
    if suite == "exterior":
        return run_exterior(seed, instances, max_m)
    if suite == "sandwich":
        return run_sandwich(seed, instances, max_m)
    if suite == "maass":
        return run_maass(seed, quick) + run_fd(seed)
    if suite == "cone":
        return run_cone(params.m, params.s, samples, seed, params.nu, params.q)
    if suite == "sturm":
        return run_sturm(samples, seed, quick, params.k)
    raise ValueError(f"unknown suite {suite!r}")


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(997, tag)))


def random_spd(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T + (0.5 + rng.random()) * np.eye(m))


def random_half_integral_form(rng: np.random.Generator, m: int) -> HalfIntegralForm:
    """Random positive definite half-integral index via strict diagonal dominance."""
    off = rng.integers(-2, 3, size=(m, m))
    two_t = off + off.T
    np.fill_diagonal(two_t, 0)
    dominance = np.abs(two_t).sum(axis=1)
    diag = dominance + 2 * rng.integers(1, 4, size=m)
    diag += diag % 2
    np.fill_diagonal(two_t, diag)
    return HalfIntegralForm(tuple(map(tuple, two_t.tolist())))


def _rel_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    ref = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / ref


# ---------------------------------------------------------------------------
# check kinds


def worst(gaps) -> float:
    """The largest gap, 0.0 for none; NaN when any gap is NaN."""
    return float(np.max(gaps, initial=0.0))


def _record(check_id, statement, expected, actual, tol, mode, *, stderr=None, note="", reads=()) -> CheckRecord:
    """``CheckRecord.compare``, failed with a note when an estimate in
    ``reads`` accepted no sample (its value and stderr are then 0)."""
    record = CheckRecord.compare(check_id, statement, expected, actual, tol, mode=mode, stderr=stderr, note=note)
    starved = [f"{est.rejected} of {est.samples}" for est in reads if est.rejected == est.samples]
    if not starved:
        return record
    why = f"an estimate it reads accepted no sample ({', '.join(starved)} samples rejected)"
    return dataclasses.replace(record, passed=False, note="; ".join(filter(None, (record.note, why))))


def gap_check(check_id, statement, gaps, tol, *, note="", reads=()) -> CheckRecord:
    """The worst of ``gaps`` is at most ``tol``; ``reads`` holds the
    estimates the gaps come from."""
    return _record(check_id, statement, 0.0, worst(gaps), tol, "abs", note=note, reads=reads)


def exact_check(check_id, statement, expected, actual, *, note="") -> CheckRecord:
    """``actual`` equals ``expected`` exactly."""
    return _record(check_id, statement, expected, actual, 0.0, "abs", note=note)


def sigma_check(check_id, statement, reference, estimate: IntegralEstimate, *, note="") -> CheckRecord:
    """``estimate`` lies within 3 sigma of ``reference``: a closed value, or
    a second estimate whose stderr adds to the first in quadrature."""
    if isinstance(reference, IntegralEstimate):
        expected, reads = reference.value, (estimate, reference)
        stderr = math.hypot(estimate.stderr, reference.stderr)
    else:
        expected, reads, stderr = reference, (estimate,), estimate.stderr
    return _record(check_id, statement, expected, estimate.value, 3.0, "sigma", stderr=stderr, note=note, reads=reads)


def coefficient_checks(rows, seed: int) -> list:
    """Sigma checks of ``sturm_numeric`` of ``b * maass_coeff_factor`` (weight
    k, integrated at weight k + 2 and shift s) against ``a_closed``, one per
    row ``(check_id, statement, m, k, s, form, b, samples)``.  Every closed
    form comes before the first sample, so a pole or an overflow stops the
    run before any sampling.  Each note gives the estimate's rejected count."""
    closed = [a_closed(m, k, s, form, b) for _, _, m, k, s, form, b, _ in rows]
    records = []
    for (check_id, statement, m, k, s, form, b, samples), expected in zip(rows, closed):
        coeff = lambda f, y, _m=m, _k=k, _b=b: _b * maass_coeff_factor(_m, _k, f, y)
        est = sturm_numeric(m, k + 2, coeff, form, s, MonteCarloParams(samples=samples, seed=seed))
        records.append(sigma_check(check_id, statement, expected, est, note=f"rejected={est.rejected}"))
    return records


# ---------------------------------------------------------------------------
# polynomial suite


def run_pm(max_genus: int) -> list:
    """Exact identity of the coefficient-sum polynomial with its closed form,
    and the genus recursion, over Fraction arithmetic."""
    records = []
    z = BivariatePolynomial.variable_z()
    s = BivariatePolynomial.variable_s()
    polys = {m: p_m_poly(m) for m in range(1, max_genus + 1)}
    for m in range(1, max_genus + 1):
        identity_ok = polys[m] == p_m_closed_poly(m)
        recursion_ok = True
        if m >= 2:
            prev = polys[m - 1]
            recursed = z * prev.shift(ds=Fraction(-1, 2), dz=Fraction(1, 2)) - (z + s) * prev.shift(
                ds=Fraction(-1, 2)
            )
            recursion_ok = polys[m] == recursed
        records.append(
            exact_check(
                f"pm.genus{m}",
                f"alternating coefficient sum equals its z-free closed form at genus {m}"
                + (" and satisfies the recursion from the previous genus" if m >= 2 else ""),
                1.0,
                float(identity_ok and recursion_ok),
                note="exact rational arithmetic",
            )
        )
    return records


# ---------------------------------------------------------------------------
# exterior-power suites


def run_exterior(seed: int, instances: int, max_m: int) -> list:
    rng = _rng(seed, 1)
    functorial, transpose, closure, min_eigs = [], [], [], []
    for _ in range(instances):
        m = int(rng.integers(2, max_m + 1))
        q = int(rng.integers(0, m + 1))
        mat_a = rng.uniform(-2.0, 2.0, size=(m, m))
        mat_b = rng.uniform(-2.0, 2.0, size=(m, m))
        lhs = exterior_power(mat_a @ mat_b, q).entries
        rhs = (exterior_power(mat_a, q) @ exterior_power(mat_b, q)).entries
        functorial.append(_rel_gap(lhs, rhs))
        transpose.append(_rel_gap(exterior_power(mat_a.T, q).entries, exterior_power(mat_a, q).entries.T))
        p = int(rng.integers(0, m + 1))
        q2 = int(rng.integers(0, m - p + 1))
        closure_lhs = sqcap(exterior_power(mat_a, p), exterior_power(mat_a, q2)).entries
        closure_rhs = exterior_power(mat_a, p + q2).entries
        closure.append(_rel_gap(closure_lhs, closure_rhs))
        spd = random_spd(rng, m)
        min_eigs.append(np.min(np.linalg.eigvalsh(exterior_power(spd, q).entries)))
    min_eig = float(np.min(min_eigs, initial=math.inf))
    return [
        gap_check(
            "exterior.functoriality",
            f"(MN)^[q] = M^[q] N^[q] over {instances} random instances, m <= {max_m}",
            functorial,
            1e-9,
        ),
        gap_check("exterior.transpose", f"(M^T)^[q] = (M^[q])^T over {instances} random instances", transpose, 1e-12),
        gap_check(
            "exterior.product_closure",
            f"M^[p] sqcap M^[q] = M^[p+q] over {instances} random instances, m <= {max_m}",
            closure,
            1e-9,
        ),
        exact_check(
            "exterior.spd_preserved",
            "exterior powers of SPD matrices stay SPD (smallest eigenvalue seen)",
            1.0,
            float(min_eig > 0.0),
            note=f"min eigenvalue {min_eig:.3e}",
        ),
    ]


def run_sandwich(seed: int, instances: int, max_m: int) -> list:
    rng = _rng(seed, 2)
    oracle, identity, reduction = [], [], []
    for _ in range(instances):
        m = int(rng.integers(2, max_m + 1))
        q = int(rng.integers(0, m + 1))
        y = random_spd(rng, m)
        t = random_spd(rng, m)
        # independent eigenvalue oracle on the nonsymmetric product
        eig = np.linalg.eigvals(y @ t).real
        esp = sum(math.prod(comb) for comb in itertools.combinations(eig, q))
        oracle.append(abs(trace_sandwich(y, t, q) - esp) / max(abs(esp), 1e-300))

        p = int(rng.integers(0, m + 1))
        q2 = int(rng.integers(0, m - p + 1))
        h = p + q2
        root = sym_sqrt(y)
        root_inv = np.linalg.inv(root)
        lhs = sqcap(exterior_power(np.linalg.inv(y), p), exterior_power(t, q2)).entries @ exterior_power(y, h).entries
        mid = sqcap(exterior_power(np.eye(m), p), exterior_power(root @ t @ root, q2)).entries
        rhs = exterior_power(root_inv, h).entries @ mid @ exterior_power(root, h).entries
        identity.append(_rel_gap(lhs, rhs))

        p_full = int(rng.integers(0, m + 1))
        q_full = m - p_full
        scalar = sqcap(exterior_power(np.linalg.inv(y), p_full), exterior_power(t, q_full)).entries[0, 0]
        closed = trace_sandwich(y, t, q_full) / (math.comb(m, p_full) * float(np.linalg.det(y)))
        reduction.append(abs(scalar - closed) / max(abs(closed), 1e-300))
    return [
        gap_check(
            "sandwich.eigenvalue_oracle",
            f"trace of sandwiched exterior power equals e_q of the YT eigenvalues, {instances} instances",
            oracle,
            1e-10,
        ),
        gap_check(
            "sandwich.matrix_identity",
            "conjugation identity moving Y^(-1/2) factors through the induced product",
            identity,
            1e-9,
        ),
        gap_check(
            "sandwich.full_degree_reduction",
            "full-degree induced product collapses to the sandwich trace over binom(m,p) det Y",
            reduction,
            1e-10,
        ),
    ]


# ---------------------------------------------------------------------------
# shift-operator suite (finite-difference cross-checks)


def _det_dz_gap(m, j, t, z) -> float:
    """Relative gap between closed and central-difference det(d/dZ) of det(Im Z)^j exp(2 pi i tr(TZ))."""

    def func(zz):
        return np.linalg.det(zz.imag) ** j * np.exp(2j * math.pi * np.trace(t @ zz, axis1=1, axis2=2))

    closed = det_dz_closed(m, j, t, z)
    return abs(closed - det_dz_numeric(func, z)) / max(abs(closed), 1e-300)


def run_maass(seed: int, quick: bool) -> list:
    rng = _rng(seed, 3)
    records = []

    for m, cases, tol in ((2, 5 if quick else 25, 1e-6), (3, 3 if quick else 10, 1e-4)):
        gaps = []
        for _ in range(cases):
            j = float(rng.uniform(1.0, 3.0))
            t = random_spd(rng, m, scale=0.4)
            x = rng.uniform(-0.8, 0.8, size=(m, m))
            x = 0.5 * (x + x.T)
            y = random_spd(rng, m, scale=0.6) + 0.5 * np.eye(m)
            gaps.append(_det_dz_gap(m, j, t, x + 1j * y))
        records.append(
            gap_check(
                f"maass.det_derivative_m{m}",
                f"closed det-derivative of det(Y)^j exp(2 pi i tr(TZ)) vs nested central differences, {cases} cases",
                gaps,
                tol,
            )
        )

    coeff_gaps = []
    for _ in range(3 if quick else 20):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        form = random_half_integral_form(rng, m)
        y = random_spd(rng, m)
        # Re Z cancels from the comparison; it is still drawn so later cases keep their draws
        rng.uniform(-0.5, 0.5, size=(m, m))
        j = float(Fraction(k) + Fraction(1 - m, 2))
        lhs = maass_coeff_factor(m, k, form, y)
        # det_dz_closed times exp(-2 pi i tr(TZ)), without either exponential
        rhs = (2j) ** m * np.linalg.det(y) ** (-j) * _det_dz_amplitude(m, j, form.to_array(), y)
        coeff_gaps.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))

    linear_gaps = []
    for _ in range(2 if quick else 10):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        forms = [random_half_integral_form(rng, m) for _ in range(3)]
        b1 = {f: float(rng.uniform(-2, 2)) for f in forms}
        b2 = {f: float(rng.uniform(-2, 2)) for f in forms[1:]}
        alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        h1 = FourierExpansion(m, k, b1)
        h2 = FourierExpansion(m, k, b2)
        combined = FourierExpansion(
            m, k, {f: alpha * b1.get(f, 0.0) + beta * b2.get(f, 0.0) for f in forms}
        )
        y = random_spd(rng, m)
        c1, c2, cc = maass_apply(h1), maass_apply(h2), maass_apply(combined)
        for f in forms:
            part1, part2 = alpha * c1(f, y), beta * c2(f, y)
            # both sides round the same exact value, each within 3u (|part1| + |part2|)
            linear_gaps.append(abs(cc(f, y) - (part1 + part2)) / max(abs(part1) + abs(part2), 1e-300))

    # degenerate indices are accepted by the closed det-derivative
    degenerate_gaps = []
    for t_degenerate in (np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]])):
        j = 2.25
        z = np.array([[0.3, 0.1], [0.1, -0.2]]) + 1j * np.array([[1.1, 0.2], [0.2, 0.9]])
        degenerate_gaps.append(_det_dz_gap(2, j, t_degenerate, z))

    return records + [
        gap_check(
            "maass.coeff_vs_det_derivative",
            "Fourier-action ratio equals the normalized closed det-derivative",
            coeff_gaps,
            1e-12,
        ),
        gap_check("maass.linearity", "coefficient action is linear in the expansion", linear_gaps, 1e-13),
        gap_check(
            "maass.degenerate_index",
            "closed det-derivative accepts zero and rank-deficient indices",
            degenerate_gaps,
            1e-6,
        ),
    ]


# ---------------------------------------------------------------------------
# finite-difference plumbing suite (exterior derivative rules)


def run_fd(seed: int) -> list:
    rng = _rng(seed, 4)
    records = []
    for m, tol in ((2, 1e-6), (3, 1e-4)):
        t = random_spd(rng, m, scale=0.3)
        y = random_spd(rng, m, scale=0.8) + 0.4 * np.eye(m)
        alpha = float(rng.uniform(0.8, 2.6))

        def exp_trace(yy):
            return np.exp(np.trace(t @ yy, axis1=1, axis2=2))

        def det_power(yy):
            return np.linalg.det(yy) ** alpha

        exp_gaps, det_gaps = [], []
        for q in range(1, min(m, 3) + 1):
            # derivative of exp(tr TY) is T^[q] exp(tr TY)
            num = exterior_derivative_num(exp_trace, y, q).entries
            closed = exterior_power(t, q).entries * math.exp(np.trace(t @ y))
            exp_gaps.append(_rel_gap(num, closed))

            # derivative of det(Y)^alpha is C_q(alpha) det(Y)^alpha Y^{-[q]}
            num = exterior_derivative_num(det_power, y, q).entries
            closed = (
                float(c_poch(q, alpha))
                * np.linalg.det(y) ** alpha
                * exterior_power(np.linalg.inv(y), q).entries
            )
            det_gaps.append(_rel_gap(num, closed))

        # product rule: d^[h](f g) = sum_{p+q=h} binom(h,p) (d^[p] f) sqcap (d^[q] g)
        # (the binomial compensates the normalization baked into sqcap)
        h_deg = 2
        num = exterior_derivative_num(lambda yy: det_power(yy) * exp_trace(yy), y, h_deg).entries
        dety_a = np.linalg.det(y) ** alpha
        exp_t = math.exp(np.trace(t @ y))
        closed = np.zeros_like(num)
        for p in range(h_deg + 1):
            left = float(c_poch(p, alpha)) * dety_a * exterior_power(np.linalg.inv(y), p).entries
            right = exp_t * exterior_power(t, h_deg - p).entries
            closed += math.comb(h_deg, p) * sqcap(
                ExteriorMatrix(m, p, left), ExteriorMatrix(m, h_deg - p, right)
            ).entries

        records += [
            gap_check(
                f"fd.exp_trace_rule_m{m}",
                "numeric exterior derivative of exp(tr TY) matches T^[q] exp(tr TY)",
                exp_gaps,
                tol,
            ),
            gap_check(
                f"fd.det_power_rule_m{m}",
                "numeric exterior derivative of det(Y)^a matches C_q(a) det(Y)^a (Y^-1)^[q]",
                det_gaps,
                tol,
            ),
            gap_check(
                f"fd.product_rule_m{m}",
                "numeric exterior derivative of a product matches the induced-product expansion",
                [_rel_gap(num, closed)],
                tol,
            ),
        ]
    return records


# ---------------------------------------------------------------------------
# cone suite


def run_cone(m: int, s: float, samples: int, seed: int, nu: float | None = None, q_only: int | None = None) -> list:
    rng = _rng(seed, 5)
    params = MonteCarloParams(samples=samples, seed=seed, nu=nu)
    records = []
    qs = [q_only] if q_only is not None else list(range(m + 1))

    # the second index matrix and the normalization's index
    t_one = np.eye(m)
    t_two = random_spd(rng, m)
    t_norm = random_spd(rng, m)

    # distinct seed for the second index matrix: with a shared seed the
    # built-in change of variables makes the two runs bitwise-identical
    params_two = MonteCarloParams(samples=samples, seed=seed + 1000, nu=nu)

    # closed forms before any sampling: a pole in them is bad input
    closed_iq = {q: i_q_closed(m, q, s) for q in qs}
    closed_mat = {q: float((-1) ** q * c_poch(q, -float(s)) * gamma_m(m, s)) for q in qs}
    # full-degree shift: (-1)^m C_m(-s) Gamma_m(s) = Gamma_m(s+1)
    lhs = float((-1) ** m * c_poch(m, -float(s)) * gamma_m(m, s))
    rhs = gamma_m(m, float(s) + 1.0)
    # well-known normalization: int exp(-tr TY) det(Y)^s dY_inv = det(T)^{-s} Gamma_m(s)
    closed_norm = float(np.linalg.det(t_norm)) ** (-float(s)) * gamma_m(m, s)

    # integrals sharing seed, t, power, nu and budget share one draw
    ests_one = dict(zip(qs, i_q_numeric(m, qs, s, t_one, params)))
    ests_two = dict(zip(qs, i_q_numeric(m, qs, s, t_two, params_two)))
    mats = q_trace_integral_num(m, qs, s, params)

    for q, mat in zip(qs, mats):
        closed = closed_iq[q]
        est_one = ests_one[q]
        value_mat = np.atleast_2d(mat.value)
        diag_err = float(np.max(np.abs(np.diag(value_mat) - closed_mat[q])))
        diag_sig = float(np.max(np.atleast_2d(mat.stderr)))
        records += [
            sigma_check(
                f"cone.iq{q}.estimate",
                f"Monte Carlo exterior-trace integral (q={q}) matches the closed form within 3 sigma",
                closed,
                est_one,
            ),
            gap_check(
                f"cone.iq{q}.precision",
                f"relative standard error at q={q} is at most 1%",
                [est_one.stderr / max(abs(closed), 1e-300)],
                0.01,
                reads=(est_one,),
            ),
            sigma_check(
                f"cone.iq{q}.invariance",
                f"estimates with two distinct index matrices agree (q={q})",
                ests_two[q],
                est_one,
            ),
            sigma_check(
                f"cone.matrix_q{q}.diagonal",
                f"matrix-valued integral of Y^[{q}] exp(-tr Y) det(Y)^s is the closed multiple of the identity",
                closed_mat[q],
                dataclasses.replace(mat, value=closed_mat[q] + diag_err, stderr=diag_sig),
            ),
        ]
        if value_mat.shape[0] > 1:
            off = value_mat - np.diag(np.diag(value_mat))
            records.append(
                sigma_check(
                    f"cone.matrix_q{q}.offdiagonal",
                    f"off-diagonal entries of the Y^[{q}] integral vanish within 3 sigma",
                    0.0,
                    dataclasses.replace(mat, value=float(np.max(np.abs(off))), stderr=diag_sig),
                )
            )

    est_norm = integrate_invariant(lambda y: np.ones(len(y)), m, params, t=t_norm, power=s)
    records += [
        _record(
            "cone.full_degree_shift",
            "full-degree closed form equals the shifted multivariate gamma",
            rhs,
            lhs,
            1e-13,
            "rel",
        ),
        sigma_check(
            "cone.gamma_normalization",
            "exp(-tr TY) det(Y)^s integrates to det(T)^{-s} Gamma_m(s)",
            closed_norm,
            est_norm,
        ),
    ]
    return records


# ---------------------------------------------------------------------------
# coefficient suite


def run_sturm(samples: int, seed: int, quick: bool, k2: int) -> list:
    rng = _rng(seed, 6)

    top_m = QUICK_GENUS if quick else 5
    cases = 5 if quick else 20
    chain = []
    for m in range(2, top_m + 1):
        for _ in range(cases):
            form = random_half_integral_form(rng, m)
            b_t = float(rng.uniform(0.5, 2.0))
            via_limit = limit_factor(m, m - 1) * float(form.det) * b_t
            phantom = phantom_coeff(m, form, b_t)
            chain.append(abs(via_limit - phantom) / abs(phantom))

    prefactor = []
    for m in range(1, 9):
        lhs = (-1) ** (m + 1) * (2j * (2j * math.pi)) ** m
        rhs = -((FOUR_PI) ** m)
        prefactor.append(abs(lhs - rhs) / abs(rhs))

    vanishing = [abs(limit_factor(m, k)) for m in range(2, top_m + 1) for k in range(m, m + 4)]

    branches = []
    for _ in range(20 if quick else 100):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 7))
        s = float(rng.uniform(0.51, 3.99))
        form = random_half_integral_form(rng, m)
        b_t = float(rng.uniform(-2.0, 2.0)) or 1.0
        lhs = a_closed(m, k, s, form, b_t)
        rhs = a_closed_qsum(m, k, s, form, b_t)
        branches.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

    # The Monte Carlo checks draw their cases and evaluate their closed forms
    # before the first sample, so a pole or an overflow stops the run first.
    # At s=1 the genus-3 closed form vanishes through the polynomial root,
    # so the s=1.5 case is kept as the nondegenerate genus-3 comparison.
    coefficient_rows = []
    for m, k, s_chk in ((2, k2, 1.0), (3, 2, 1.0), (3, 2, 1.5)):
        form = random_half_integral_form(rng, m)
        b_t = float(rng.uniform(0.6, 1.8))
        coefficient_rows.append(
            (
                f"sturm.numeric_vs_closed_m{m}_s{s_chk:g}",
                f"Monte Carlo coefficient integral at s={s_chk:g} matches the closed form (m={m}, k={k})",
                m,
                k,
                s_chk,
                form,
                b_t,
                samples if m == 2 else max(samples // 2, 1),
            )
        )
    # holomorphic normalization: a constant coefficient function reproduces b(T)
    form_norm = random_half_integral_form(rng, 2)
    b_norm = float(rng.uniform(0.6, 1.8))
    norm = c_const(2, 4)

    records = [
        gap_check(
            "sturm.phantom_chain",
            f"analytic s->0 limit of the normalized coefficient equals -(4 pi)^m det(T) b(T), genus 2..{top_m}",
            chain,
            1e-12,
        ),
        gap_check("sturm.prefactor_identity", "(-1)^{m+1} (2i * 2 pi i)^m = -(4 pi)^m", prefactor, 1e-13),
        exact_check(
            "sturm.vanishing_weights",
            f"normalized limits vanish identically for weights k >= m, genus 2..{top_m}",
            0.0,
            worst(vanishing),
            note="exact zeros required",
        ),
        gap_check(
            "sturm.dual_branch", "closed coefficient equals the explicit alternating q-sum branch", branches, 1e-11
        ),
    ]
    records += coefficient_checks(coefficient_rows, seed)

    # two indices with equal determinant give the same coefficient integral
    m, k, s_fix = 2, 1, 1.0
    form_a = HalfIntegralForm(((2, 0), (0, 2)))
    form_b = HalfIntegralForm(((4, 2), (2, 2)))
    assert form_a.det == form_b.det
    coeff = lambda f, y, _m=m, _k=k: maass_coeff_factor(_m, _k, f, y)
    est_a = sturm_numeric(m, k + 2, coeff, form_a, s_fix, MonteCarloParams(samples=samples, seed=seed + 2))
    est_b = sturm_numeric(m, k + 2, coeff, form_b, s_fix, MonteCarloParams(samples=samples, seed=seed + 3))

    def const_coeff(f, y):
        return np.full(y.shape[0], b_norm)

    est = sturm_numeric(2, 4, const_coeff, form_norm, 0.0, MonteCarloParams(samples=samples, seed=seed))
    return records + [
        sigma_check(
            "sturm.det_invariance", "indices of equal determinant produce equal coefficient integrals", est_b, est_a
        ),
        sigma_check(
            "sturm.holomorphic_normalization",
            "the normalized transform fixes holomorphic coefficients (m=2, weight 4)",
            b_norm,
            dataclasses.replace(est, value=est.value / norm, stderr=est.stderr / norm),
        ),
    ]
