"""Acceptance suite: one check per shipped guarantee, one line of output each.

Each test prints exactly one [PASS]/[FAIL] line on the real stdout so the
gate stays visible inside captured pytest runs.  Budgets are wall-clock
and generous only where sampling dominates.
"""

import json
import math
import time

import numpy as np
import pytest

from sturmverify import (
    HalfIntegralForm,
    MonteCarloParams,
    a_closed,
    c_const,
    det_dz_closed,
    limit_factor,
    maass_coeff_factor,
    phantom_coeff,
    sturm_limit,
    sturm_numeric,
)
from sturmverify.cli import main
from sturmverify.finite_difference import det_dz_numeric
from sturmverify.suites import run_cone, run_exterior, run_pm, run_sandwich
from conftest import half_integral, spd

SAMPLES = 1_000_000


@pytest.fixture
def announce(capfd):
    """One [PASS]/[FAIL] line per criterion on the uncaptured stdout."""

    def _report(num, desc, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        with capfd.disabled():
            print(f"[{tag}] criterion {num}: {desc}{suffix}", flush=True)
        assert ok, f"criterion {num} failed: {desc}{suffix}"

    return _report


def test_criterion_01_polynomial_identity_and_recursion(announce):
    started = time.perf_counter()
    records = run_pm(max_genus=12)
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in records) and elapsed < 1.0
    announce(
        1,
        "q-sum polynomial equals its closed product form (m=1..12) and satisfies the shift recursion",
        ok,
        f"{len(records)} exact checks, {elapsed:.2f}s",
    )


def test_criterion_02_limit_equals_phantom_coefficient(announce):
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst = 0.0
    for m in range(2, 6):
        for _ in range(20):
            form = HalfIntegralForm(half_integral(rng, m))
            b_t = float(rng.uniform(0.5, 2.0))
            got = sturm_limit(m, m - 1, form, b_t).value
            want = phantom_coeff(m, form, b_t)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    announce(
        2,
        "normalized s->0 limit equals -(4 pi)^m det(T) b(T) for m=2..5, 20 random indices each",
        ok,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_high_weight_limits_vanish_exactly(announce):
    bad = [
        (m, k)
        for m in range(2, 6)
        for k in range(m, m + 4)
        if limit_factor(m, k) != 0.0
    ]
    announce(
        3,
        "normalized limits are exactly 0.0 for m=2..5, k=m..m+3",
        not bad,
        "all 16 weight/genus pairs exact" if not bad else f"nonzero at {bad}",
    )


def test_criterion_04_derivative_closed_form_vs_finite_differences(announce):
    rng = np.random.default_rng(2024)
    started = time.perf_counter()

    def worst_gap(m, cases):
        worst = 0.0
        for _ in range(cases):
            j = float(rng.uniform(0.6, 3.4))
            t = rng.uniform(-1, 1, (m, m))
            t = (t + t.T) / 2
            x = rng.uniform(-1, 1, (m, m))
            z = (x + x.T) / 2 + 1j * spd(rng, m)

            def f(zz, _j=j, _t=t):
                y = np.asarray(zz).imag
                power = np.array([d ** _j for d in np.linalg.det(y)])
                return power * np.exp(2j * math.pi * np.trace(_t @ zz, axis1=1, axis2=2))

            got = det_dz_numeric(f, z)
            want = det_dz_closed(m, j, t, z)
            worst = max(worst, abs(got - want) / abs(want))
        return worst

    worst2 = worst_gap(2, 25)
    worst3 = worst_gap(3, 10)
    elapsed = time.perf_counter() - started
    ok = worst2 <= 1e-6 and worst3 <= 1e-4 and elapsed < 30.0
    announce(
        4,
        "closed derivative formula matches Richardson finite differences (m=2: 25 cases, m=3: 10)",
        ok,
        f"worst m=2 {worst2:.2e}, m=3 {worst3:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_cone_integrals_million_samples(announce):
    started = time.perf_counter()
    records = run_cone(m=2, s=2.5, samples=SAMPLES, seed=0)
    elapsed = time.perf_counter() - started
    wanted = [
        r
        for r in records
        if r.check_id.startswith("cone.iq") or r.check_id.startswith("cone.matrix_q")
    ]
    ok = bool(wanted) and all(r.passed for r in wanted) and elapsed < 120.0
    announce(
        5,
        "10^6-sample exterior-trace integrals: 3-sigma agreement, <=1% stderr, index-matrix invariance",
        ok,
        f"{len(wanted)} sampling checks, {elapsed:.1f}s",
    )


def test_criterion_06_sturm_numeric_matches_closed_form(announce):
    rng = np.random.default_rng(6)
    form = HalfIntegralForm(half_integral(rng, 2))
    b_t = float(rng.uniform(0.6, 1.8))

    def coeff(f, y):
        return b_t * maass_coeff_factor(2, 1, f, y)

    est = sturm_numeric(2, 3, coeff, form, 1.0, MonteCarloParams(samples=SAMPLES, seed=6))
    want = a_closed(2, 1, 1.0, form, b_t)
    gap = abs(est.value - want)
    ok = gap <= 3.0 * est.stderr + 1e-12 * abs(want)
    announce(
        6,
        "end-to-end coefficient integral at m=2, k=1, s=1 matches the closed form within 3 sigma",
        ok,
        f"gap {gap:.2e} vs stderr {est.stderr:.2e}",
    )


def test_criterion_07_holomorphic_normalization(announce):
    rng = np.random.default_rng(7)
    form = HalfIntegralForm(half_integral(rng, 2))
    b_t = float(rng.uniform(0.6, 1.8))

    def coeff(f, y):
        return np.full(y.shape[0], b_t)

    est = sturm_numeric(2, 4, coeff, form, 0.0, MonteCarloParams(samples=SAMPLES, seed=7))
    norm = c_const(2, 4)
    gap = abs(est.value / norm - b_t)
    ok = gap <= 3.0 * est.stderr / norm + 1e-12
    announce(
        7,
        "normalized transform fixes holomorphic coefficients (m=2, weight 4)",
        ok,
        f"gap {gap:.2e} vs stderr {est.stderr / norm:.2e}",
    )


def test_criterion_08_exterior_algebra_suite(announce):
    started = time.perf_counter()
    records = run_exterior(0, instances=200, max_m=5)
    records += run_sandwich(0, instances=200, max_m=5)
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in records) and elapsed < 10.0
    announce(
        8,
        "functoriality, normalized-product closure and the sandwich identity at 200 instances, m<=5",
        ok,
        f"{len(records)} checks, worst-case tol 1e-9, {elapsed:.1f}s",
    )


def test_criterion_09_repeated_runs_are_identical(announce, tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "all", "--quick", "--seed", "7"]
    rc_a = main(args + ["--out", str(out_a)])
    rc_b = main(args + ["--out", str(out_b)])
    data_a = json.loads(out_a.read_text())
    data_b = json.loads(out_b.read_text())
    data_a.pop("wall_time_s")
    data_b.pop("wall_time_s")
    ok = rc_a == 0 and rc_b == 0 and data_a == data_b
    announce(
        9,
        "repeated `verify all --seed 7` runs produce identical numeric fields",
        ok,
        f"{len(data_a['checks'])} records compared",
    )
