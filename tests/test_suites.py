"""The check kinds, the suite dispatch and the check inventory."""

import json
import math
import warnings

import pytest

import sturmverify
from sturmverify import CheckRecord, VerificationReport, suites
from sturmverify.cli import main


def no_constants(name):
    raise AssertionError(f"report contains {name}")


class TestCheckRecord:
    @pytest.mark.parametrize("mode", ["abs", "rel", "sigma"])
    @pytest.mark.parametrize("field", ["expected", "actual", "stderr"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_fails_and_is_null(self, mode, field, bad):
        values = {"expected": 1.0, "actual": 1.0, "stderr": 0.5}
        values[field] = bad
        record = CheckRecord.compare(
            "x", "s", values["expected"], values["actual"], 1e9, mode=mode, stderr=values["stderr"]
        )
        assert record.passed is False
        assert f"non-finite {field}" in record.note
        data = json.loads(json.dumps(record.to_json()), parse_constant=no_constants)
        assert data[field] is None
        assert data["pass"] is False

    def test_finite_record_is_unchanged(self):
        record = CheckRecord.compare("x", "s", 1.0, 1.5, 1.0, mode="abs", note="n")
        assert record.passed is True
        assert record.to_json() == {
            "id": "x",
            "statement": "s",
            "expected": 1.0,
            "actual": 1.5,
            "abs_err": 0.5,
            "rel_err": 0.5 / 1.5,
            "tol": 1.0,
            "mode": "abs",
            "pass": True,
            "note": "n",
        }

    def test_worst_propagates_nan(self):
        assert suites.worst([]) == 0.0
        assert suites.worst([0.5, 2.0, 1.0]) == 2.0
        assert math.isnan(suites.worst([0.5, math.nan, 2.0]))
        assert math.isnan(suites.worst([math.nan, 2.0]))
        record = suites.gap_check("x", "s", [1e-16, math.nan], 1e-12)
        assert record.passed is False


def test_maass_large_trace_is_compared():
    # at seed 11 one case has tr(TY) = 130.7, where exp(-2 pi i tr(TZ))
    # alone overflows; the comparison forms neither exponential
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = suites.run_maass(11, quick=False)
    (check,) = [r for r in records if r.check_id == "maass.coeff_vs_det_derivative"]
    assert check.passed is True
    assert math.isfinite(check.actual) and check.actual <= check.tol
    report = VerificationReport(suite="maass", seed=11, checks=records)
    data = json.loads(json.dumps(report.to_json()), parse_constant=no_constants)
    (entry,) = [c for c in data["checks"] if c["id"] == "maass.coeff_vs_det_derivative"]
    assert entry["actual"] == check.actual and entry["pass"] is True


def test_every_exported_name_resolves():
    for name in sturmverify.__all__:
        assert hasattr(sturmverify, name), name


# (id, statement, mode, tol) of every check of ``verify all --quick --seed 0``, in order
QUICK_INVENTORY = [
    ("pm.genus1", "alternating coefficient sum equals its z-free closed form at genus 1", "abs", 0.0),
    (
        "pm.genus2",
        "alternating coefficient sum equals its z-free closed form at genus 2 and satisfies the recursion from the previous genus",
        "abs",
        0.0,
    ),
    (
        "pm.genus3",
        "alternating coefficient sum equals its z-free closed form at genus 3 and satisfies the recursion from the previous genus",
        "abs",
        0.0,
    ),
    ("exterior.functoriality", "(MN)^[q] = M^[q] N^[q] over 50 random instances, m <= 3", "abs", 1e-09),
    ("exterior.transpose", "(M^T)^[q] = (M^[q])^T over 50 random instances", "abs", 1e-12),
    ("exterior.product_closure", "M^[p] sqcap M^[q] = M^[p+q] over 50 random instances, m <= 3", "abs", 1e-09),
    ("exterior.spd_preserved", "exterior powers of SPD matrices stay SPD (smallest eigenvalue seen)", "abs", 0.0),
    (
        "sandwich.eigenvalue_oracle",
        "trace of sandwiched exterior power equals e_q of the YT eigenvalues, 50 instances",
        "abs",
        1e-10,
    ),
    (
        "sandwich.matrix_identity",
        "conjugation identity moving Y^(-1/2) factors through the induced product",
        "abs",
        1e-09,
    ),
    (
        "sandwich.full_degree_reduction",
        "full-degree induced product collapses to the sandwich trace over binom(m,p) det Y",
        "abs",
        1e-10,
    ),
    (
        "maass.det_derivative_m2",
        "closed det-derivative of det(Y)^j exp(2 pi i tr(TZ)) vs nested central differences, 5 cases",
        "abs",
        1e-06,
    ),
    (
        "maass.det_derivative_m3",
        "closed det-derivative of det(Y)^j exp(2 pi i tr(TZ)) vs nested central differences, 3 cases",
        "abs",
        0.0001,
    ),
    ("maass.coeff_vs_det_derivative", "Fourier-action ratio equals the normalized closed det-derivative", "abs", 1e-12),
    ("maass.linearity", "coefficient action is linear in the expansion", "abs", 1e-13),
    ("maass.degenerate_index", "closed det-derivative accepts zero and rank-deficient indices", "abs", 1e-06),
    ("fd.exp_trace_rule_m2", "numeric exterior derivative of exp(tr TY) matches T^[q] exp(tr TY)", "abs", 1e-06),
    (
        "fd.det_power_rule_m2",
        "numeric exterior derivative of det(Y)^a matches C_q(a) det(Y)^a (Y^-1)^[q]",
        "abs",
        1e-06,
    ),
    (
        "fd.product_rule_m2",
        "numeric exterior derivative of a product matches the induced-product expansion",
        "abs",
        1e-06,
    ),
    ("fd.exp_trace_rule_m3", "numeric exterior derivative of exp(tr TY) matches T^[q] exp(tr TY)", "abs", 0.0001),
    (
        "fd.det_power_rule_m3",
        "numeric exterior derivative of det(Y)^a matches C_q(a) det(Y)^a (Y^-1)^[q]",
        "abs",
        0.0001,
    ),
    (
        "fd.product_rule_m3",
        "numeric exterior derivative of a product matches the induced-product expansion",
        "abs",
        0.0001,
    ),
    (
        "cone.iq0.estimate",
        "Monte Carlo exterior-trace integral (q=0) matches the closed form within 3 sigma",
        "sigma",
        3.0,
    ),
    ("cone.iq0.precision", "relative standard error at q=0 is at most 1%", "abs", 0.01),
    ("cone.iq0.invariance", "estimates with two distinct index matrices agree (q=0)", "sigma", 3.0),
    (
        "cone.matrix_q0.diagonal",
        "matrix-valued integral of Y^[0] exp(-tr Y) det(Y)^s is the closed multiple of the identity",
        "sigma",
        3.0,
    ),
    (
        "cone.iq1.estimate",
        "Monte Carlo exterior-trace integral (q=1) matches the closed form within 3 sigma",
        "sigma",
        3.0,
    ),
    ("cone.iq1.precision", "relative standard error at q=1 is at most 1%", "abs", 0.01),
    ("cone.iq1.invariance", "estimates with two distinct index matrices agree (q=1)", "sigma", 3.0),
    (
        "cone.matrix_q1.diagonal",
        "matrix-valued integral of Y^[1] exp(-tr Y) det(Y)^s is the closed multiple of the identity",
        "sigma",
        3.0,
    ),
    ("cone.matrix_q1.offdiagonal", "off-diagonal entries of the Y^[1] integral vanish within 3 sigma", "sigma", 3.0),
    (
        "cone.iq2.estimate",
        "Monte Carlo exterior-trace integral (q=2) matches the closed form within 3 sigma",
        "sigma",
        3.0,
    ),
    ("cone.iq2.precision", "relative standard error at q=2 is at most 1%", "abs", 0.01),
    ("cone.iq2.invariance", "estimates with two distinct index matrices agree (q=2)", "sigma", 3.0),
    (
        "cone.matrix_q2.diagonal",
        "matrix-valued integral of Y^[2] exp(-tr Y) det(Y)^s is the closed multiple of the identity",
        "sigma",
        3.0,
    ),
    ("cone.full_degree_shift", "full-degree closed form equals the shifted multivariate gamma", "rel", 1e-13),
    ("cone.gamma_normalization", "exp(-tr TY) det(Y)^s integrates to det(T)^{-s} Gamma_m(s)", "sigma", 3.0),
    (
        "sturm.phantom_chain",
        "analytic s->0 limit of the normalized coefficient equals -(4 pi)^m det(T) b(T), genus 2..3",
        "abs",
        1e-12,
    ),
    ("sturm.prefactor_identity", "(-1)^{m+1} (2i * 2 pi i)^m = -(4 pi)^m", "abs", 1e-13),
    ("sturm.vanishing_weights", "normalized limits vanish identically for weights k >= m, genus 2..3", "abs", 0.0),
    ("sturm.dual_branch", "closed coefficient equals the explicit alternating q-sum branch", "abs", 1e-11),
    (
        "sturm.numeric_vs_closed_m2_s1",
        "Monte Carlo coefficient integral at s=1 matches the closed form (m=2, k=1)",
        "sigma",
        3.0,
    ),
    (
        "sturm.numeric_vs_closed_m3_s1",
        "Monte Carlo coefficient integral at s=1 matches the closed form (m=3, k=2)",
        "sigma",
        3.0,
    ),
    (
        "sturm.numeric_vs_closed_m3_s1.5",
        "Monte Carlo coefficient integral at s=1.5 matches the closed form (m=3, k=2)",
        "sigma",
        3.0,
    ),
    ("sturm.det_invariance", "indices of equal determinant produce equal coefficient integrals", "sigma", 3.0),
    (
        "sturm.holomorphic_normalization",
        "the normalized transform fixes holomorphic coefficients (m=2, weight 4)",
        "sigma",
        3.0,
    ),
]


def _checks(tmp_path, argv):
    out = tmp_path / "report.json"
    main(argv + ["--out", str(out)])
    return json.loads(out.read_text())["checks"]


def test_quick_inventory_is_pinned(tmp_path):
    checks = _checks(tmp_path, ["verify", "all", "--quick", "--seed", "0"])
    assert [(c["id"], c["statement"], c["mode"], c["tol"]) for c in checks] == QUICK_INVENTORY


def test_all_joins_the_single_suites_in_dispatch_order(tmp_path):
    joined = []
    for suite in ("pm", "exterior", "sandwich", "maass", "cone", "sturm"):
        joined += _checks(tmp_path, ["verify", suite, "--quick", "--seed", "3"])
    assert suites.SUITES == ("pm", "exterior", "sandwich", "maass", "cone", "sturm")
    assert _checks(tmp_path, ["verify", "all", "--quick", "--seed", "3"]) == joined
