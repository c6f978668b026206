import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("sweep", Path(__file__).parents[1] / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def check(check_id, actual, passed=True, mode="sigma", expected=1.0, stderr=0.01, tol=3.0):
    return {
        "id": check_id,
        "expected": expected,
        "actual": actual,
        "stderr": stderr,
        "tol": tol,
        "mode": mode,
        "pass": passed,
    }


def run(code, *checks):
    return {"argv": ["verify", "all", "--seed", "0"], "exit": code, "checks": list(checks)}


def test_identical_reports_are_not_worse():
    reports = [run(0, check("cone.iq1.estimate", 1.0), check("cone.iq2.estimate", 1.0, stderr=0.0))]
    lines, worse = sweep.compare(reports, reports)
    assert not worse
    assert "pass -> fail flips: 0" in lines and "removed ids: 0" in lines


def test_flips_removed_ids_and_shifts_are_reported():
    parent = [
        run(
            0,
            check("cone.iq1.estimate", 1.0),
            check("cone.iq2.estimate", 1.0, stderr=0.0),
            check("fd.rule", 1e-7, mode="abs", expected=0.0, stderr=None, tol=1e-6),
            check("cone.gone", 0.0, mode="abs", expected=0.0, stderr=None, tol=0.0),
        )
    ]
    change = [
        run(
            1,
            check("cone.iq1.estimate", 1.0 + 2e-11),
            check("cone.iq2.estimate", 1.0 + 4e-16, stderr=0.0),
            check("fd.rule", 3e-6, passed=False, mode="abs", expected=0.0, stderr=None, tol=1e-6),
        )
    ]
    lines, worse = sweep.compare(parent, change)
    assert worse
    assert "pass -> fail flips: 1" in lines and "  fd.rule: verify all --seed 0" in lines
    assert "  verify all --seed 0: 0 -> 1" in lines
    assert "  cone.gone (in 1 reports)" in lines
    # sigma shift 2e-11 / 0.01; the constant q = 2 estimate is listed apart
    assert any(line.startswith("  2e-09  cone.iq1.estimate") for line in lines)
    assert any(line.startswith("  4.44e-16  cone.iq2.estimate") for line in lines)
    assert any(line.startswith("  2.9  fd.rule") for line in lines)
