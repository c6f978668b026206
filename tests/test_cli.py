import json
import math

import pytest

from sturmverify import cli
from sturmverify.cli import main

REPORT_KEYS = {"schema", "suite", "seed", "passed", "wall_time_s", "checks"}
RECORD_KEYS = {"id", "statement", "expected", "actual", "abs_err", "rel_err", "tol", "mode", "pass"}


def write_expansion(path, m, k, terms):
    path.write_text(json.dumps({"m": m, "k": k, "terms": terms}))
    return str(path)


class TestVerify:
    def test_pm_suite_green(self, tmp_path):
        out = tmp_path / "pm.json"
        assert main(["verify", "pm", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert REPORT_KEYS <= set(data)
        assert data["suite"] == "pm"
        assert data["passed"] is True
        assert len(data["checks"]) == 12
        for record in data["checks"]:
            assert RECORD_KEYS <= set(record)
            assert record["pass"] is True

    def test_exterior_suite_green(self, tmp_path):
        out = tmp_path / "ext.json"
        assert main(["verify", "exterior", "--quick", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_maass_suite_green(self, tmp_path):
        out = tmp_path / "maass.json"
        assert main(["verify", "maass", "--quick", "--seed", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        ids = {c["id"] for c in data["checks"]}
        # the derivative checks and the difference-oracle rules ship together
        assert any(i.startswith("maass.") for i in ids)
        assert any(i.startswith("fd.") for i in ids)

    def test_cone_q_restriction(self, tmp_path):
        out = tmp_path / "cone.json"
        rc = main(["verify", "cone", "--q", "1", "--quick", "--samples", "60000", "--out", str(out)])
        assert rc == 0
        ids = [c["id"] for c in json.loads(out.read_text())["checks"]]
        assert "cone.iq1.estimate" in ids
        assert not any("iq0" in i or "iq2" in i for i in ids)

    def test_starved_sampling_budget_fails(self, tmp_path):
        out = tmp_path / "small.json"
        rc = main(["verify", "cone", "--samples", "2000", "--seed", "1", "--out", str(out)])
        assert rc == 1
        data = json.loads(out.read_text())
        assert data["passed"] is False
        assert any(not c["pass"] for c in data["checks"])

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "nonsense"]) == 2

    def test_flag_validation_exits_2(self):
        assert main(["verify", "cone", "--q", "3", "--m", "2"]) == 2
        assert main(["verify", "pm", "--max-genus", "0"]) == 2
        assert main(["verify", "cone", "--nu", "0.5"]) == 2
        assert main(["verify", "cone", "--samples", "0"]) == 2

    def test_non_finite_shift_exits_2(self, capsys):
        for flag, value in (("--s", "nan"), ("--s", "inf"), ("--nu", "nan"), ("--nu", "inf")):
            assert main(["verify", "cone", flag, value, "--samples", "1000"]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        for suite in ("all", "pm"):
            assert main(["verify", suite, "--seed", "-1", "--quick"]) == 2
            assert "--seed must be >= 0" in capsys.readouterr().err

    def test_shift_below_default_nu_exits_2(self, capsys):
        # without --nu the proposal takes nu = m + 2s, which must exceed m - 1
        assert main(["verify", "cone", "--s", "-0.7", "--samples", "1000"]) == 2
        assert "--s must exceed -1/2" in capsys.readouterr().err

    def test_all_rejects_single_suite_flags(self, capsys):
        for flag, value in (("--m", "3"), ("--s", "2.5"), ("--k", "1"), ("--nu", "6"), ("--q", "0")):
            assert main(["verify", "all", "--quick", flag, value]) == 2
            assert f"takes no {flag}" in capsys.readouterr().err

    def test_pole_parameters_exit_2(self):
        # weight 0 at genus 2 drives the closed form onto a gamma pole
        assert main(["verify", "sturm", "--k", "0", "--quick", "--samples", "1000"]) == 2

    def test_report_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "pm", "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["verify", "pm", "--seed", "5", "--out", str(out_b)]) == 0
        data_a = json.loads(out_a.read_text())
        data_b = json.loads(out_b.read_text())
        data_a.pop("wall_time_s")
        data_b.pop("wall_time_s")
        assert data_a == data_b

    def test_report_is_identical_for_any_thread_count(self, tmp_path, monkeypatch):
        # two chunks per integral, so with two threads the pool runs every
        # integrand, f_moved's g^T Y g included
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("STURM_THREADS", threads)
            out = tmp_path / f"cone{threads}.json"
            assert main(["verify", "cone", "--samples", "131072", "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            texts.append([line for line in lines if '"wall_time_s"' not in line])
        assert texts[0] == texts[1]

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["verify", "pm"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["suite"] == "pm"


class TestPhantom:
    def test_critical_weight_payload(self, tmp_path):
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1.0}])
        out = tmp_path / "out.json"
        assert main(["phantom", src, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["regime"] == "phantom"
        assert data["image"]["m"] == 2 and data["image"]["k"] == 3
        (term,) = data["image"]["terms"]
        assert term["b"] == pytest.approx(-16 * math.pi**2, rel=1e-12)
        (res,) = data["results"]
        assert res["regime"] == "phantom" and res["limit"] is True
        assert res["value"] == pytest.approx(-16 * math.pi**2, rel=1e-12)

    def test_high_weight_vanishes(self, tmp_path):
        src = write_expansion(tmp_path / "in.json", 2, 3, [{"twoT": [[2, 0], [0, 2]], "b": 2.5}])
        out = tmp_path / "out.json"
        assert main(["phantom", src, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["regime"] == "vanishing"
        assert "note" in data
        assert all(t["b"] == 0.0 for t in data["image"]["terms"])
        assert all(r["value"] == 0.0 for r in data["results"])

    def test_low_weight_exits_3(self, tmp_path):
        src = write_expansion(tmp_path / "in.json", 3, 1, [{"twoT": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "b": 1.0}])
        assert main(["phantom", src]) == 3

    def test_exit_codes_over_genus_weight_and_scale(self, tmp_path):
        def no_constants(name):
            raise AssertionError(f"payload contains {name}")

        out = tmp_path / "out.json"
        for m in range(1, 31):
            two_t = [[2 * (i == j) for j in range(m)] for i in range(m)]
            for k in (m - 1, m):
                for b in (1.0, 1e-300, 1e300):
                    point = f"m={m} k={k} b={b:g}"
                    out.unlink(missing_ok=True)
                    src = write_expansion(tmp_path / "in.json", m, k, [{"twoT": two_t, "b": b}])
                    code = main(["phantom", src, "--out", str(out)])
                    assert code in (0, 3), point
                    if not out.exists():
                        continue
                    data = json.loads(out.read_text(), parse_constant=no_constants)
                    if k == m - 1:
                        (res,) = data["results"]
                        assert res["value"] == pytest.approx(-((4 * math.pi) ** m) * b, rel=1e-12), point

    def test_crosscheck_passes(self, tmp_path):
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1.0}])
        out = tmp_path / "out.json"
        rc = main(["phantom", src, "--crosscheck", "--samples", "20000", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert all(c["pass"] for c in data["crosscheck"])

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["phantom", str(bad)]) == 2

    def test_missing_keys_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "k": 1}))
        assert main(["phantom", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["phantom", str(tmp_path / "nope.json")]) == 2

    def test_invalid_index_matrix_exits_2(self, tmp_path):
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[1, 0], [0, 2]], "b": 1.0}])
        assert main(["phantom", src]) == 2

    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys):
        for b in (math.nan, math.inf):
            src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": b}])
            assert main(["phantom", src]) == 2
            captured = capsys.readouterr()
            assert "not finite" in captured.err
            assert captured.out == ""

    def test_image_overflow_exits_3(self, tmp_path, capsys):
        # b is finite, but -(4 pi)^2 det(T) b is not
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1e307}])
        assert main(["phantom", src]) == 3
        captured = capsys.readouterr()
        assert "leaves the double range" in captured.err
        assert captured.out == ""
        assert "Infinity" not in captured.err

    def test_duplicate_index_exits_2(self, tmp_path, capsys):
        terms = [{"twoT": [[2, 1], [1, 2]], "b": 1.0}, {"twoT": [[2, 1], [1, 2]], "b": 2.0}]
        src = write_expansion(tmp_path / "in.json", 2, 1, terms)
        assert main(["phantom", src]) == 2
        assert "more than once" in capsys.readouterr().err

    def test_crosscheck_negative_seed_exits_2(self, tmp_path, capsys):
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1.0}])
        assert main(["phantom", src, "--crosscheck", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed must be >= 0" in captured.err
        assert captured.out == ""

    def test_crosscheck_zero_samples_exits_2(self, tmp_path, capsys):
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1.0}])
        assert main(["phantom", src, "--crosscheck", "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert "--samples must be >= 1" in captured.err
        assert captured.out == ""


class TestRunProblems:
    """Failures that are not failed checks: each has its own exit code."""

    def test_unwritable_out_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the suite ran although --out cannot be written")

        monkeypatch.setattr(cli.suites, "run_pm", must_not_run)
        monkeypatch.setattr(cli, "_phantom_payload", must_not_run)
        missing = tmp_path / "missing" / "r.json"
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1.0}])
        for argv in (["verify", "pm"], ["phantom", src, "--crosscheck"]):
            assert main(argv + ["--out", str(missing)]) == 2
            assert "no such directory" in capsys.readouterr().err
            assert main(argv + ["--out", str(tmp_path)]) == 2
            assert "is a directory" in capsys.readouterr().err
        assert not missing.parent.exists()

    def test_closed_form_overflow_exits_3(self, capsys):
        assert main(["verify", "cone", "--samples", "64", "--s", "400"]) == 3
        captured = capsys.readouterr()
        assert "overflows the double range" in captured.err
        assert captured.out == ""

    def test_all_samples_rejected_fails_with_finite_report(self, tmp_path):
        out = tmp_path / "cone.json"
        assert main(["verify", "cone", "--samples", "64", "--nu", "1e300", "--out", str(out)]) == 1

        def no_constants(name):
            raise AssertionError(f"report contains {name}")

        data = json.loads(out.read_text(), parse_constant=no_constants)
        # these compare 0 with 0 and would pass without the starved-estimate rule
        by_id = {c["id"]: c for c in data["checks"]}
        starved = [f"cone.iq{q}.{kind}" for q in range(3) for kind in ("precision", "invariance")]
        for check_id in starved + ["cone.matrix_q1.offdiagonal"]:
            assert by_id[check_id]["pass"] is False, check_id
            assert "accepted no sample" in by_id[check_id]["note"], check_id

    def test_sturm_closed_forms_come_before_sampling(self, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sampled before the closed forms were evaluated")

        monkeypatch.setattr(cli.suites, "sturm_numeric", must_not_run)
        assert main(["verify", "sturm", "--k", "400", "--samples", "64"]) == 3
        assert "overflows the double range" in capsys.readouterr().err

    def test_unexpected_exception_exits_4(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.suites, "run_pm", crash)
        assert main(["verify", "pm"]) == 4
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "internal error: RuntimeError: boom"
        assert "Traceback (most recent call last)" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_sturm_threads_exits_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STURM_THREADS", value)
        src = write_expansion(tmp_path / "in.json", 2, 1, [{"twoT": [[2, 0], [0, 2]], "b": 1.0}])
        for argv in (["verify", "pm"], ["phantom", src]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "STURM_THREADS must be an integer >= 1" in captured.err
            assert captured.out == ""
