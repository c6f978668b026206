"""One measured child process of the benchmark.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``src`` (the checkout's source directory), ``spawned``
(the parent's time.monotonic() just before it started this process),
``mode`` ("setup" or "run"), ``invocations`` (CLI argument lists),
``trace`` (bool), ``threads`` (STURM_THREADS, for cpu_util) and
``spans_out`` (where a traced run writes its spans, or null).

A "setup" child imports sturmverify, builds the CLI parser and reports how
long that took from process start.  A "run" child then calls
``sturmverify.cli.main`` once per invocation and reports wall time, peak
RSS and, for each invocation, its exit code, any traceback, a digest of
the report without ``wall_time_s``, the check counts and the relative
standard errors of its sigma-mode checks.  The result is the last line of
standard output, as JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _blas() -> str:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def inspect(argv, code, tb, text) -> dict:
    """Summarize one invocation's report; a malformed one counts as failed."""
    nonfinite = []
    report = None
    if tb is None:
        try:
            report = json.loads(text, parse_constant=nonfinite.append)
        except json.JSONDecodeError as exc:
            tb = f"report is not JSON: {exc}"
    checks = report.get("checks", []) if isinstance(report, dict) else []
    failed = sum(1 for c in checks if not c.get("pass"))
    sigma = [
        c["stderr"] / abs(c["expected"])
        for c in checks
        if c.get("mode") == "sigma" and c.get("stderr") is not None and c.get("expected")
    ]
    digest = None
    if isinstance(report, dict):
        report.pop("wall_time_s", None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    problem = None
    if tb is not None:
        problem = "traceback"
    elif code not in (0, 1):
        problem = f"exit code {code}"
    elif nonfinite:
        problem = "non-standard JSON " + ",".join(sorted(set(nonfinite)))
    elif report is not None and (code == 0) != bool(report.get("passed")):
        problem = f"exit code {code} disagrees with passed={report.get('passed')}"
    attempted = max(1, len(checks))
    return {
        "argv": argv,
        "code": code,
        "problem": problem,
        "traceback": tb,
        "digest": digest,
        "attempted": attempted,
        "failed": attempted if problem else failed,
        "rel_stderr": sigma,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import sturmverify
    from sturmverify import cli

    cli.build_parser()
    setup_s = time.monotonic() - spec["spawned"]
    where = os.path.dirname(os.path.abspath(sturmverify.__file__))
    if os.path.dirname(where) != os.path.abspath(spec["src"]):
        print(f"error: imported sturmverify from {where}, not from {spec['src']}", file=sys.stderr)
        return 2

    if spec["mode"] == "setup":
        import numpy

        print(json.dumps({
            "setup_s": setup_s,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": _blas(),
        }))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, summarize  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    results = []
    wall = 0.0
    for run_id, argv in enumerate(spec["invocations"]):
        buf = io.StringIO()
        code, tb = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = tracer.root(run_id, cli.main, argv) if tracer else cli.main(argv)
        except Exception:
            tb = traceback.format_exc()
        wall += time.perf_counter() - start
        results.append(inspect(argv, code, tb, buf.getvalue()))

    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": results,
    }
    if tracer:
        out["layers"] = summarize(tracer.spans, spec["threads"])
        out["missing"] = tracer.missing
        if spec["spans_out"]:
            tracer.dump(spec["spans_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
