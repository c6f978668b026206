"""Benchmark of the sturmverify verification workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed S --seconds N --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.

Each measurement is a fresh child process (perfbench/child.py) that imports
sturmverify from ./src and calls ``sturmverify.cli.main`` for each CLI
invocation of the workload.  The workload is repeated until the next
repetition would end after N seconds (at least once).  With ``--trace 0``
the end-to-end metrics of BENCHMARK.json are reported as medians over the
repetitions; with ``--trace 1`` every repetition is run once untraced and
once traced (perfbench/tracer.py), and the per-layer metrics come from the
traced runs.  Human-readable lines come first; the last line of standard
output is the JSON result.

Outputs are checked from outside: every repetition must produce the same
report digest (the report without ``wall_time_s``), a traced run must
match the untraced one, and ``verify_default_t2`` must match
``verify_default`` at the same seed.  An invocation that exits with a code
other than 0 or 1, raises, or writes NaN or Infinity counts all of its
checks as failed.  See perfbench/NOTES.md for why the workloads and
metrics are what they are.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

BLOCK = 8  # seeds per sweep
SETUP_PROBES = 9  # extra import-only children per run, for setup_s
DEADLINE_S = 170.0  # the whole run, children included, ends before this


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _default(seed):
    return [["verify", "all", "--seed", str(seed)]]


def _quick(seed):
    return [["verify", "all", "--quick", "--seed", str(s)] for s in range(seed, seed + BLOCK)]


def _exact(seed):
    out = []
    for s in range(seed, seed + BLOCK):
        out.append(["verify", "pm", "--max-genus", "12", "--seed", str(s)])
        out += [["verify", suite, "--seed", str(s)] for suite in ("exterior", "sandwich", "maass")]
    return out


# name -> (STURM_THREADS, invocations for a seed)
WORKLOADS = {
    "verify_default": (1, _default),
    "verify_default_t2": (min(2, nproc()), _default),
    "quick_sweep": (1, _quick),
    "exact_sweep": (1, _exact),
}


class BenchError(Exception):
    """The benchmark itself could not measure (not a failed check)."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_child(deadline: float, threads: int, mode: str, invocations=(), trace=False, spans_out=None) -> dict:
    """Run perfbench/child.py once and return its JSON result."""
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a child could start")
    env = dict(os.environ)
    env.update(STURM_THREADS=str(threads), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    spec = {
        "src": str(SRC),
        "mode": mode,
        "invocations": list(invocations),
        "trace": trace,
        "threads": threads,
        "spans_out": spans_out,
    }
    spec["spawned"] = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child did not finish within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def reference_path(seed: int) -> Path:
    """Where verify_default's report digest at ``seed`` is kept, per source tree."""
    return STATE / "digests" / source_digest() / f"verify_default-{seed}.json"


def remember(seed: int, digest) -> None:
    path = reference_path(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digest))


def reference_digest(deadline: float, seed: int):
    """verify_default's report digest at ``seed``, computed if not yet kept."""
    path = reference_path(seed)
    if path.is_file():
        return json.loads(path.read_text())
    rep = run_child(deadline, 1, "run", _default(seed))
    digest = [inv["digest"] for inv in rep["invocations"]]
    remember(seed, digest)
    return digest


def measure(workload: str, args) -> None:
    started = monotonic()
    deadline = started + DEADLINE_S
    threads, make = WORKLOADS[workload]
    invocations = make(args.seed)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    probes = [run_child(deadline, threads, "setup") for _ in range(SETUP_PROBES)]
    print(
        f"machine: nproc={nproc()} cpu={cpu_model()!r} python={probes[0]['python']} "
        f"numpy={probes[0]['numpy']} blas={probes[0]['blas']!r}"
    )
    print(
        f"workload {workload}: seed {args.seed}, {len(invocations)} invocation(s), "
        f"STURM_THREADS={threads}, OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1"
    )

    expected = None
    if workload == "verify_default_t2":
        expected = reference_digest(deadline, args.seed)

    spans_out = None
    if args.trace:
        (STATE / "trace").mkdir(parents=True, exist_ok=True)
        spans_out = str(STATE / "trace" / f"{workload}-{args.seed}.json")

    plain, traced = [], []
    while True:
        t0 = monotonic()
        plain.append(run_child(deadline, threads, "run", invocations))
        if args.trace:
            traced.append(run_child(deadline, threads, "run", invocations, trace=True, spans_out=spans_out))
        took = monotonic() - t0
        if monotonic() - started + took > args.seconds or deadline - monotonic() < 2 * took:
            break

    def digest(rep):
        return [inv["digest"] for inv in rep["invocations"]]

    correct = True
    base = digest(plain[0])
    if workload == "verify_default":
        remember(args.seed, base)
    for rep in plain[1:]:
        if digest(rep) != base:
            correct = False
            print("error: repeated runs produced different reports", file=sys.stderr)
    for rep in traced:
        if digest(rep) != base:
            correct = False
            print("error: the traced run's report differs from the untraced run's", file=sys.stderr)
    if expected is not None and expected != base:
        correct = False
        print("error: the STURM_THREADS report differs from the one-thread report", file=sys.stderr)

    invs = [inv for rep in plain + traced for inv in rep["invocations"]]
    attempted = sum(inv["attempted"] for inv in invs)
    failed = sum(inv["failed"] for inv in invs)
    for inv in invs:
        if inv["problem"]:
            print(f"error: {' '.join(inv['argv'])}: {inv['problem']}", file=sys.stderr)
            if inv["traceback"]:
                print(inv["traceback"], file=sys.stderr)
    rel_stderr = [r for inv in plain[0]["invocations"] for r in inv["rel_stderr"]]
    rel_stderr_p50 = statistics.median(rel_stderr) if rel_stderr else None

    if args.trace:
        metrics = {key: statistics.median(rep["layers"][key] for rep in traced) for key in traced[0]["layers"]}
        metrics["cone_integration.rel_stderr_p50"] = rel_stderr_p50 or 0.0
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1.0
        )
        missing = sorted({name for rep in traced for name in rep["missing"]})
        if missing:
            print(f"warning: not traced, no such function: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": statistics.median([p["setup_s"] for p in probes] + [r["setup_s"] for r in plain]),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    absent = sorted(set(wanted) - set(metrics))
    if absent:
        raise BenchError(f"BENCHMARK.json names metrics this run does not produce: {absent}")

    print(f"repetitions: {len(plain)} untraced, wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    if args.trace:
        print(f"repetitions: {len(traced)} traced, wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in traced))
    for name in wanted:
        print(f"{name} {metrics[name]} {units[name]}")
    print(f"checks_failed_frac {failed / attempted} ratio ({failed}/{attempted} checks)")
    if rel_stderr_p50 is not None:
        print(f"rel_stderr_p50 {rel_stderr_p50} ratio (median stderr/|expected| over {len(rel_stderr)} sigma checks)")
    print(f"outputs_correct {correct}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=list(WORKLOADS) + ["all"], help="'all' runs each workload in turn"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "sturmverify" / "cli.py").is_file():
        print(f"error: no sturmverify sources under {SRC}", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            measure(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
