"""Paired sweep: run the same verify invocations against two source trees
and compare their reports check by check.

    python tools/sweep.py PARENT_SRC CHANGE_SRC

Each tree runs every invocation in its own subprocess, with that tree's
``src`` directory first on the import path.  The invocations are
``verify all --quick`` at seeds 0..199, ``verify maass`` and
``verify sandwich`` at seeds 0..39, and ``verify all`` at seeds 0, 5 and
41: 283 reports per tree.  Checks are matched by invocation and id.

Printed: pass -> fail flips, exit-code changes, ids that disappear or
appear, the largest sigma shift |Δ|/stderr over estimates whose stderr is
above rounding (stderr > 1e-9 |expected|), the estimates that are constant
by construction listed on their own, and the largest |Δ|/tol of every
other check.  The exit code is 1 when a check flips from pass to fail or
an exit code gets worse, else 0.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

INVOCATIONS = (
    [["verify", "all", "--quick", "--seed", str(seed)] for seed in range(200)]
    + [["verify", suite, "--seed", str(seed)] for suite in ("maass", "sandwich") for seed in range(40)]
    + [["verify", "all", "--seed", str(seed)] for seed in (0, 5, 41)]
)

# stderr at or below this share of |expected| is rounding, not sampling
ROUNDING_LEVEL = 1e-9

# at the default genus m = 2 the q = m integrands times their weight are
# constant, so these estimates carry only rounding
CONSTANT = re.compile(r"cone\.(iq|matrix_q)2\.")


def run_worker(src: str) -> None:
    """Run every invocation in this process; print one JSON list of
    ``{"argv", "exit", "checks"}`` records."""
    sys.path.insert(0, os.path.abspath(src))
    from sturmverify.cli import main

    warnings.simplefilter("ignore")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for argv in INVOCATIONS:
            if os.path.exists(out):
                os.remove(out)
            code = main(argv + ["--out", out])
            checks = []
            if os.path.exists(out):
                with open(out) as fh:
                    checks = json.load(fh)["checks"]
            results.append({"argv": argv, "exit": code, "checks": checks})
    json.dump(results, sys.stdout)


def run_tree(src: str) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", src],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _delta(a, b) -> float:
    """|a - b| for report floats, where null stands for a non-finite value."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b)


def _worse(parent_exit: int, change_exit: int) -> bool:
    return change_exit != parent_exit and change_exit != 0


def compare(parent: list, change: list) -> tuple[list, bool]:
    """(printed lines, whether the change is worse somewhere)."""
    flips, healed, exits = [], [], []
    removed, added = Counter(), Counter()
    sigma, constant, other = {}, {}, {}

    def keep_max(table, key, value, where):
        if key not in table or value > table[key][0]:
            table[key] = (value, where)

    for run_p, run_c in zip(parent, change, strict=True):
        where = " ".join(run_p["argv"])
        if run_p["exit"] != run_c["exit"]:
            exits.append(f"  {where}: {run_p['exit']} -> {run_c['exit']}")
        checks_p = {c["id"]: c for c in run_p["checks"]}
        checks_c = {c["id"]: c for c in run_c["checks"]}
        removed.update(set(checks_p) - set(checks_c))
        added.update(set(checks_c) - set(checks_p))
        for check_id in checks_p.keys() & checks_c.keys():
            p, c = checks_p[check_id], checks_c[check_id]
            if p["pass"] and not c["pass"]:
                flips.append(f"  {check_id}: {where}")
            elif c["pass"] and not p["pass"]:
                healed.append(f"  {check_id}: {where}")
            shift = max(_delta(p["actual"], c["actual"]), _delta(p["expected"], c["expected"]))
            if p["mode"] == "sigma":
                stderr = p.get("stderr") or 0.0
                expected = abs(p["expected"] or 0.0)
                if CONSTANT.match(check_id):
                    rel = shift / expected if expected else shift
                    keep_max(constant, check_id, rel, where)
                elif stderr > ROUNDING_LEVEL * expected:
                    keep_max(sigma, check_id, shift / stderr, where)
            else:
                ratio = shift / p["tol"] if p["tol"] else (0.0 if shift == 0.0 else math.inf)
                keep_max(other, check_id, ratio, where)

    def table(rows):
        ordered = sorted(rows.items(), key=lambda kv: -kv[1][0])
        return [f"  {value:.3g}  {check_id}  ({where})" for check_id, (value, where) in ordered]

    lines = [f"reports: {len(parent)} per tree"]
    lines += [f"pass -> fail flips: {len(flips)}"] + flips
    lines += [f"fail -> pass: {len(healed)}"] + healed
    lines += [f"exit-code changes: {len(exits)}"] + exits
    lines += [f"removed ids: {len(removed)}"] + [f"  {i} (in {n} reports)" for i, n in sorted(removed.items())]
    lines += [f"added ids: {len(added)}"] + [f"  {i} (in {n} reports)" for i, n in sorted(added.items())]
    worst_sigma = max((v for v, _ in sigma.values()), default=0.0)
    lines += [f"sigma shift |Δ|/stderr, stderr > {ROUNDING_LEVEL:g} |expected|: max {worst_sigma:.3g}"]
    lines += table(sigma)
    lines += ["constant-by-construction estimates, |Δ|/|expected|:"] + table(constant)
    lines += ["other checks, |Δ|/tol:"] + table(other)
    worse = bool(flips) or any(_worse(p["exit"], c["exit"]) for p, c in zip(parent, change))
    return lines, worse


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        run_worker(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        parent, change = pool.map(run_tree, argv)
    lines, worse = compare(parent, change)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
