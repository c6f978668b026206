"""Command-line front end: verification suites and image computations.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
flags, malformed input, an unwritable --out path or a bad STURM_THREADS,
3 parameter regime outside what the closed forms support (a pole-free
closed form that overflows the double range included), 4 internal error:
an unexpected exception, reported with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback

from . import suites
from .errors import PoleError, UnsupportedRegimeError
from .cone_integration import worker_count
from .maass_operator import FourierExpansion
from .report import VerificationReport, write_json
from .sturm_operator import phantom_series, sturm_limit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmverify",
        description="Cross-check the closed forms of the coefficient calculus against independent oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=suites.SUITES + ("all",))
    verify.add_argument("--m", type=int, default=None, help="genus for the cone suite (default 2)")
    verify.add_argument("--k", type=int, default=None, help="weight for the genus-2 coefficient cross-check (default 1)")
    verify.add_argument("--s", type=float, default=None, help="shift for the cone suite (default 2.5)")
    verify.add_argument("--q", type=int, default=None, help="restrict the cone suite to one exterior degree")
    verify.add_argument("--samples", type=int, default=suites.DEFAULT_SAMPLES)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--nu", type=float, default=None, help="override proposal degrees of freedom")
    verify.add_argument("--max-genus", type=int, default=12, dest="max_genus")
    verify.add_argument("--quick", action="store_true", help="cap samples at 1e5 and genus at 3")
    verify.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    phantom = sub.add_parser("phantom", help="compute the image expansion of a Fourier-data file")
    phantom.add_argument("file", help="FourierExpansion JSON")
    phantom.add_argument("--crosscheck", action="store_true", help="Monte Carlo comparison at s = 1")
    phantom.add_argument("--samples", type=int, default=200_000)
    phantom.add_argument("--seed", type=int, default=0)
    phantom.add_argument("--out", default=None)
    return parser


def _validate_verify(args) -> str | None:
    """The first problem with the flags, or None; fills in suite defaults
    (the parser leaves them None, so that one given to ``verify all`` is seen)."""
    defaults = suites.SuiteParameters()._asdict()
    given = [f"--{name}" for name in defaults if getattr(args, name) is not None]
    if args.suite == "all" and given:
        return f"verify all runs every suite at its own parameters and takes no {', '.join(given)}"
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.m < 1:
        return f"--m must be >= 1 (got {args.m})"
    if args.k < 1:
        return f"--k must be >= 1 (got {args.k})"
    if args.samples < 1:
        return f"--samples must be >= 1 (got {args.samples})"
    if args.max_genus < 1:
        return f"--max-genus must be >= 1 (got {args.max_genus})"
    if args.q is not None and not 0 <= args.q <= args.m:
        return f"--q must lie in 0..{args.m} (got {args.q})"
    if not math.isfinite(args.s):
        return f"--s must be finite (got {args.s})"
    if args.seed < 0:
        return f"--seed must be >= 0 (got {args.seed})"
    if args.nu is not None and not (math.isfinite(args.nu) and args.nu > args.m - 1):
        return f"--nu must be finite and exceed m-1 = {args.m - 1} (got {args.nu})"
    if args.suite == "cone" and args.nu is None and not args.s > -0.5:
        return f"--s must exceed -1/2 so that the default nu = m + 2s exceeds m-1, or give --nu (got {args.s})"
    return None


def _run_problem(out) -> str | None:
    """What rules the run out before any work: STURM_THREADS, or an --out
    path that cannot be written.  None when there is nothing."""
    try:
        worker_count()
    except ValueError as exc:
        return str(exc)
    if not out:
        return None
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out):
        return f"--out {out} is a directory"
    if not os.path.isdir(folder):
        return f"--out {out}: no such directory {folder}"
    if not os.access(folder, os.W_OK) or (os.path.exists(out) and not os.access(out, os.W_OK)):
        return f"--out {out} is not writable"
    return None


def cmd_verify(args) -> int:
    problem = _validate_verify(args) or _run_problem(args.out)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_BAD_INPUT

    params = suites.SuiteParameters(m=args.m, k=args.k, s=args.s, nu=args.nu, q=args.q)
    started = time.perf_counter()
    try:
        checks = suites.run_suite(args.suite, args.seed, args.samples, args.max_genus, args.quick, params)
    except PoleError as exc:
        print(f"error: parameters hit a pole: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnsupportedRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OverflowError as exc:
        print(f"error: a closed form overflows the double range at these parameters: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    report = VerificationReport(
        suite=args.suite,
        seed=args.seed,
        checks=checks,
        wall_time_s=time.perf_counter() - started,
    )
    write_json(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _phantom_payload(h: FourierExpansion, args) -> tuple[dict, int]:
    vanishing = h.k >= h.m
    payload = {"schema": "1", "regime": "vanishing" if vanishing else "phantom"}
    if vanishing:
        payload["note"] = "the normalized limit is exactly 0 for every index at this weight"
    image = FourierExpansion(h.m, h.k + 2, {form: 0.0 for form in h.terms}) if vanishing else phantom_series(h)
    payload["input"] = h.to_json()
    payload["image"] = image.to_json()
    payload["results"] = [sturm_limit(h.m, h.k, form, b).to_json() for form, b in h.terms.items()]
    if vanishing or not args.crosscheck:
        return payload, EXIT_OK
    rows = [
        (
            f"phantom.crosscheck.term{i}",
            "Monte Carlo coefficient integral at s=1 matches the closed form",
            h.m,
            h.k,
            1.0,
            form,
            b,
            args.samples,
        )
        for i, (form, b) in enumerate(h.terms.items())
    ]
    checks = suites.coefficient_checks(rows, args.seed)
    payload["crosscheck"] = [c.to_json() for c in checks]
    return payload, EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def cmd_phantom(args) -> int:
    problem = _run_problem(args.out)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.samples < 1:
        print(f"error: --samples must be >= 1 (got {args.samples})", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.seed < 0:
        print(f"error: --seed must be >= 0 (got {args.seed})", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        h = FourierExpansion.load(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot read expansion: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if h.k < h.m - 1:
        print(
            f"error: weight k={h.k} below the supported range for genus m={h.m}; "
            "the coefficient limit diverges there",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED

    try:
        payload, code = _phantom_payload(h, args)
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    write_json(payload, args.out)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_phantom(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
