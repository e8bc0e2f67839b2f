"""Command line front end.

Subcommands: ``div`` (compute a divergence between two operator files),
``check`` (run a named property suite), ``reconstruct`` (recover an
implementing (anti)unitary from probe images, simulated or read from files),
and ``sample`` (write seeded random operators).  Exit codes: 0 success, 1 suite
or assertion failure, 2 input validation failure (including a divergence whose
finite value a float cannot hold), 3 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import files
from .divergence import DIVERGENCE_TAGS, NonFiniteResultError, make_divergence
from .extended import fmt_extended
from .functions import DomainError
from .maps import StateMap, require_unitary
from .operators import ValidationError
from .preserver import WignerError, wigner_probe_projections, wigner_reconstruct
from .sampling import SeededRng, haar_unitary, random_density_matrix, \
    random_positive_definite
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("div", help="compute a divergence between two operators")
    p_div.add_argument("tag", choices=DIVERGENCE_TAGS)
    p_div.add_argument("file_a")
    p_div.add_argument("file_b")
    p_div.add_argument("--alpha", type=float, default=None)
    p_div.add_argument("--f", dest="f_name", default=None,
                       help="registry name, e.g. power:2, xlogx, linear:-3")
    p_div.add_argument("--g", dest="g_name", default=None)
    p_div.add_argument("--out", default=None, help="write a JSON report here")

    p_check = sub.add_parser("check", help="run a named property suite")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--dim", type=int, default=3)
    p_check.add_argument("--samples", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--alpha", type=float, default=2.0)
    p_check.add_argument("--out", default=None)

    p_rec = sub.add_parser("reconstruct",
                           help="recover an implementing (anti)unitary")
    src = p_rec.add_mutually_exclusive_group(required=True)
    src.add_argument("--simulate", default=None,
                     help="unitary operator file whose conjugation to simulate")
    src.add_argument("--images", default=None,
                     help="directory of probe image files img_000.json ...")
    p_rec.add_argument("--map-kind", choices=("unitary", "antiunitary", "transpose"),
                       default="unitary")
    p_rec.add_argument("--out", default=None, help="write the recovered unitary here")
    p_rec.add_argument("--report", default=None)

    p_sample = sub.add_parser("sample", help="write seeded random operators")
    p_sample.add_argument("kind", choices=("density", "pd", "unitary"))
    p_sample.add_argument("--dim", type=int, required=True)
    p_sample.add_argument("--rank", type=int, default=None)
    p_sample.add_argument("--kappa", type=float, default=10.0)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    return parser


def _load_role_checked(path):
    """Load an operator file and check its role; returns the matrix and what
    ``files.validate_role`` returned (the operator it built, or the matrix)."""
    try:
        matrix, role = files.load_operator(path)
    except OSError as exc:
        raise files.OperatorFileError(f"cannot read {path}: {exc}")
    return matrix, files.validate_role(matrix, role)


def cmd_div(args) -> int:
    started = time.perf_counter()
    _, a = _load_role_checked(args.file_a)
    _, b = _load_role_checked(args.file_b)
    try:
        div = make_divergence(args.tag, alpha=args.alpha,
                              f=args.f_name, g=args.g_name)
    except KeyError as exc:
        raise UsageError(str(exc))
    # each divergence converts its own operands, reusing an operator of the
    # right class as it is
    value = div(a, b)
    print(fmt_extended(value))
    if args.out:
        params = {"tag": args.tag, "alpha": args.alpha,
                  "f": args.f_name, "g": args.g_name,
                  "file_a": args.file_a, "file_b": args.file_b}
        text = files.render_report(
            "div", params, {"value": value},
            wall_time_s=time.perf_counter() - started,
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    passed, assertions = run_suite(
        args.suite, dim=args.dim, samples=args.samples, seed=args.seed,
        tol=args.tol, alpha=args.alpha,
    )
    for a in assertions:
        flag = "pass" if a["pass"] else "FAIL"
        print(f"[{flag}] {a['name']}: measured={a['measured']} bound={a['bound']}")
    params = {"suite": args.suite, "dim": args.dim, "samples": args.samples,
              "seed": args.seed, "tol": args.tol, "alpha": args.alpha}
    witnesses = [a for a in assertions if not a["pass"]]
    text = files.render_report(
        "check", params,
        {"passed": passed, "assertions": assertions},
        witnesses=witnesses,
        wall_time_s=time.perf_counter() - started,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print("suite passed" if passed else "suite FAILED")
    return EXIT_OK if passed else EXIT_FAIL


def _simulated_map(path, map_kind) -> StateMap:
    matrix, _ = _load_role_checked(path)
    u = require_unitary(matrix)
    if map_kind == "unitary":
        return StateMap.unitary_conjugation(u)
    if map_kind == "antiunitary":
        return StateMap.antiunitary_conjugation(u)
    # Transpose after conjugation: A -> (U A U*)^T, which on Hermitian inputs
    # equals conj(U) conj(A) conj(U)*, an antiunitary with unitary part conj(U).
    return StateMap.antiunitary_conjugation(u.conj())


def _load_image_dir(path):
    names = sorted(f for f in os.listdir(path) if f.endswith(".json"))
    if not names:
        raise files.OperatorFileError(f"no .json image files found in {path}")
    images = []
    for name in names:
        matrix, _ = _load_role_checked(os.path.join(path, name))
        images.append(matrix)
    return images


def cmd_reconstruct(args) -> int:
    started = time.perf_counter()
    if args.simulate:
        state_map = _simulated_map(args.simulate, args.map_kind)
        probes = wigner_probe_projections(state_map.dim)
        images = [state_map.apply(p) for p in probes]
    else:
        images = _load_image_dir(args.images)
    try:
        u, kind, residual = wigner_reconstruct(images)
    except WignerError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"kind: {kind}")
    print(f"residual: {residual:.6e}")
    if args.out:
        files.save_operator(args.out, u, role="unitary")
    if args.report:
        text = files.render_report(
            "reconstruct",
            {"simulate": args.simulate, "images": args.images,
             "map_kind": args.map_kind},
            {"kind": kind, "residual": residual},
            wall_time_s=time.perf_counter() - started,
        )
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_sample(args) -> int:
    rng = SeededRng(args.seed)
    if args.dim < 1:
        raise UsageError("--dim must be at least 1")
    if args.kind == "density":
        rank = args.rank if args.rank is not None else args.dim
        if not 1 <= rank <= args.dim:
            raise UsageError(f"--rank must lie in [1, {args.dim}]")
        m = random_density_matrix(args.dim, rank, rng)
        files.save_operator(args.out, m, role="density")
    elif args.kind == "pd":
        if not (math.isfinite(args.kappa) and args.kappa >= 1.0):
            raise UsageError("--kappa must be a finite number of at least 1")
        op = random_positive_definite(args.dim, args.kappa, rng)
        files.save_operator(args.out, op.matrix, role="positive")
    else:
        u = haar_unitary(args.dim, rng)
        files.save_operator(args.out, u, role="unitary")
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # the subparsers are required, so argparse only admits these names
        commands = {"div": cmd_div, "check": cmd_check,
                    "reconstruct": cmd_reconstruct, "sample": cmd_sample}
        try:
            return commands[args.command](args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (files.OperatorFileError, ValidationError, DomainError,
                NonFiniteResultError, ValueError) as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return EXIT_INVALID
    except KeyboardInterrupt:
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
