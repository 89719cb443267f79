"""Command-line front end: solve, generate, validate, render to SVG, and benchmark.

Exit codes: 0 success, 1 usage error, 2 precondition failure, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import bench as bench_mod
from .approx import approx_a, approx_union
from .circle import CONCYCLIC_TOL, fit_circle, solve_circle
from .exact import solve_exact
from .generators import (
    MartiniParams,
    gen_hexagon,
    gen_martini,
    gen_random,
    gen_steiner_family,
)
from .graphops import is_rbp_spanning, stats_block
from .line import COLLINEAR_TOL, collinearity_residual, solve_line
from .model import (
    Instance,
    PreconditionError,
    Solution,
    parse_instance,
    serialize_instance,
)
from .oracle import oracle_forest, oracle_subsets
from .svg import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

ALGOS = ("exact", "line", "circle", "approx-union", "approx-a",
         "oracle-forest", "oracle-subsets", "auto")

AUTO_EXACT_MAX_N = 20


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _read_instance(path: str) -> Instance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _write(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _tol(tolerance: Optional[float], default: float) -> float:
    """The --tolerance value, or the solver's default when it is not given."""
    return default if tolerance is None else tolerance


def _pick_auto(instance: Instance, tolerance: Optional[float]) -> tuple[str, Optional[tuple]]:
    """The solver `auto` runs, and the circle fit when it picks the circle solver."""
    if collinearity_residual(instance) <= _tol(tolerance, COLLINEAR_TOL):
        return "line", None
    try:
        fit = fit_circle(instance)
    except PreconditionError:
        fit = None
    if fit is not None and fit[3] <= _tol(tolerance, CONCYCLIC_TOL):
        return "circle", fit
    if instance.n <= AUTO_EXACT_MAX_N:
        return "exact", None
    print(f"warning: n={instance.n} too large for the exact solver; "
          "falling back to approx-a", file=sys.stderr)
    return "approx-a", None


def _run_algo(instance: Instance, algo: str, tolerance: Optional[float],
              fit: Optional[tuple] = None) -> Solution:
    if algo == "exact":
        return solve_exact(instance)
    if algo == "line":
        return solve_line(instance, _tol(tolerance, COLLINEAR_TOL))
    if algo == "circle":
        return solve_circle(instance, _tol(tolerance, CONCYCLIC_TOL), fit=fit)
    if algo == "approx-union":
        return approx_union(instance)
    if algo == "approx-a":
        return approx_a(instance)
    if algo == "oracle-forest":
        return oracle_forest(instance)
    if algo == "oracle-subsets":
        return oracle_subsets(instance)
    raise AssertionError(f"unhandled algo {algo}")


def cmd_solve(args) -> int:
    instance = _read_instance(args.input)
    algo, fit = args.algo, None
    if algo == "auto":
        algo, fit = _pick_auto(instance, args.tolerance)
    solution = _run_algo(instance, algo, args.tolerance, fit)
    if not is_rbp_spanning(instance, solution.edges):
        print("internal error: solver output is not RBP-spanning", file=sys.stderr)
        return EXIT_INTERNAL
    out = []
    for e in solution.edges:
        out.append(f"{e.u} {e.v}")
    out.append("")
    out.append(stats_block(solution).rstrip("\n"))
    _write(args.out, "\n".join(out) + "\n")
    if args.svg:
        _write(args.svg, render_svg(instance, solution.edge_set))
    return EXIT_OK


def cmd_gen(args) -> int:
    landmarks = None
    extra_comment = None
    if args.name == "random":
        instance = gen_random(args.n, args.red_frac, args.blue_frac, args.mode,
                              seed=args.seed)
    elif args.name == "hexagon":
        instance = gen_hexagon(args.rotation)
    elif args.name == "steiner":
        instance = gen_steiner_family(args.t).instance
    elif args.name == "martini":
        result = gen_martini(MartiniParams(m=args.m, eps=args.eps, eps0=args.eps0,
                                           chain_points=args.chain_points))
        instance = result.instance
        landmarks = result.landmarks
        extra_comment = "# p_c %.17g %.17g" % result.p_c
    else:  # unreachable: argparse restricts choices
        raise AssertionError(args.name)
    text = serialize_instance(instance, landmarks)
    if extra_comment:
        text += extra_comment + "\n"
    _write(args.out, text)
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _read_instance(args.input)
    lines = [f"points {instance.n}",
             f"red {len(instance.R)}",
             f"blue {len(instance.B)}",
             f"purple {instance.k}"]
    res_line = collinearity_residual(instance)
    lines.append("collinear %s (residual %.3g)"
                 % ("yes" if res_line <= COLLINEAR_TOL else "no", res_line))
    try:
        _, _, _, res_circ = fit_circle(instance)
    except PreconditionError:
        res_circ = math.inf
    lines.append("concyclic %s (residual %.3g)"
                 % ("yes" if res_circ <= CONCYCLIC_TOL else "no", res_circ))
    ties = instance.general_position_violations()
    lines.append(f"distance_ties {len(ties)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_edge_list(text: str) -> list:
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            break  # stats block follows the blank separator
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            break
    return pairs


def cmd_render(args) -> int:
    instance = _read_instance(args.input)
    edge_set = None
    if args.solution:
        from .model import make_edge_set
        with open(args.solution) as fh:
            pairs = _parse_edge_list(fh.read())
        for u, v in pairs:
            if not (0 <= u < instance.n and 0 <= v < instance.n):
                raise PreconditionError(f"edge ({u}, {v}) references an unknown point id")
        edge_set = make_edge_set(instance, pairs)
    _write(args.out, render_svg(instance, edge_set, size=args.size))
    return EXIT_OK


def cmd_bench(args) -> int:
    lines = []
    if args.target in ("line", "all"):
        res = bench_mod.bench_line(reps=args.reps, seed=args.seed)
        for n, t in sorted(res.items()):
            lines.append("line %d %.6f" % (n, t))
        res = bench_mod.bench_line_e2e(reps=args.reps, seed=args.seed)
        for n, t in sorted(res.items()):
            lines.append("line_e2e %d %.6f" % (n, t))
    if args.target in ("circle", "all"):
        res = bench_mod.bench_circle(reps=args.reps, seed=args.seed)
        for k, t in sorted(res.items()):
            lines.append("circle %d %.6f" % (k, t))
    if args.target in ("exact", "all"):
        res = bench_mod.bench_exact(reps=max(1, args.reps // 2), seed=args.seed)
        for n, t in sorted(res.items()):
            lines.append("exact %d %.6f" % (n, t))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rbpspan",
                     description="Minimum red-blue-purple spanning graphs of "
                                 "colored planar point sets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("input", help="instance file ('-' for stdin)")
    p.add_argument("--algo", choices=ALGOS, default="auto")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the 1e-9 collinearity/concyclicity tolerance")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--svg", default=None, help="also render the solution to this SVG path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("name", choices=("random", "hexagon", "steiner", "martini"))
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--red-frac", type=float, default=0.4)
    p.add_argument("--blue-frac", type=float, default=0.4)
    p.add_argument("--mode", choices=("plane", "line", "circle"), default="plane")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rotation", type=float, default=math.pi / 12.0)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--chain-points", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="report instance certificates")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render an instance (and optional solution) to SVG")
    p.add_argument("input")
    p.add_argument("--solution", default=None, help="solution edge-list file")
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="run the scaling benchmarks")
    p.add_argument("--target", choices=("line", "circle", "exact", "all"), default="all")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
