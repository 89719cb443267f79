"""Command-line front end: solve, generate, validate, render to SVG, and benchmark.

Exit codes: 0 success, 1 usage error, 2 precondition failure, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from itertools import chain
from typing import Optional

from . import bench as bench_mod
from .approx import approx_a, approx_union
from .circle import CONCYCLIC_TOL, NotConcyclicError, fit_circle, solve_circle
from .exact import solve_exact
from .generators import (
    MartiniParams,
    gen_hexagon,
    gen_martini,
    gen_random,
    gen_steiner_family,
)
from .graphops import is_rbp_spanning, stats_block
from .line import COLLINEAR_TOL, NotCollinearError, collinearity_residual, solve_line
from .model import (
    Instance,
    PreconditionError,
    Solution,
    make_edge_set,
    parse_instance,
    serialize_instance,
)
from .oracle import oracle_forest, oracle_subsets
from .svg import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

AUTO_EXACT_MAX_N = 20


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite number >= 0 (nan and inf would accept any input)."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of counts and sizes that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc


def _read_instance(path: str) -> Instance:
    return parse_instance(sys.stdin.read() if path == "-" else _read_text(path))


def _write(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _tol(tolerance: Optional[float], default: float) -> float:
    """The --tolerance value, or the solver's default when it is not given."""
    return default if tolerance is None else tolerance


def _solve_auto(instance: Instance, tolerance: Optional[float]) -> Solution:
    """Line, else circle, else exact up to AUTO_EXACT_MAX_N points, else approx-a.

    The line and circle solvers' own precondition checks decide whether they apply.
    """
    try:
        return solve_line(instance, _tol(tolerance, COLLINEAR_TOL))
    except NotCollinearError:
        pass
    try:
        return solve_circle(instance, _tol(tolerance, CONCYCLIC_TOL))
    except NotConcyclicError:
        pass
    if instance.n <= AUTO_EXACT_MAX_N:
        return solve_exact(instance)
    print(f"warning: n={instance.n} too large for the exact solver; "
          "falling back to approx-a", file=sys.stderr)
    return approx_a(instance)


# --algo name -> solve(instance, tolerance). Entries look the solvers up in
# this module's globals at call time, so a wrapped or patched attribute is
# the one that runs.
SOLVERS = {
    "exact": lambda inst, tol: solve_exact(inst),
    "line": lambda inst, tol: solve_line(inst, _tol(tol, COLLINEAR_TOL)),
    "circle": lambda inst, tol: solve_circle(inst, _tol(tol, CONCYCLIC_TOL)),
    "approx-union": lambda inst, tol: approx_union(inst),
    "approx-a": lambda inst, tol: approx_a(inst),
    "oracle-forest": lambda inst, tol: oracle_forest(inst),
    "oracle-subsets": lambda inst, tol: oracle_subsets(inst),
    "auto": _solve_auto,
}
TOLERANCE_ALGOS = ("line", "circle", "auto")  # the --algo names whose solver reads --tolerance


def cmd_solve(args) -> int:
    if args.tolerance is not None and args.algo not in TOLERANCE_ALGOS:
        args.parser.error(f"--algo {args.algo} reads no --tolerance")
    instance = _read_instance(args.input)
    solution = SOLVERS[args.algo](instance, args.tolerance)
    edge_set = solution.edge_set
    if not is_rbp_spanning(edge_set):
        print("internal error: solver output is not RBP-spanning", file=sys.stderr)
        return EXIT_INTERNAL
    out = list(map("%d %d".__mod__, zip(edge_set.u.tolist(), edge_set.v.tolist())))
    out.append("")
    out.append(stats_block(solution).rstrip("\n"))
    _write(args.out, "\n".join(out) + "\n")
    if args.svg:
        _write(args.svg, render_svg(instance, solution.edge_set))
    return EXIT_OK


def cmd_gen(args) -> int:
    _write(args.out, args.build(args))
    return EXIT_OK


def _martini_text(args) -> str:
    """The martini instance with its landmark lines and a `# p_c` line."""
    result = gen_martini(MartiniParams(m=args.m, eps=args.eps, eps0=args.eps0,
                                       chain_points=args.chain_points))
    return (serialize_instance(result.instance, result.landmarks)
            + "# p_c %.17g %.17g\n" % result.p_c)


def cmd_validate(args) -> int:
    instance = _read_instance(args.input)
    k = instance.k
    lines = [f"points {instance.n}", f"red {len(instance.red_side()) - k}",
             f"blue {len(instance.blue_side()) - k}", f"purple {k}"]
    res_line = collinearity_residual(instance)
    lines.append("collinear %s (residual %.3g)"
                 % ("yes" if res_line <= COLLINEAR_TOL else "no", res_line))
    try:
        _, _, _, res_circ = fit_circle(instance)
    except PreconditionError:
        res_circ = math.inf
    lines.append("concyclic %s (residual %.3g)"
                 % ("yes" if res_circ <= CONCYCLIC_TOL else "no", res_circ))
    lines.append(f"distance_ties {instance.distance_tie_count()}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_edge_list(text: str) -> list:
    """The (u, v) pairs of a solution file, up to the stats block `rbpspan solve` writes.

    The stats block is the `weight` line after a blank line and everything
    after it. Comments and other blank lines are skipped; any other line that
    is not two integers raises PreconditionError.
    """
    pairs = []
    after_blank = False
    for number, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            after_blank = True
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if after_blank and parts[0] == "weight":
            break
        after_blank = False
        try:
            u, v = (int(part) for part in parts)
        except ValueError:
            raise PreconditionError(
                f"solution line {number}: expected two point ids, got {line!r}") from None
        pairs.append((u, v))
    return pairs


def cmd_render(args) -> int:
    instance = _read_instance(args.input)
    edge_set = None
    if args.solution:
        edge_set = make_edge_set(instance, _parse_edge_list(_read_text(args.solution)))
    _write(args.out, render_svg(instance, edge_set, size=args.size))
    return EXIT_OK


def cmd_bench(args) -> int:
    targets = bench_mod.TARGETS
    if args.target != "all":
        targets = {args.target: targets[args.target]}
    lines = []
    for label, harness, reps_divisor in chain.from_iterable(targets.values()):
        res = harness(reps=max(1, args.reps // reps_divisor), seed=args.seed)
        lines.extend("%s %d %.6f" % (label, size, t) for size, t in sorted(res.items()))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rbpspan",
                     description="Minimum red-blue-purple spanning graphs of "
                                 "colored planar point sets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("input", help="instance file ('-' for stdin)")
    p.add_argument("--algo", choices=SOLVERS, default="auto")
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="override the 1e-9 collinearity/concyclicity tolerance")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--svg", default=None, help="also render the solution to this SVG path")
    p.set_defaults(func=cmd_solve, parser=p)

    p = sub.add_parser("gen", help="generate an instance")
    p.set_defaults(func=cmd_gen)
    generators = p.add_subparsers(dest="name", required=True)
    g = generators.add_parser("random", help="seeded uniform points")
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--red-frac", type=float, default=0.4)
    g.add_argument("--blue-frac", type=float, default=0.4)
    g.add_argument("--mode", choices=("plane", "line", "circle"), default="plane")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(build=lambda a: serialize_instance(
        gen_random(a.n, a.red_frac, a.blue_frac, a.mode, seed=a.seed)))
    g = generators.add_parser("hexagon", help="a degree-18 star optimum")
    g.add_argument("--rotation", type=float, default=math.pi / 12.0)
    g.set_defaults(build=lambda a: serialize_instance(gen_hexagon(a.rotation)))
    g = generators.add_parser("steiner", help="chains to a Fermat point")
    g.add_argument("--t", type=int, default=5)
    g.set_defaults(build=lambda a: serialize_instance(gen_steiner_family(a.t).instance))
    g = generators.add_parser("martini", help="one purple edge crossing all")
    g.add_argument("--m", type=int, default=1)
    g.add_argument("--eps", type=float, default=1e-3)
    g.add_argument("--eps0", type=float, default=None)
    g.add_argument("--chain-points", type=int, default=2)
    g.set_defaults(build=_martini_text)
    for g in generators.choices.values():
        g.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="report instance certificates")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="render an instance (and optional solution) to SVG")
    p.add_argument("input")
    p.add_argument("--solution", default=None, help="solution edge-list file")
    p.add_argument("--size", type=_positive_int, default=640)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="run the scaling benchmarks")
    p.add_argument("--target", choices=(*bench_mod.TARGETS, "all"), default="all")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser() -> _Parser:
    """`build_parser()`, built once per process on first use.

    Usage errors look `sys.stderr` up when they are printed, so a cached
    parser still writes to the current stream.
    """
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
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
