"""End-to-end benchmark of `rbpspan solve INPUT --algo auto`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. One caller
solves the prepared instances one after another in a closed loop (the next
solve starts when the previous one has returned and been checked), calling
`rbpspan.cli.main` in-process. Every output is checked; see workloads.py.

--trace 0 reports the end-to-end metrics. --trace 1 solves every instance
twice in a row, once untraced and once with spans around the calls into each
module (spans.py), and reports per-layer self times and counts plus the
tracing overhead. Both print every metric by name with its
unit, then one JSON line. Run records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spans import COUNTERS, TIME_LAYERS, Tracer
from workloads import WORKLOADS, check_output, load_golden, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated during the run whenever its reps so far have taken less
# than this share of the run's elapsed time. Its reps are then spread over
# the run and see the same host phases as the solves; setup_s is their median.
SETUP_SHARE = 0.2

E2E_UNITS = {
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def git_commit():
    """HEAD's commit id, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rbpspan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def solve_call(path: Path, out_path: Path) -> int:
    """One `rbpspan solve PATH --algo auto --out OUT_PATH`; returns its exit code."""
    from rbpspan import cli

    argv = ["solve", str(path), "--algo", "auto", "--out", str(out_path)]
    with contextlib.redirect_stderr(io.StringIO()):  # auto's size-cap warning
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def solve_text(text: str, workdir: Path) -> tuple[int, str]:
    """Solve instance text once; returns (exit code, output text)."""
    path, out = workdir / "instance.txt", workdir / "out.txt"
    path.write_text(text)
    out.unlink(missing_ok=True)
    rc = solve_call(path, out)
    return rc, out.read_text() if rc == 0 else ""


class Loop:
    """Closed-loop runner over prepared operations (tuples of cases).

    `prepare()` sets the run up and returns its operations. It is timed once
    here and again during `run`.
    """

    def __init__(self, prepare, workdir: Path):
        self.prepare = prepare
        self.setup_times: list[float] = []
        self.ops = self.set_up()
        self.out_path = workdir / "out.txt"
        self.attempted = 0
        self.failures: list[str] = []

    def set_up(self):
        t0 = time.perf_counter()
        ops = self.prepare()
        self.setup_times.append(time.perf_counter() - t0)
        return ops

    def one(self, case, tracer=None):
        """Solve and check one case, traced if a tracer is given; returns (seconds, passed)."""
        self.attempted += 1
        self.out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = solve_call(case.path, self.out_path)
            else:
                rc = tracer.solve(solve_call, case.path, self.out_path)
        except Exception as exc:  # a solve that raises is a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if rc != 0:
            reason = f"exit {rc}"
        elif not self.out_path.exists():
            reason = "no output file"
        else:
            reason = check_output(case, self.out_path.read_text())
        if reason is not None:
            self.failures.append(f"{case.path.name}: {reason}")
        return elapsed, reason is None

    def run(self, seconds: float, tracer=None) -> dict:
        """Run operations in order until `seconds` have passed; returns samples per phase.

        An operation's sample is the sum of its solve times. With a tracer
        every operation runs twice in a row, once untraced and once traced, in
        alternating order, so that both phases see the same host conditions.
        A failed solve makes its operation's sample infinite, so it can only
        raise the percentiles; `parts` keeps each set's own solve times. A
        phase's "wall" is the time spent solving and checking in it. Between
        operations, set-up is repeated as SETUP_SHARE says; it rewrites the
        same files and is in no phase's wall time.
        """
        names = ["untraced"] if tracer is None else ["untraced", "traced"]
        phases = {name: {"samples": [], "verified": 0, "wall": 0.0,
                         "parts": {case.set_name: [] for case in self.ops[0]}}
                  for name in names}
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            for name in names if i % 2 == 0 else names[::-1]:
                phase = phases[name]
                traced = tracer if name == "traced" else None
                if traced:
                    traced.install()
                total = 0.0
                try:
                    t0 = time.perf_counter()
                    for case in self.ops[i % len(self.ops)]:
                        elapsed, ok = self.one(case, traced)
                        phase["parts"][case.set_name].append(elapsed if ok else math.inf)
                        phase["verified"] += ok
                        total += elapsed if ok else math.inf
                    phase["wall"] += time.perf_counter() - t0
                finally:
                    if traced:
                        traced.uninstall()
                phase["samples"].append(total)
            i += 1
            if sum(self.setup_times) < SETUP_SHARE * (time.perf_counter() - start):
                self.set_up()
        return phases


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with >= 10 samples above it.

    With N sorted samples that is the (N-10)th, percentile 100*(N-10)/N. Below
    11 samples no percentile qualifies and the maximum is reported as p100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(phase: dict, setup_s: float) -> dict:
    value, _, _ = tail(phase["samples"])
    return {
        "solve_p50_s": statistics.median(phase["samples"]),
        "solve_tail_s": value,
        "instances_per_s": phase["verified"] / phase["wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, op_size: int, traced: dict, untraced: dict) -> dict:
    """Medians over traced operations of each layer's self time and each counter."""
    rows = tracer.per_solve()
    ops = [{name: sum(r[name] for r in rows[k:k + op_size]) for name in rows[0]}
           for k in range(0, len(rows), op_size)]
    out = {}
    for name in TIME_LAYERS + COUNTERS:
        out[name] = (statistics.median(op[name] for op in ops),
                     "s" if name in TIME_LAYERS else "count")
    overhead = statistics.median(traced["samples"]) / statistics.median(untraced["samples"]) - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def _number(x: float):
    return x if math.isfinite(x) else None


def run_benchmark(name: str, sets, seed: int, seconds: float, trace: int,
                  golden: dict) -> dict:
    """Set up, warm up, measure and check one workload; returns the run record.

    The record's "result" is the JSON object the benchmark prints last.
    """
    facts = host_facts()
    facts["loadavg_start"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        loop = Loop(lambda: prepare(sets, seed, workdir, golden), workdir)
        warm_up = {}
        for case in loop.ops[0]:
            warm_up.setdefault(case.set_name, case)
        for case in warm_up.values():  # one solve per set: checked and counted, not timed
            loop.one(case)
        layers = {}
        if trace:
            tracer = Tracer()
            phases = loop.run(seconds, tracer)
            layers = per_layer(tracer, sum(s.per_op for s in sets),
                               phases["traced"], phases["untraced"])
            tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
        else:
            phases = loop.run(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()

    e2e = end_to_end(phases["untraced"], statistics.median(loop.setup_times))
    _, pct, count = tail(phases["untraced"]["samples"])
    failed = len(loop.failures)
    if trace:
        metrics = {k: {"value": _number(v), "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": _number(v), "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": facts, "setup_times_s": loop.setup_times,
        "end_to_end": e2e, "tail_percentile": pct, "tail_samples": count,
        "failed_frac": failed / loop.attempted,
        "per_layer": {name: value for name, (value, _) in layers.items()},
        "traced_p50_s": statistics.median(phases["traced"]["samples"]) if trace else None,
        "failures": loop.failures,
        "samples_s": {k: [_number(x) for x in phase["samples"]] for k, phase in phases.items()},
        "part_samples_s": {k: {part: [_number(x) for x in xs]
                               for part, xs in phase["parts"].items()}
                           for k, phase in phases.items()},
        "result": {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                   "metrics": metrics},
    }


def report_lines(record: dict) -> list[str]:
    """Every metric of a run record by name, value and unit."""
    lines = [f"host.{key} {value}" for key, value in record["host"].items()]
    for name, value in record["end_to_end"].items():
        lines.append(f"{name} {value:.6g} {E2E_UNITS[name]}")
    lines.append(f"solve_tail_s is p{record['tail_percentile']:.1f} of "
                 f"{record['tail_samples']} untraced samples")
    lines.append(f"setup_s is the median of {len(record['setup_times_s'])} set-ups")
    parts = record["part_samples_s"]["untraced"]
    if len(parts) > 1:
        for part, xs in parts.items():
            xs = [math.inf if x is None else x for x in xs]
            lines.append(f"part.{part}.solve_p50_s {statistics.median(xs):.6g} s")
    result = record["result"]
    lines.append(f"failed_frac {record['failed_frac']:.6g} ratio "
                 f"({result['failed']} of {result['attempted']})")
    lines += [f"failure {reason}" for reason in record["failures"][:10]]
    if record["trace"]:
        for name, m in result["metrics"].items():
            lines.append(f"{name} {m['value']:.6g} {m['unit']}")
        self_sum = sum(v for name, v in record["per_layer"].items()
                       if name not in COUNTERS and name != "trace.overhead_frac")
        lines.append("trace.sum_self_s %.6g s (traced p50 %.6g s, untraced p50 %.6g s)"
                     % (self_sum, record["traced_p50_s"], record["end_to_end"]["solve_p50_s"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rbpspan" / "__init__.py").is_file():
        print(f"error: no rbpspan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rbpspan

    if Path(rbpspan.__file__).resolve().parent != (SRC / "rbpspan").resolve():
        print(f"error: imported rbpspan from {rbpspan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = run_benchmark(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                           args.trace, load_golden())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(report_lines(record)))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
