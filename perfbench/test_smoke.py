"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted, and that the output
check catches a corrupted edge list.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import make_golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_SIZES = {"plane-approx": 40, "line-collinear": 40, "exact-small": 8, "circle-dp": 24}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny copies of every instance set, and golden entries made by the current code."""
    workdir = tmp_path_factory.mktemp("golden")
    sets, golden = {}, {}
    for name, iset in workloads.INSTANCE_SETS.items():
        small = dataclasses.replace(iset, n=TINY_SIZES[name], per_run=2,
                                    pool=min(iset.pool, 3), held_out=min(iset.held_out, 2))
        golden[name] = make_golden.golden_entries(small, workdir,
                                                  range(small.pool + small.held_out))
        sets[name] = small
    workloads_ = {name: tuple(sets[s.name] for s in members)
                  for name, members in workloads.WORKLOADS.items()}
    return sets, workloads_, golden


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(tiny, trace, kind):
    declared = _declared(kind)
    sets, workloads_, golden = tiny
    for name, members in workloads_.items():
        record = run.run_benchmark(name, members, 1, 0.2, trace, golden)
        result = record["result"]
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 2 * len(members)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared, name
        assert all(m["value"] is not None for m in result["metrics"].values())
        assert any(line.startswith("failed_frac ") for line in run.report_lines(record))


def test_corrupted_edge_list_counts_as_failed(tiny, monkeypatch):
    sets, _, golden = tiny
    solve_call = run.solve_call

    def drop_first_edge(path, out_path):
        rc = solve_call(path, out_path)
        lines = out_path.read_text().splitlines(keepends=True)
        out_path.write_text("".join(lines[1:]))
        return rc

    monkeypatch.setattr(run, "solve_call", drop_first_edge)
    result = run.run_benchmark("plane-approx", (sets["plane-approx"],), 1, 0.2, 0,
                               golden)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_check_output_rejects_each_kind_of_fault(tiny, tmp_path):
    sets, _, golden = tiny
    case = workloads.prepare_set(sets["exact-small"], 1, tmp_path, golden)[0]
    rc, text = run.solve_text(case.path.read_text(), tmp_path)
    assert rc == 0 and workloads.check_output(case, text) is None
    edges, stats = workloads.split_output(text)

    def render(pairs, block=stats):
        return "".join(f"{u} {v}\n" for u, v in pairs) + "\n" + block

    red = case.colors.index("R")
    blue = case.colors.index("B")
    assert workloads.check_output(case, render(edges[1:])) is not None
    assert workloads.check_output(case, render(edges + [edges[0]])) is not None
    assert workloads.check_output(case, render(edges + [(red, blue)])) is not None
    assert workloads.check_output(case, "garbage") is not None
    heavier = dataclasses.replace(case, weight=case.weight * (1 + 1e-6))
    assert workloads.check_output(heavier, text) is not None
    case = workloads.prepare_set(sets["circle-dp"], 1, tmp_path, golden)[0]
    rc, text = run.solve_text(case.path.read_text(), tmp_path)
    assert workloads.check_output(case, text) is None
    assert workloads.check_output(case, text.replace("weight", "weight 1")) is not None


def test_inputs_follow_the_seed(tiny):
    iset = tiny[0]["circle-dp"]
    assert workloads.run_instances(iset, 5) == workloads.run_instances(iset, 5)
    held_out = workloads.run_instances(iset, workloads.HELD_OUT_SEED)
    assert all(g >= iset.pool for g in held_out)
    assert all(g < iset.pool for seed in range(20) for g in workloads.run_instances(iset, seed))
    assert workloads.instance_text(iset, 0) == workloads.instance_text(iset, 0)
    assert workloads.instance_text(iset, 0) != workloads.instance_text(iset, 1)


def test_operations_take_per_op_cases_of_each_set(tiny, tmp_path):
    _, workloads_, golden = tiny
    members = workloads_["exact-solvers"]
    ops = workloads.prepare(members, 1, tmp_path, golden)
    expected = [s.name for s in members for _ in range(s.per_op)]
    assert all([case.set_name for case in op] == expected for op in ops)
    assert len({case.path for op in ops for case in op}) == sum(s.per_run for s in members)
