"""Benchmark harness smoke tests at small sizes (scaling claims live in acceptance)."""

import pytest

from rbpspan.bench import (
    bench_approx,
    bench_circle,
    bench_circle_e2e,
    bench_exact,
    bench_line,
    bench_line_e2e,
    scaling_ratio,
)


def test_bench_line_smoke():
    res = bench_line(sizes=(2000,), reps=2)
    assert set(res) == {2000} and res[2000] > 0.0


def test_bench_line_e2e_smoke():
    res = bench_line_e2e(sizes=(500, 1000), reps=2)
    assert set(res) == {500, 1000} and min(res.values()) > 0.0


def test_bench_approx_smoke():
    res = bench_approx(sizes=(50, 200), reps=2)
    assert set(res) == {50, 200} and min(res.values()) > 0.0


def test_bench_circle_smoke():
    res = bench_circle(ks=(12,), extra=20, reps=2)
    assert set(res) == {12} and res[12] > 0.0


def test_bench_circle_e2e_smoke():
    res = bench_circle_e2e(ks=(6, 12), extra=20, reps=2)
    assert set(res) == {6, 12} and min(res.values()) > 0.0


def test_bench_exact_smoke():
    res = bench_exact(ns=(8,), reps=1)
    assert set(res) == {8} and res[8] > 0.0


def test_scaling_ratio():
    assert scaling_ratio({10: 2.0, 20: 8.0}, 10, 20) == pytest.approx(4.0)
