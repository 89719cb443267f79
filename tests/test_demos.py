"""Every demo script runs to the end, in-process, from a scratch working directory."""

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _root_files():
    return {p.name: p.stat().st_mtime_ns for p in REPO.iterdir() if p.is_file()}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(demo)])
    before = _root_files()
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    assert _root_files() == before
    if demo.name == "crossing_construction.py":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["martini_optimum.svg",
                                                             "martini_points.svg"]
        assert all(p.read_text().startswith("<svg") for p in tmp_path.iterdir())


def test_all_three_demos_are_found():
    assert [p.name for p in DEMOS] == ["approximation_ratio.py", "compare_solvers.py",
                                       "crossing_construction.py"]
