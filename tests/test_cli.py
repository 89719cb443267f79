"""Command-line interface: subcommands, exit codes, and output formats."""

import pytest

from rbpspan.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)
from rbpspan import circle, cli, line
from rbpspan.circle import fit_circle
from rbpspan.generators import gen_random
from rbpspan.model import parse_instance, serialize_instance
from rbpspan.svg import render_svg
from util import E1_TEXT, e1


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.txt"
    path.write_text(E1_TEXT)
    return str(path)


NEAR_LINE_TEXT = "P 0 0\nP 10 0\nR 4 1e-12\nB 6 0\n"

# Instances of the auto walk: fixed text, or the arguments of `rbpspan gen random`.
AUTO_INPUTS = {
    "e1": E1_TEXT,
    "near-line": NEAR_LINE_TEXT,
    "plane-18": ["--n", "18", "--seed", "3"],
    "plane-21": ["--n", "21", "--seed", "3"],
    "circle-30": ["--n", "30", "--mode", "circle", "--seed", "4"],
}


def _auto_input(tmp_path, name) -> str:
    path = tmp_path / f"{name}.txt"
    source = AUTO_INPUTS[name]
    if isinstance(source, str):
        path.write_text(source)
    else:
        assert main(["gen", "random", *source, "--out", str(path)]) == EXIT_OK
    return str(path)


class TestSolve:
    def test_exact_on_e1(self, e1_file, capsys):
        # [DERIVED: weight 18]
        assert main(["solve", e1_file, "--algo", "exact"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "weight 18" in out
        assert "solver exact" in out
        edge_lines = out.split("\n\n")[0].strip().splitlines()
        assert len(edge_lines) == 3  # purple edge + two attachments

    def test_circle_on_collinear_file_exits_2(self, e1_file, capsys):
        # [TRIVIAL: precondition guard]
        assert main(["solve", e1_file, "--algo", "circle"]) == EXIT_PRECONDITION
        assert "not concyclic" in capsys.readouterr().err

    def test_auto_picks_line_solver(self, e1_file, capsys):
        # [TRIVIAL: dispatch]
        assert main(["solve", e1_file, "--algo", "auto"]) == EXIT_OK
        assert "solver line" in capsys.readouterr().out

    @pytest.mark.parametrize("name, tolerance, expected", [
        ("e1", None, "line"), ("e1", "0", "line"), ("e1", "1e-3", "line"),
        # Residual 1e-13 passes the 1e-9 default, not 0; the four points'
        # fitted circle then has residual 0.
        ("near-line", None, "line"), ("near-line", "1e-3", "line"),
        ("near-line", "0", "circle"),
        ("plane-18", None, "exact"), ("plane-18", "0", "exact"),
        ("plane-18", "1e-3", "exact"),
        ("plane-21", None, "approx-a"), ("plane-21", "0", "approx-a"),
        ("plane-21", "1e-3", "approx-a"),
        ("circle-30", None, "circle"), ("circle-30", "1e-3", "circle"),
        ("circle-30", "0", "approx-a"),
    ])
    def test_auto_walk(self, tmp_path, capsys, name, tolerance, expected):
        # [TRIVIAL: line, then circle, then exact up to n = 20, then approx-a]
        argv = ["solve", _auto_input(tmp_path, name), "--algo", "auto"]
        if tolerance is not None:
            argv += ["--tolerance", tolerance]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert f"solver {expected}\n" in captured.out
        assert ("warning" in captured.err) == (expected == "approx-a")

    def test_auto_line_computes_the_residual_once(self, e1_file, capsys, monkeypatch):
        calls = []
        original = line.collinearity_residual

        def counting_residual(instance):
            calls.append(instance.n)
            return original(instance)

        monkeypatch.setattr(cli, "collinearity_residual", counting_residual)
        monkeypatch.setattr(line, "collinearity_residual", counting_residual)
        assert main(["solve", e1_file, "--algo", "auto"]) == EXIT_OK
        assert "solver line" in capsys.readouterr().out
        assert calls == [4]

    @pytest.mark.parametrize("algo, name, attr", [
        ("exact", "e1", "solve_exact"),
        ("auto", "e1", "solve_line"),
        ("auto", "circle-30", "solve_circle"),
        ("auto", "plane-18", "solve_exact"),
    ])
    def test_solvers_are_looked_up_at_call_time(self, tmp_path, capsys, monkeypatch,
                                                algo, name, attr):
        # Wrapping a cli attribute (as perfbench's tracer does) wraps what runs.
        calls = []
        original = getattr(cli, attr)

        def recording(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, attr, recording)
        assert main(["solve", _auto_input(tmp_path, name), "--algo", algo]) == EXIT_OK
        capsys.readouterr()
        assert calls == [attr]

    def test_auto_circle_fits_the_circle_once(self, tmp_path, capsys, monkeypatch):
        fits = []

        def counting_fit(instance):
            fits.append(instance.n)
            return fit_circle(instance)

        monkeypatch.setattr(cli, "fit_circle", counting_fit)
        monkeypatch.setattr(circle, "fit_circle", counting_fit)
        path = tmp_path / "circle.txt"
        path.write_text(serialize_instance(gen_random(30, 0.3, 0.3, "circle", seed=4)))
        assert main(["solve", str(path), "--algo", "auto"]) == EXIT_OK
        assert "solver circle" in capsys.readouterr().out
        assert fits == [30]

    def test_zero_tolerance_is_not_the_default(self, tmp_path, capsys):
        # [DERIVED: residual 1e-13 passes the 1e-9 default but not 0]
        path = tmp_path / "near_line.txt"
        path.write_text(NEAR_LINE_TEXT)
        assert main(["solve", str(path), "--algo", "line"]) == EXIT_OK
        assert main(["solve", str(path), "--algo", "line",
                     "--tolerance", "0"]) == EXIT_PRECONDITION
        assert "not collinear" in capsys.readouterr().err

    def test_unknown_algo_exits_1(self, e1_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", e1_file, "--algo", "bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "none.txt")]) == EXIT_PRECONDITION

    def test_svg_side_output(self, e1_file, tmp_path):
        svg = tmp_path / "e1.svg"
        assert main(["solve", e1_file, "--algo", "exact",
                     "--out", str(tmp_path / "sol.txt"), "--svg", str(svg)]) == EXIT_OK
        assert svg.read_text().startswith("<svg")


class TestGen:
    def test_random_deterministic(self, capsys):
        assert main(["gen", "random", "--n", "8", "--seed", "5"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["gen", "random", "--n", "8", "--seed", "5"]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert parse_instance(first).n == 8

    def test_gen_then_solve_pipeline(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        assert main(["gen", "random", "--n", "7", "--mode", "line",
                     "--out", str(path)]) == EXIT_OK
        assert main(["solve", str(path), "--algo", "line"]) == EXIT_OK
        assert "solver line" in capsys.readouterr().out

    def test_martini_landmarks_and_reference_point(self, capsys):
        assert main(["gen", "martini"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("p_N", "p_S", "p_W", "p_E"):
            assert f"# landmark {name} " in out
        assert "# p_c " in out
        assert parse_instance(out).n == 14


class TestValidate:
    def test_reports_counts_and_certificates(self, e1_file, capsys):
        assert main(["validate", e1_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "points 4" in out and "purple 2" in out
        assert "collinear yes" in out and "concyclic no" in out
        assert "distance_ties" in out


class TestRender:
    def test_e1_elements(self, e1_file, tmp_path, capsys):
        # [TRIVIAL: 4 point circles, 3 solution strokes]
        sol_path = tmp_path / "sol.txt"
        assert main(["solve", e1_file, "--algo", "exact",
                     "--out", str(sol_path)]) == EXIT_OK
        assert main(["render", e1_file, "--solution", str(sol_path)]) == EXIT_OK
        svg = capsys.readouterr().out
        assert svg.count("<circle") == 4
        assert svg.count("<line") == 3

    def test_deterministic_bytes(self, e1_file, capsys):
        # [TRIVIAL: determinism]
        assert main(["render", e1_file]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["render", e1_file]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_unknown_edge_id_exits_2(self, e1_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 99\n")
        assert main(["render", e1_file, "--solution", str(bad)]) == EXIT_PRECONDITION


def test_render_svg_direct():
    svg = render_svg(e1())
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 4
