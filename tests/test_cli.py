"""Command-line interface: subcommands, exit codes, and output formats."""

import pytest

from rbpspan.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)
from rbpspan import circle, cli
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
        path.write_text("P 0 0\nP 10 0\nR 4 1e-12\nB 6 0\n")
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
