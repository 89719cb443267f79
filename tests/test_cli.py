"""Command-line interface: subcommands, exit codes, and output formats."""

import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rbpspan
from rbpspan.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    build_parser,
    main,
)
from rbpspan import circle, cli, line
from rbpspan.circle import fit_circle
from rbpspan.generators import gen_random
from rbpspan.model import (
    Instance,
    PreconditionError,
    make_edge_set,
    parse_instance,
    serialize_instance,
)
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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("algo", ["auto", "line", "circle"])
    def test_bad_tolerance_exits_1(self, tmp_path, capsys, algo, tolerance):
        # A nan tolerance would let the line solver accept plane input.
        path = _auto_input(tmp_path, "plane-18")
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--algo", algo, "--tolerance", tolerance])
        assert exc.value.code == EXIT_USAGE
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["auto", "exact", "line", "approx-a", "approx-union",
                                      "oracle-forest", "oracle-subsets"])
    @pytest.mark.parametrize("text", [
        # Each edge length is finite, but the lengths sum past the float range.
        "P 0 0\nP 1e308 0\nP -1e308 0\n",
        # Collinear on the diagonal: each axis spread is finite, but the edge
        # 0-1 is longer than the float range, so its length is inf.
        "P 0 0\nP 1.5e308 1.5e308\nR 1.4e308 1.4e308\nB 1e307 1e307\n",
        # Every spanning tree takes two edges of length inf.
        "P -1.5e308 -1.5e308\nP 0 0\nP 1.5e308 1.5e308\n",
    ], ids=["sum", "edge", "two-edges"])
    def test_weight_past_the_float_range_exits_2(self, tmp_path, capsys, text, algo):
        # A numpy overflow warning on the way fails the test (pytest's filterwarnings).
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["solve", str(path), "--algo", algo]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "float range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("algo", ["auto", "exact", "approx-a", "approx-union"])
    def test_many_pairs_past_the_float_range_exit_2(self, tmp_path, capsys, algo):
        # More than _FIRST_BLOCK admitted pairs with a bounding box past the float
        # range: the grid's spread and the cut points meet inf lengths.
        rng = random.Random(32)
        lines = [f"P {rng.random()!r} {rng.random()!r}" for _ in range(60)]
        lines += ["P -1.5e308 -1.5e308", "P 1.5e308 1.5e308", "R 0.5 0.5"]
        path = tmp_path / "huge.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(path), "--algo", algo]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "float range" in captured.err
        assert captured.out == ""

    def test_unknown_algo_exits_1(self, e1_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", e1_file, "--algo", "bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_parser_is_built_once_and_errors_go_to_the_current_stderr(self, e1_file,
                                                                      capsys, monkeypatch):
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["solve", e1_file]) == EXIT_OK
            capsys.readouterr()
            for stream in (io.StringIO(), io.StringIO()):
                monkeypatch.setattr(sys, "stderr", stream)
                with pytest.raises(SystemExit) as exc:
                    main(["solve", e1_file, "--algo", "bogus"])
                assert exc.value.code == EXIT_USAGE
                assert "invalid choice: 'bogus'" in stream.getvalue()
        finally:
            cli._parser.cache_clear()
        assert builds == [1]

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

    @pytest.mark.parametrize("text, ties", [
        ("P -1.5e308 -1.5e308\nP 0 0\nP 1.5e308 1.5e308\nR 1.5e308 -1.5e308\nB 0 1\n", 0),
        ("P 0 0\n", 0),
    ], ids=["inf_lengths", "one_point"])
    def test_distance_ties(self, tmp_path, capsys, text, ties):
        # [DERIVED: no length ties an inf one, and one point has no pair]
        path = tmp_path / "inst.txt"
        path.write_text(text)
        assert main(["validate", str(path)]) == EXIT_OK
        assert f"distance_ties {ties}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e200])
    def test_circle_at_extreme_scale_is_concyclic(self, tmp_path, capsys, scale):
        inst = gen_random(40, 0.4, 0.4, "circle", seed=7)
        path = tmp_path / "scaled.txt"
        path.write_text(serialize_instance(Instance(inst.xs * scale, inst.ys * scale, inst.colors)))
        assert main(["validate", str(path)]) == EXIT_OK
        assert "concyclic yes" in capsys.readouterr().out


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

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_non_positive_size_exits_1(self, e1_file, capsys, size):
        with pytest.raises(SystemExit) as exc:
            main(["render", e1_file, "--size", size])
        assert exc.value.code == EXIT_USAGE
        assert "--size" in capsys.readouterr().err

    def test_unknown_edge_id_exits_2(self, e1_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 99\n")
        assert main(["render", e1_file, "--solution", str(bad)]) == EXIT_PRECONDITION

    def test_red_blue_edge_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "rbp.txt"
        inst.write_text("R 0 0\nB 1 0\nP 0 1\n")
        sol = tmp_path / "sol.txt"
        sol.write_text("0 1\n")
        assert main(["render", str(inst), "--solution", str(sol)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_red_blue_error_names_the_shortest_such_edge(self, tmp_path, capsys):
        # [DERIVED: edges are checked in (length, u, v) order, not in file order]
        inst = tmp_path / "rbp.txt"
        inst.write_text("R 0 0\nB 1 0\nP 0 1\nB 0 3\nR 5 0\n")
        sol = tmp_path / "sol.txt"
        sol.write_text("4 1\n0 2\n3 0\n")
        assert main(["render", str(inst), "--solution", str(sol)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == "error: edge (0, 3) joins a red and a blue point\n"

    @pytest.mark.parametrize("text", ["0 1\n0 2 x\n1 3\n", "0 1\n\n1 3\nweight 18\n"])
    def test_malformed_edge_line_exits_2(self, e1_file, tmp_path, capsys, text):
        # Every edge line is read or rejected; only the stats block after the blank line is skipped.
        sol = tmp_path / "sol.txt"
        sol.write_text(text)
        assert main(["render", e1_file, "--solution", str(sol)]) == EXIT_PRECONDITION
        assert "solution line" in capsys.readouterr().err

    def test_blank_line_between_edges_is_skipped(self, e1_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("0 1\n\n# attachments\n0 2\n1 3\n\nweight 18\nsolver exact\n")
        assert main(["render", e1_file, "--solution", str(sol)]) == EXIT_OK
        assert capsys.readouterr().out.count("<line") == 3

    def test_missing_solution_file_exits_2(self, e1_file, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["render", e1_file, "--solution", str(missing)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith("error: cannot read")


class TestBench:
    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_non_positive_reps_exits_1(self, capsys, reps):
        # --reps 0 would leave the median of no samples to compute.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--target", "line", "--reps", reps])
        assert exc.value.code == EXIT_USAGE
        assert "--reps" in capsys.readouterr().err

    def test_circle_target_prints_tables_and_end_to_end(self, capsys):
        assert main(["bench", "--target", "circle", "--reps", "1"]) == EXIT_OK
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[:2] for row in rows] == [["circle", "100"], ["circle", "200"],
                                             ["circle_e2e", "100"], ["circle_e2e", "200"]]
        assert all(float(row[2]) > 0.0 for row in rows)


def test_render_svg_direct():
    svg = render_svg(e1())
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 4


def test_render_svg_rejects_a_red_blue_edge():
    inst = parse_instance("R 0 0\nB 1 0\nP 0 1\n")
    with pytest.raises(PreconditionError, match=r"^edge \(0, 1\) joins a red and a blue point$"):
        render_svg(inst, make_edge_set(inst, [(0, 1)]))


@pytest.mark.parametrize("drawn_n, edges_n", [(10, 30), (40, 10)])
def test_render_svg_rejects_an_edge_set_of_another_instance(drawn_n, edges_n):
    # More points would index past the drawn ones; fewer would draw wrong edges.
    edges_on = gen_random(edges_n, 0.4, 0.4, seed=1)
    edge_set = make_edge_set(edges_on, [(i, i + 1) for i in range(edges_n - 1)
                                        if edges_on.colors[i] + edges_on.colors[i + 1] != 1])
    with pytest.raises(PreconditionError, match=r"^edge set is on another instance$"):
        render_svg(gen_random(drawn_n, 0.4, 0.4, seed=1), edge_set)


def test_readme_cli_lists_every_flag():
    # Each subcommand's usage line(s) in the README's CLI block, continuation lines included.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usage = {}
    for text in block.splitlines():
        if text.startswith("rbpspan "):
            name = text.split()[1]
            usage[name] = ""
        usage[name] += text + "\n"
    subparsers = next(a for a in build_parser()._actions if a.choices and a.dest == "subcommand")
    assert sorted(usage) == sorted(subparsers.choices)
    for name, parser in subparsers.choices.items():
        flags = [f for a in parser._actions for f in a.option_strings if f.startswith("--")]
        missing = [f for f in flags if f != "--help"
                   and not re.search(re.escape(f) + r"(?![\w-])", usage[name])]
        assert not missing, (name, missing)


def test_render_svg_of_a_span_beyond_the_float_range():
    # [DERIVED: the drawing is scale-free, so a power-of-two copy draws the same bytes]
    inst = parse_instance("P -1.7e308 0\nR 1.7e308 1\nB 0 -1.7e308\n")
    svg = render_svg(inst, make_edge_set(inst, [(0, 1)]))
    assert "nan" not in svg and "inf" not in svg
    small = Instance(inst.xs * 2.0 ** -20, inst.ys * 2.0 ** -20, inst.colors)
    assert svg == render_svg(small, make_edge_set(small, [(0, 1)]))


@pytest.mark.parametrize("n, solver", [(12, "exact"), (30, "approx-a")])
def test_auto_solve_imports_neither_scipy_nor_networkx(tmp_path, n, solver):
    # The solve path depends on numpy alone: `import scipy.spatial` by itself
    # would add tens of MB of resident memory to every solve.
    instance = tmp_path / "plane.txt"
    instance.write_text(serialize_instance(gen_random(n, 0.4, 0.4, seed=5)))
    out = tmp_path / "out.txt"
    script = ("import sys; from rbpspan.cli import main; "
              f"code = main(['solve', {str(instance)!r}, '--algo', 'auto', '--out', {str(out)!r}]); "
              "print(code, sorted(m for m in ('scipy', 'networkx') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(rbpspan.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "0 []"
    assert f"solver {solver}" in out.read_text()


@pytest.mark.parametrize("n, mode, solver", [(40, "plane", "approx-a"), (30, "line", "line"),
                                             (30, "circle", "circle"), (12, "plane", "exact")])
def test_auto_solve_output_is_repeatable(tmp_path, capsys, n, mode, solver):
    # Each shape reaches its solver, and a second solve of the same file prints the same bytes.
    path = tmp_path / "in.txt"
    path.write_text(serialize_instance(gen_random(n, 0.4, 0.4, mode=mode, seed=7)))
    assert main(["solve", str(path), "--algo", "auto"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert f"solver {solver}\n" in expected
    assert main(["solve", str(path), "--algo", "auto"]) == EXIT_OK
    assert capsys.readouterr().out == expected
