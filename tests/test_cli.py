"""Command-line parsing, experiment drivers, and exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curvem.analysis
import curvem.cli
from curvem import (ConvergenceReport, ConvergenceRow, build_annulus_interface_mesh,
                    build_mapped_tensor_mesh, export_mesh, fit_rates, straighten_mesh)
from curvem import test1_boundary_curves as boundary_curves
from curvem.cli import (
    EXIT_CONFIG,
    EXIT_MESH,
    EXIT_OK,
    EXIT_THRESHOLD,
    EXPERIMENTS,
    PATCH_TOL,
    ConfigError,
    RunConfig,
    _build_parser,
    main,
    parse_config,
)

from _oracles import EXACT_SOLVE_RTOL, RECORDED, recorded_rows


def config_for(argv):
    return parse_config(_build_parser().parse_args(argv))


def experiment_parsers():
    """Each experiment's parser, as ``curvem run`` holds them."""
    run_parser = _build_parser()._subparsers._group_actions[0].choices["run"]
    return run_parser._subparsers._group_actions[0].choices


def usage(experiment):
    return experiment_parsers()[experiment].format_usage()


def flag(name):
    return "--" + name.replace("_", "-")


CONVERGENCE_READS = ("k", "n", "mesh", "rho", "solver", "out")
READS = {"test1-curved": CONVERGENCE_READS, "test1-straight": CONVERGENCE_READS,
         "test2": CONVERGENCE_READS, "patch": ("k", "n", "solver", "out")}

# every option: flag arguments that set it, and the value they give,
# which no experiment has as its default
SAMPLES = {"k": (["2,3"], (2, 3)), "n": (["4,8"], (4, 8)),
           "mesh": (["a.txt", "b.txt"], ("a.txt", "b.txt")), "rho": (["0.1"], 0.1),
           "solver": (["direct"], "direct"),
           "out": (["results"], "results")}
# the RunConfig field of each option whose name is not the field's
FIELDS = {"k": "k_list", "n": "n_list", "mesh": "mesh_files", "out": "out_dir"}


def test_defaults_per_experiment():
    cfg = config_for(["run", "test1-curved"])
    assert cfg.n_list == (4, 8, 16, 32)
    assert cfg.k_list == (1, 2, 3)
    assert cfg.rho == 0.05
    assert cfg.solver == "cg"
    cfg = config_for(["run", "test2"])
    assert cfg.n_list == (2, 4, 8, 16)
    assert cfg.rho == 0.03
    cfg = config_for(["run", "patch"])
    assert cfg.solver == "direct"
    assert cfg.n_list == (2,)


def test_flag_overrides():
    cfg = config_for(["run", "test1-curved", "--k", "2,3", "--n", "4,8",
                      "--rho", "0.1", "--solver", "direct", "--out", "results"])
    assert cfg.k_list == (2, 3)
    assert cfg.n_list == (4, 8)
    assert cfg.rho == 0.1
    assert cfg.solver == "direct"
    assert cfg.out_dir == "results"


def test_each_experiment_reads_exactly_its_options():
    assert set(SAMPLES) == {name for names in READS.values() for name in names}
    assert {experiment: tuple(action.option_strings[0] for action in parser._actions
                              if action.dest != "help")
            for experiment, parser in experiment_parsers().items()} == {
        experiment: tuple(map(flag, names)) for experiment, names in READS.items()}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_experiment_help_lists_exactly_its_options(capsys, experiment):
    with pytest.raises(SystemExit) as exc:
        main(["run", experiment, "--help"])
    assert exc.value.code == EXIT_OK
    listed = re.findall(r"^ {2}(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == ["--help", *map(flag, READS[experiment])]


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment, names in READS.items() for name in names])
def test_flag_and_file_key_give_the_same_config(experiment, name):
    tokens, value = SAMPLES[name]
    assert config_for(["run", experiment, flag(name), *tokens]) == replace(
        config_for(["run", experiment]), **{FIELDS.get(name, name): value})


# retired options, which no experiment reads: those of the former
# quadrature-audit experiment, the rate thresholds of the convergence
# experiments, whose rates the acceptance suite judges, and the quadrature
# boost and CG tolerance, which are fixed
RETIRED = {"seed": ["7"], "trials": ["3"], "M": ["1,2"], "min_rate_h1": ["1.5"],
           "min_rate_l2": ["2.5"], "max_rate_h1": ["3.5"], "max_rate_l2": ["4.5"],
           "boost": ["2"], "tol": ["2"]}


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment, names in READS.items()
    for name in [*SAMPLES, *RETIRED] if name not in names])
def test_every_experiment_rejects_the_options_it_does_not_read(tmp_path, capsys,
                                                               experiment, name):
    out = tmp_path / "out"
    tokens = SAMPLES[name][0] if name in SAMPLES else RETIRED[name]
    assert main(["run", experiment, flag(name), *tokens, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    # the experiment's usage line lists what it reads
    assert err == (f"config error: unrecognized arguments: {' '.join([flag(name), *tokens])}\n"
                   f"{usage(experiment)}")
    assert all(flag(read) in err for read in READS[experiment])
    assert not out.exists()


# (test id, argv, how the message starts); each argvN case keeps the test
# id it had when the messages were worded by hand
INVALID_OPTIONS = [
    ("argv0-unknown experiment", ["run", "nothing"],
     "argument experiment: invalid choice: 'nothing'"),
    ("argv1-k must lie in 1..4", ["run", "patch", "--k", "0"],
     "argument --k: must lie in 1..4, each once, got (0,)"),
    ("argv2-k must lie in 1..4", ["run", "patch", "--k", "5"],
     "argument --k: must lie in 1..4, each once, got (5,)"),
    ("argv3-bad k list", ["run", "patch", "--k", "two"],
     "argument --k: not a comma-separated list of integers: 'two'"),
    ("argv4-n must be positive", ["run", "patch", "--n", "0"],
     "argument --n: must be at least 1, each once, got (0,)"),
    ("argv5-empty n list", ["run", "patch", "--n", ","],
     "argument --n: must be at least 1, each once, got ()"),
    ("argv6-solver must be", ["run", "patch", "--solver", "lu"],
     "argument --solver: invalid choice: 'lu'"),
    ("argv7-rho must lie in", ["run", "test1-curved", "--rho", "0"],
     "argument --rho: must lie in (0, 0.5], got 0.0"),
    ("argv9-rho must lie in", ["run", "test1-curved", "--rho", "0.6"],
     "argument --rho: must lie in (0, 0.5], got 0.6"),
    ("rho-not-a-number", ["run", "test2", "--rho", "fast"],
     "argument --rho: not a number: 'fast'"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=case) for case, argv, message in INVALID_OPTIONS])
def test_invalid_options_are_rejected(argv, message):
    with pytest.raises(ConfigError) as err:
        config_for(argv)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("experiment, name, text, message", [
    ("test2", "n", "1,2", "must be at least 2, each once, got (1, 2)"),
    ("test1-curved", "k", "1,1", "must lie in 1..4, each once, got (1, 1)"),
    ("patch", "k", "2,3,2", "must lie in 1..4, each once, got (2, 3, 2)"),
    ("test1-curved", "n", "4,8,4", "must be at least 1, each once, got (4, 8, 4)"),
], ids=["test2-n", "test1-curved-k", "patch-k", "test1-curved-n"])
def test_levels_the_experiment_cannot_solve_exit_2(tmp_path, capsys, monkeypatch,
                                                   experiment, name, text, message):
    # a level below what the mesh generator takes, or a degree or a level
    # given twice
    monkeypatch.setattr(curvem.cli, "run", lambda config: pytest.fail("the run started"))
    out = tmp_path / "out"
    assert main(["run", experiment, flag(name), text, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: argument {flag(name)}: {message}\n{usage(experiment)}")
    assert not out.exists()
    # only test2's meshes need two levels
    assert config_for(["run", "test1-curved", "--n", "1,2"]).n_list == (1, 2)


def test_main_maps_config_errors_to_exit_2(capsys):
    assert main(["run", "bogus-experiment"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--k", "2", "patch"], ["run", "--out", "{out}", "patch"],
    ["run", "patch", "--ou", "{out}"],
], ids=["flag-before-experiment", "out-before-experiment", "abbreviated-out"])
def test_flags_before_the_experiment_or_abbreviated_exit_2(tmp_path, capsys, monkeypatch,
                                                            argv):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


def test_main_patch_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "patch", "--k", "1,2", "--out", str(out)]) == EXIT_OK
    csv = (out / "patch.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "k,n,max_rel_dof_err,status"
    assert csv.count("pass") == 2
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "patch test k=1" in summary and "patch test k=2" in summary
    assert "patch test k=1" in capsys.readouterr().out


def test_python_dash_m_runs_the_package_entry_point(tmp_path):
    # main() in-process never executes curvem/__main__.py; a fresh interpreter does
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def curvem(*argv):
        return subprocess.run([sys.executable, "-m", "curvem", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    rejected = curvem("run", "patch", "--k", "5")
    assert rejected.returncode == EXIT_CONFIG
    assert "config error: argument --k: must lie in 1..4" in rejected.stderr
    assert not (tmp_path / "curvem-out").exists()
    ran = curvem("run", "patch", "--k", "1,2", "--out", str(tmp_path / "out"))
    assert ran.returncode == EXIT_OK, ran.stderr
    rows = (tmp_path / "out" / "patch.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


def test_main_patch_run_covers_every_level(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "patch", "--n", "2,4", "--k", "1", "--out", str(out)]) == EXIT_OK
    rows = (out / "patch.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1", "2"], ["1", "4"]]
    assert all(row.endswith(",pass") for row in rows)
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "k=1 (n=2)" in summary and "k=1 (n=4)" in summary


def test_main_patch_level_above_tolerance_exits_1(tmp_path, capsys, monkeypatch):
    # the one exit-1 path: a patch level whose error exceeds PATCH_TOL
    def errors(ks, ns, solver_method):
        yield from (0.0, 10 * PATCH_TOL)

    monkeypatch.setattr(curvem.cli, "run_patch_test", errors)
    out = tmp_path / "out"
    assert main(["run", "patch", "--k", "1,2", "--out", str(out)]) == EXIT_THRESHOLD
    rows = (out / "patch.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["pass", "FAIL"]
    assert "patch test k=2 (n=2): max relative dof error 1.000e-08 -> FAIL" in \
        capsys.readouterr().out


def test_main_runs_are_byte_identical(tmp_path, capsys):
    args = ["run", "test1-curved", "--k", "1", "--n", "4,8"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    a = (tmp_path / "a" / "test1-curved_k1.csv").read_bytes()
    b = (tmp_path / "b" / "test1-curved_k1.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "summary.txt").read_bytes() == \
        (tmp_path / "b" / "summary.txt").read_bytes()


def test_main_accepts_mesh_files(tmp_path, capsys):
    files = []
    for n in (4, 8):
        path = tmp_path / f"mesh{n}.txt"
        export_mesh(build_mapped_tensor_mesh(n, *boundary_curves()), path)
        files.append(str(path))
    out = tmp_path / "out"
    code = main(["run", "test1-curved", "--k", "1", "--mesh", *files,
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "test1-curved_k1.csv").exists()
    capsys.readouterr()


def test_main_bad_mesh_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("curvem-mesh 1\ncounts x 0 0 0\n", encoding="utf-8")
    assert main(["run", "test1-curved", "--mesh", str(bad),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err
    assert main(["run", "test1-curved", "--mesh", str(tmp_path / "none.txt"),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "cannot read input" in capsys.readouterr().err


def test_main_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["run", "patch", "--k", "1", "--out", str(blocker / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write output" in err and "cannot read input" not in err
    # a directory where an output file belongs
    (tmp_path / "out" / "summary.txt").mkdir(parents=True)
    assert main(["run", "patch", "--k", "1", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [["--n", "4"], ["--mesh", "one"]], ids=["n", "mesh"])
def test_main_one_level_run_exits_2_before_solving(tmp_path, capsys, monkeypatch, levels):
    if levels[0] == "--mesh":
        levels = ["--mesh", str(tmp_path / "mesh4.txt")]
        export_mesh(build_mapped_tensor_mesh(4, *boundary_curves()), levels[1])
    monkeypatch.setattr(curvem.cli, "run_convergence", None)  # any solve would fail
    out = tmp_path / "out"
    assert main(["run", "test1-curved", *levels, "--out", str(out)]) == EXIT_CONFIG
    assert "at least two meshes, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--mesh", "a.txt", "b.txt", "--n", "4,8"], "argument --n: not allowed with argument --mesh"),
    (["--n", "4,8", "--mesh", "a.txt", "b.txt"], "argument --mesh: not allowed with argument --n"),
], ids=["flags", "n-first"])
def test_mesh_and_n_are_not_given_together(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["run", "test1-curved", *flags, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n{usage('test1-curved')}"
    assert not out.exists()
    # an experiment's own default levels are not given
    assert config_for(["run", "test2", "--mesh", "a.txt", "b.txt"]).mesh_files == \
        ("a.txt", "b.txt")


def test_mesh_files_of_equal_size_exit_2(tmp_path, capsys, monkeypatch):
    # equal sizes leave the rates undetermined
    a, b, c = (str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt"))
    for path, n in ((a, 4), (b, 8), (c, 4)):
        export_mesh(build_mapped_tensor_mesh(n, *boundary_curves()), path)
    monkeypatch.setattr(curvem.cli, "_validate_meshes",
                        lambda *args: pytest.fail("the meshes were validated"))
    # two files of one mesh, and one file given twice
    for given, first, second in (([a, b, c], a, c), ([b, b], b, b)):
        out = tmp_path / "out"
        assert main(["run", "test1-curved", "--mesh", *given, "--out", str(out)]) == EXIT_CONFIG
        h = curvem.import_mesh(second).h
        assert capsys.readouterr().err == (
            f"config error: {first} and {second} both have h = {h!r}; "
            "rates need meshes of distinct sizes\n")
        assert not out.exists()


def test_main_straight_run_straightens_each_mesh_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(mesh):
        calls.append(mesh)
        return straighten_mesh(mesh)

    monkeypatch.setattr(curvem.cli, "straighten_mesh", counting)
    monkeypatch.setattr(curvem.analysis, "straighten_mesh", counting)
    assert main(["run", "test1-straight", "--k", "1,2", "--n", "4,8",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 2


THIN_QUAD = (
    "curvem-mesh 1\n"
    "counts 4 0 4 1\n"
    "v 0 0\n"
    "v 1 0\n"
    "v 1 1\n"
    "v 0 1e-7\n"
    "e 0 1\ne 1 2\ne 2 3\ne 3 0\n"
    "p 4 1 2 3 4\nlabel 1\n")


def test_main_non_finite_mesh_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text(THIN_QUAD.replace("v 1 1", "v 1 nan"), encoding="utf-8")
    assert main(["validate", str(path), "--rho", "0.05"]) == EXIT_CONFIG
    assert "line 5: non-finite coordinate" in capsys.readouterr().err


def test_validate_label_outside_64_bits_exits_2(tmp_path, capsys):
    path = tmp_path / "label.txt"
    path.write_text(THIN_QUAD.replace("label 1", "label 99999999999999999999"),
                    encoding="utf-8")
    assert main(["validate", str(path), "--rho", "0.05"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("mesh file error: line 12: label "
                                       "'99999999999999999999' does not fit in 64 bits\n")


@pytest.mark.parametrize("argv, message", [
    (["validate", "{bad}", "--rho", "0.1"], "mesh file error: {bad}: not UTF-8 text at byte "),
    (["run", "test1-curved", "--mesh", "{bad}", "{bad}", "--out", "{out}"],
     "mesh file error: {bad}: not UTF-8 text at byte "),
], ids=["validate", "run-mesh"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, argv, message):
    bad, out = tmp_path / "bad.bin", tmp_path / "out"
    bad.write_bytes(np.random.default_rng(0).bytes(200))
    assert main([arg.format(bad=bad, out=out) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(bad=bad))
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_main_quality_failure_exits_3(tmp_path, capsys):
    path = tmp_path / "thin.txt"
    path.write_text(THIN_QUAD, encoding="utf-8")
    fine = tmp_path / "fine.txt"
    export_mesh(build_mapped_tensor_mesh(4, *boundary_curves()), fine)
    code = main(["run", "test1-curved", "--k", "1", "--mesh", str(path),
                 str(fine), "--out", str(tmp_path / "out")])
    assert code == EXIT_MESH
    assert "elements below rho" in capsys.readouterr().err


def test_main_label_without_problem_data_exits_3(tmp_path, capsys):
    mesh = build_annulus_interface_mesh(2, 8)
    mesh.labels[0] = 3
    path = tmp_path / "label3.txt"
    export_mesh(mesh, path)
    fine = tmp_path / "fine.txt"
    export_mesh(build_annulus_interface_mesh(2, 16), fine)
    code = main(["run", "test2", "--k", "1", "--mesh", str(path), str(fine),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_MESH
    assert "mesh error: no diffusion value for label 3" in capsys.readouterr().err


def test_vertex_on_no_edge_exits_3(tmp_path, capsys):
    # the extra vertex would be an interior DoF that no element touches
    path = tmp_path / "lone.txt"
    path.write_text(THIN_QUAD.replace("counts 4", "counts 5").replace(
        "v 0 1e-7\n", "v 0 1e-7\nv 0.5 0.5\n"), encoding="utf-8")
    fine = tmp_path / "fine.txt"
    export_mesh(build_mapped_tensor_mesh(4, *boundary_curves()), fine)
    message = "mesh error: vertex 4: on no edge\n"
    assert main(["validate", str(path), "--rho", "0.05"]) == EXIT_MESH
    assert capsys.readouterr().err == message
    out = tmp_path / "out"
    assert main(["run", "test1-curved", "--k", "1", "--mesh", str(path), str(fine),
                 "--out", str(out)]) == EXIT_MESH
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_main_direct_patch_run_on_a_fine_mesh(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "patch", "--k", "2", "--n", "24", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "patch.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["2", "24"]]
    assert all(float(row.split(",")[2]) <= PATCH_TOL for row in rows)


def test_main_direct_run_matches_the_recorded_cg_errors_and_rates(tmp_path, capsys):
    # k = 2: at k = 3, n = 32 the recorded CG row is itself 4.5e-9 from an
    # exact solve, beyond EXACT_SOLVE_RTOL; n = 32 has 3969 unknowns
    out = tmp_path / "out"
    assert main(["run", "test1-curved", "--solver", "direct", "--k", "2", "--n", "16,32",
                 "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    recorded = recorded_rows("test1-curved", 2, (16, 32))
    rows = (out / "test1-curved_k2.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == len(recorded)
    for row, want in zip(rows, recorded):
        n, h, n_dof, err_h1, err_l2 = row.split(",")[:5]
        assert (int(n), float(h), int(n_dof)) == (want["n"], want["h"], want["n_dof"])
        assert float(err_h1) == pytest.approx(want["err_h1"], rel=EXACT_SOLVE_RTOL, abs=0)
        assert float(err_l2) == pytest.approx(want["err_l2"], rel=EXACT_SOLVE_RTOL, abs=0)
    fit = fit_rates(ConvergenceReport("test1", 2, [ConvergenceRow(
        row["n"], row["h"], row["n_dof"], row["err_h1"], row["err_l2"]) for row in recorded]))
    assert (f"  last-interval rates: H1 {fit.last_h1:.3f}, L2 {fit.last_l2:.3f}; "
            f"least-squares: H1 {fit.lsq_h1:.3f}, L2 {fit.lsq_l2:.3f}\n") in stdout


def test_main_direct_runs_at_defaults_leave_one_recorded_row_off_the_exact_solve(
        tmp_path, capsys):
    # every recorded error against an exact solve of its system; the one
    # known miss is CG stopping short at test1's finest k = 3 level (4.5e-9
    # there, 4.9e-10 at the next worst row), so a new miss fails here and a
    # re-pin that lands the recorded rows on the exact solve empties the set
    misses = set()
    for experiment, recorded in json.loads(RECORDED.read_text(encoding="utf-8"))["cli"].items():
        out = tmp_path / experiment
        assert main(["run", experiment, "--solver", "direct", "--out", str(out)]) == EXIT_OK
        rows = {}
        for k in sorted({want["k"] for want in recorded}):
            lines = (out / f"{experiment}_k{k}.csv").read_text(encoding="utf-8").splitlines()
            for fields in (line.split(",") for line in lines[1:]):
                rows[k, int(fields[0])] = fields
        assert sorted(rows) == sorted((want["k"], want["n"]) for want in recorded)
        for want in recorded:
            for column, field in (("err_h1", 3), ("err_l2", 4)):
                got = float(rows[want["k"], want["n"]][field])
                if got != pytest.approx(want[column], rel=EXACT_SOLVE_RTOL, abs=0):
                    misses.add((experiment, want["k"], want["n"], column))
    capsys.readouterr()
    assert misses == {("test1-curved", 3, 32, "err_l2")}


def test_main_runs_at_degree_4(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "test1-curved", "--k", "4", "--n", "2,4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "test1-curved_k4.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "4"]
    assert "\nk = 4\n" in (out / "summary.txt").read_text(encoding="utf-8")


def test_validate_subcommand(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    export_mesh(build_mapped_tensor_mesh(4, *boundary_curves()), path)
    assert main(["validate", str(path), "--rho", "0.05"]) == EXIT_OK
    assert "mesh quality: pass" in capsys.readouterr().out
    assert main(["validate", str(path), "--rho", "0.3"]) == EXIT_MESH
    assert "mesh quality: FAIL" in capsys.readouterr().out
    assert main(["validate", str(path), "--rho", "0.9"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "none.txt"),
                 "--rho", "0.05"]) == EXIT_CONFIG
    assert "cannot read input" in capsys.readouterr().err
    # only ``run`` turns an unknown flag into a config error
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(path), "--rho", "0.05", "--tol", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --tol 2" in capsys.readouterr().err


def test_validate_mesh_whose_geometry_overflows_exits_3(tmp_path, capsys):
    # one interior vertex of the test1 n = 2 mesh moved to x = 1e308: the
    # report is one line, with no numpy overflow warning before it
    mesh = build_mapped_tensor_mesh(2, *boundary_curves())
    path = tmp_path / "far.txt"
    export_mesh(mesh, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    vertex = int(np.flatnonzero(~mesh.vertex_on_boundary)[0])
    at = [i for i, line in enumerate(lines) if line.startswith("v ")][vertex]
    lines[at] = "v 1e308 0.5\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["validate", str(path), "--rho", "0.05"]) == EXIT_MESH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mesh error: element ")
    assert captured.err.count("\n") == 1


def test_validate_empty_mesh_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("curvem-mesh 1\ncounts 0 0 0 0\n", encoding="utf-8")
    assert main(["validate", str(path), "--rho", "0.05"]) == EXIT_MESH
    assert "mesh error: mesh has no elements" in capsys.readouterr().err


# stdout of `curvem validate` on the test2 n=4 mesh; only the first 20 bad
# elements are listed
VALIDATE_TEST2_N4_RHO_0_3 = """\
{path}: 120 elements, worst edge ratio 0.3204, worst star ratio 0.1795 (rho = 0.3)
88 of 120 elements below rho
element 0: edge ratio 0.3902, star ratio 0.2753
element 1: edge ratio 0.3902, star ratio 0.2753
element 2: edge ratio 0.3902, star ratio 0.2753
element 3: edge ratio 0.3902, star ratio 0.2753
element 4: edge ratio 0.3902, star ratio 0.2753
element 5: edge ratio 0.3902, star ratio 0.2753
element 6: edge ratio 0.3902, star ratio 0.2753
element 7: edge ratio 0.3902, star ratio 0.2753
element 8: edge ratio 0.3416, star ratio 0.2804
element 9: edge ratio 0.3416, star ratio 0.2804
element 10: edge ratio 0.3416, star ratio 0.2804
element 11: edge ratio 0.3416, star ratio 0.2804
element 12: edge ratio 0.3416, star ratio 0.2804
element 13: edge ratio 0.3416, star ratio 0.2804
element 14: edge ratio 0.3416, star ratio 0.2804
element 15: edge ratio 0.3416, star ratio 0.2804
element 16: edge ratio 0.3416, star ratio 0.2804
element 17: edge ratio 0.3416, star ratio 0.2804
element 18: edge ratio 0.3416, star ratio 0.2804
element 19: edge ratio 0.3416, star ratio 0.2804
... 68 more not listed
mesh quality: FAIL
"""


def test_validate_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "test2_n4.txt"
    export_mesh(build_annulus_interface_mesh(4, 16), path)
    assert main(["validate", str(path), "--rho", "0.3"]) == EXIT_MESH
    assert capsys.readouterr().out == VALIDATE_TEST2_N4_RHO_0_3.format(path=path)
