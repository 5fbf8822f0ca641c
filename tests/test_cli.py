"""Command-line parsing, experiment drivers, and exit codes."""

from dataclasses import replace

import numpy as np
import pytest

import curvem.analysis
import curvem.cli
from curvem import (build_annulus_interface_mesh, build_mapped_tensor_mesh, export_mesh,
                    straighten_mesh)
from curvem import test1_boundary_curves as boundary_curves
from curvem.cli import (
    EXIT_CONFIG,
    EXIT_MESH,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_THRESHOLD,
    EXPERIMENTS,
    POLYGON_AUDIT_TOL,
    ConfigError,
    _build_parser,
    _OPTIONS,
    audit_polygon_exactness,
    main,
    monotone_within_floor,
    parse_config,
    random_star_polygon,
)

from _oracles import shoelace_area


def config_for(argv):
    return parse_config(_build_parser().parse_args(argv))


def flag(name):
    return "--" + name.replace("_", "-")


CONVERGENCE_READS = ("k", "n", "mesh", "rho", "solver", "out",
                     "min_rate_h1", "min_rate_l2", "max_rate_h1", "max_rate_l2")
READS = {"test1-curved": CONVERGENCE_READS, "test1-straight": CONVERGENCE_READS,
         "test2": CONVERGENCE_READS, "patch": ("k", "n", "solver", "out"),
         "quadrature-audit": ("out", "seed", "trials", "M")}

# every option: flag arguments that set it, and the value they give,
# which no experiment has as its default
SAMPLES = {"k": (["2,3"], (2, 3)), "n": (["4,8"], (4, 8)),
           "mesh": (["a.txt", "b.txt"], ("a.txt", "b.txt")), "rho": (["0.1"], 0.1),
           "solver": (["direct"], "direct"),
           "out": (["results"], "results"), "seed": (["7"], 7), "trials": (["3"], 3),
           "M": (["1,2"], (1, 2)), "min_rate_h1": (["1.5"], 1.5),
           "min_rate_l2": (["2.5"], 2.5), "max_rate_h1": (["3.5"], 3.5),
           "max_rate_l2": (["4.5"], 4.5)}


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
                      "--rho", "0.1", "--solver", "direct", "--out", "results",
                      "--min-rate-h1", "1.5", "--max-rate-l2", "3.5"])
    assert cfg.k_list == (2, 3)
    assert cfg.n_list == (4, 8)
    assert cfg.rho == 0.1
    assert cfg.solver == "direct"
    assert cfg.out_dir == "results"
    assert cfg.min_rate_h1 == 1.5
    assert cfg.max_rate_l2 == 3.5
    assert cfg.min_rate_l2 is None
    assert config_for(["run", "quadrature-audit", "--seed", "7"]).seed == 7


def test_config_file_with_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# study options\n"
        "k = 2,3\n"
        "n = 4,8   # two levels\n"
        "out = from-file\n",
        encoding="utf-8")
    cfg = config_for(["run", "test1-curved", "--config", str(cfg_file)])
    assert cfg.k_list == (2, 3)
    assert cfg.n_list == (4, 8)
    assert cfg.out_dir == "from-file"
    cfg = config_for(["run", "test1-curved", "--config", str(cfg_file),
                      "--k", "1", "--out", "from-flag"])
    assert cfg.k_list == (1,)
    assert cfg.out_dir == "from-flag"
    assert cfg.n_list == (4, 8)


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = 2\nmystery = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'mystery'") as err:
        config_for(["run", "patch", "--config", str(cfg_file)])
    assert f"{cfg_file}:2" in str(err.value)


def test_config_file_demands_assignments(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = 2\njust words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected 'key = value'") as err:
        config_for(["run", "patch", "--config", str(cfg_file)])
    assert ":2" in str(err.value)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        config_for(["run", "patch", "--config", "no/such/file.cfg"])


def test_config_file_value_errors_name_their_line(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n = 4,8\nk = two\n", encoding="utf-8")
    # a bad file value fails even where a flag overrides it
    with pytest.raises(ConfigError, match="bad k list 'two'") as err:
        config_for(["run", "patch", "--config", str(cfg_file), "--k", "1"])
    assert str(err.value).startswith(f"{cfg_file}:2: ")
    cfg_file.write_text("k = 1\nrho = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="patch does not read rho; "
                       "it reads k, n, solver, out$") as err:
        config_for(["run", "patch", "--config", str(cfg_file)])
    assert str(err.value).startswith(f"{cfg_file}:2: ")


def test_each_experiment_reads_exactly_its_options():
    assert set(SAMPLES) == set(_OPTIONS)
    assert {experiment: tuple(name for name, option in _OPTIONS.items()
                              if experiment in option.experiments)
            for experiment in EXPERIMENTS} == READS


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment, names in READS.items() for name in names])
def test_flag_and_file_key_give_the_same_config(tmp_path, experiment, name):
    tokens, value = SAMPLES[name]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {' '.join(tokens)}\n", encoding="utf-8")
    from_flag = config_for(["run", experiment, flag(name), *tokens])
    assert from_flag == config_for(["run", experiment, "--config", str(cfg_file)])
    assert from_flag == replace(config_for(["run", experiment]),
                                **{_OPTIONS[name].field: value})


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment, names in READS.items()
    for name in SAMPLES if name not in names])
def test_every_experiment_rejects_the_options_it_does_not_read(tmp_path, capsys,
                                                               experiment, name):
    out = tmp_path / "out"
    tokens, _ = SAMPLES[name]
    assert main(["run", experiment, flag(name), *tokens, "--out", str(out)]) == EXIT_CONFIG
    reads = ", ".join(map(flag, READS[experiment]))
    assert (f"config error: {experiment} does not read {flag(name)}; it reads {reads}\n"
            == capsys.readouterr().err)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {' '.join(tokens)}\n", encoding="utf-8")
    assert main(["run", experiment, "--config", str(cfg_file),
                 "--out", str(out)]) == EXIT_CONFIG
    assert f"{cfg_file}:1: {experiment} does not read {name};" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, fragment", [
    (["run", "nothing"], "unknown experiment"),
    (["run", "patch", "--k", "0"], "k must lie in 1..4"),
    (["run", "patch", "--k", "5"], "k must lie in 1..4"),
    (["run", "patch", "--k", "two"], "bad k list"),
    (["run", "patch", "--n", "0"], "n must be positive"),
    (["run", "patch", "--n", ","], "empty n list"),
    (["run", "patch", "--solver", "lu"], "solver must be"),
    (["run", "test1-curved", "--rho", "0"], "rho must lie in"),
    (["run", "test1-curved", "--min-rate-h1", "fast"], "bad min_rate_h1 value 'fast'"),
    (["run", "quadrature-audit", "--seed", "1.5"], "bad seed value"),
    (["run", "test1-curved", "--rho", "0.6"], "rho must lie in"),
    (["run", "quadrature-audit", "--trials", "0"], "trials must be at least 1"),
    (["run", "quadrature-audit", "--M", "0,2"], "M must be positive"),
    (["run", "quadrature-audit", "--M", "1,64", "--trials", "1"],
     "M=64 needs a 65-point Gauss rule, more than the 64 available"),
    (["run", "quadrature-audit", "--M", "70", "--trials", "1"],
     "M=70 needs a 71-point Gauss rule, more than the 64 available"),
    (["run", "quadrature-audit", "--seed", "-1"], "seed must be nonnegative"),
])
def test_invalid_options_are_rejected(argv, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_for(argv)


@pytest.mark.parametrize("experiment, name, text, message", [
    ("test2", "n", "1,2", "test2 needs {} levels of at least 2, got (1, 2)"),
    ("test1-curved", "k", "1,1", "{} must lie in 1..4, each once, got (1, 1)"),
    ("patch", "k", "2,3,2", "{} must lie in 1..4, each once, got (2, 3, 2)"),
], ids=["test2-n", "test1-curved-k", "patch-k"])
def test_levels_the_experiment_cannot_solve_exit_2(tmp_path, capsys, monkeypatch,
                                                   experiment, name, text, message):
    # a level below what the mesh generator takes, or a degree solved twice
    monkeypatch.setattr(curvem.cli, "run", lambda config: pytest.fail("the run started"))
    out = tmp_path / "out"
    assert main(["run", experiment, flag(name), text, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message.format(flag(name))}\n"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = {text}\n", encoding="utf-8")
    assert main(["run", experiment, "--config", str(cfg_file),
                 "--out", str(out)]) == EXIT_CONFIG
    assert (capsys.readouterr().err
            == f"config error: {cfg_file}:1: {message.format(name)}\n")
    assert not out.exists()
    # only test2's meshes need two levels
    assert config_for(["run", "test1-curved", "--n", "1,2"]).n_list == (1, 2)


def test_main_maps_config_errors_to_exit_2(capsys):
    assert main(["run", "bogus-experiment"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment in EXPERIMENTS for name in ("boost", "tol")])
def test_fixed_boost_and_tolerance_are_not_options(tmp_path, capsys, experiment, name):
    out = tmp_path / "out"
    assert main(["run", experiment, flag(name), "2", "--out", str(out)]) == EXIT_CONFIG
    reads = ", ".join(map(flag, READS[experiment]))
    assert (f"config error: {experiment} does not read --{name} 2; it reads {reads}\n"
            == capsys.readouterr().err)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{name} = 2\n", encoding="utf-8")
    assert main(["run", experiment, "--config", str(cfg_file),
                 "--out", str(out)]) == EXIT_CONFIG
    assert (f"config error: {cfg_file}:1: unknown key {name!r}\n"
            == capsys.readouterr().err)
    assert not out.exists()


def test_main_patch_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "patch", "--k", "1,2", "--out", str(out)]) == EXIT_OK
    csv = (out / "patch.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "k,n,max_rel_dof_err,status"
    assert csv.count("pass") == 2
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "patch test k=1" in summary and "patch test k=2" in summary
    assert "patch test k=1" in capsys.readouterr().out


def test_main_patch_run_covers_every_level(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "patch", "--n", "2,4", "--k", "1", "--out", str(out)]) == EXIT_OK
    rows = (out / "patch.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1", "2"], ["1", "4"]]
    assert all(row.endswith(",pass") for row in rows)
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "k=1 (n=2)" in summary and "k=1 (n=4)" in summary


def test_main_threshold_violation_exits_1(tmp_path, capsys):
    # two equal levels give NaN rates, which meet no bound
    for ns, flag, violation in (("4,8", "--min-rate-l2", "min_rate_l2=5.0 violated"),
                                ("4,4", "--min-rate-h1", "min_rate_h1=5.0 violated (nan)")):
        out = tmp_path / flag
        code = main(["run", "test1-curved", "--k", "1", "--n", ns,
                     flag, "5", "--out", str(out)])
        assert code == EXIT_THRESHOLD
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "threshold violations:" in summary
        assert violation in summary
        assert (out / "test1-curved_k1.csv").exists()
    capsys.readouterr()


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
    monkeypatch.setattr(curvem.cli, "_convergence_reports", None)  # any solve would fail
    out = tmp_path / "out"
    assert main(["run", "test1-curved", *levels, "--out", str(out)]) == EXIT_CONFIG
    assert "at least two meshes, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, lines, where, spelled", [
    (["--mesh", "a.txt", "b.txt", "--n", "4,8"], None, "", "--mesh or --n"),
    ([], "mesh = a.txt b.txt\nn = 4,8\n", "{cfg}:2: ", "mesh or n"),
    (["--mesh", "a.txt", "b.txt"], "n = 4,8\n", "", "--mesh or n"),
], ids=["flags", "file-keys", "file-key-and-flag"])
def test_mesh_and_n_are_not_given_together(tmp_path, capsys, flags, lines, where, spelled):
    cfg = tmp_path / "run.cfg"
    if lines is not None:
        cfg.write_text(lines, encoding="utf-8")
        flags = [*flags, "--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["run", "test1-curved", *flags, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {where.format(cfg=cfg)}test1-curved takes {spelled}, not both: "
        "the mesh files replace the generated levels\n")
    assert not out.exists()
    # an experiment's own default levels are not given
    assert config_for(["run", "test2", "--mesh", "a.txt", "b.txt"]).mesh_files == \
        ("a.txt", "b.txt")


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


def test_main_quality_failure_exits_3(tmp_path, capsys):
    path = tmp_path / "thin.txt"
    path.write_text(THIN_QUAD, encoding="utf-8")
    code = main(["run", "test1-curved", "--k", "1", "--mesh", str(path),
                 str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_MESH
    assert "elements below rho" in capsys.readouterr().err


def test_main_label_without_problem_data_exits_3(tmp_path, capsys):
    mesh = build_annulus_interface_mesh(2, 8)
    mesh.labels[0] = 3
    path = tmp_path / "label3.txt"
    export_mesh(mesh, path)
    code = main(["run", "test2", "--k", "1", "--mesh", str(path), str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_MESH
    assert "mesh error: no diffusion value for label 3" in capsys.readouterr().err


def test_main_solver_limit_exits_4(tmp_path, capsys):
    code = main(["run", "patch", "--k", "2", "--n", "24",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


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


def test_quadrature_audit_shortcut(tmp_path, capsys):
    out = tmp_path / "audit"
    code = main(["quadrature-audit", "--trials", "2", "--M", "1,2",
                 "--out", str(out)])
    assert code == EXIT_OK
    csv = (out / "quadrature_audit.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "check,case,value,threshold,status"
    assert "FAIL" not in csv
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "audit result: pass" in summary
    capsys.readouterr()


def test_quadrature_audit_shortcut_takes_the_audit_options(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(curvem.cli, "run", lambda config: seen.append(config) or EXIT_OK)
    cfg_file = tmp_path / "audit.cfg"
    cfg_file.write_text("trials = 9\nseed = 8\n", encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["quadrature-audit", "--config", str(cfg_file), "--M", "1,2",
                 "--trials", "3", "--seed", "5", "--out", out]) == EXIT_OK
    [cfg] = seen
    assert (cfg.experiment, cfg.m_list, cfg.trials, cfg.seed, cfg.out_dir) == (
        "quadrature-audit", (1, 2), 3, 5, out)
    assert main(["quadrature-audit", "--k", "1"]) == EXIT_CONFIG
    assert "quadrature-audit does not read --k" in capsys.readouterr().err
    assert seen == [cfg]


def test_random_star_polygons_are_simple_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(25):
        verts = random_star_polygon(rng)
        assert 5 <= len(verts) <= 10
        assert verts.min() > 0.0
        assert shoelace_area(verts) > 0.0


def test_monotone_within_floor():
    assert monotone_within_floor([1e-3, 1e-5, 1e-7])
    assert monotone_within_floor([1e-3, 1e-3, 1e-4])
    assert not monotone_within_floor([1e-3, 5e-3])
    # increases below the floor are rounding noise, not regressions
    assert monotone_within_floor([1e-15, 5e-14])


def test_audit_polygon_exactness_is_tight():
    rows = audit_polygon_exactness((1, 2), trials=3, seed=42)
    assert len(rows) == 6
    assert max(rel for _, _, rel in rows) <= 1e-12


def test_audit_polygon_oracle_stays_exact_at_high_order():
    # the triangulation oracle needs M + 1 points to integrate degree 2M exactly
    [(_, _, rel)] = audit_polygon_exactness([24], 1, 1234)
    assert rel <= POLYGON_AUDIT_TOL
