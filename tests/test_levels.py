"""A study's independent (k, n) levels, solved side by side in forked helpers.

The number of helpers follows the usable CPUs, which these tests set by
replacing ``os.sched_getaffinity``: one CPU runs every level in-process, two
add one helper.  Helpers must change no report, nor any byte of a CLI
output, exit code or message, and none may outlive the run or a generator
closed early.
"""

import errno
import multiprocessing
import os
import warnings

import pytest

import curvem.analysis
from curvem import run_convergence
from curvem import test1_problem as problem1
from curvem.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from curvem.solver import SolverError
from curvem.vem import global_dof_count


def run_on_cpus(count, argv, out, capsys, monkeypatch):
    """Exit code, stdout, stderr and output files of ``curvem`` on ``count`` CPUs."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())
             if path.is_file()}
    assert multiprocessing.active_children() == []
    return code, captured.out, captured.err, files


def log_solves(monkeypatch, log):
    """Make every level's solve append "pid dofs" to ``log``."""
    solve = curvem.analysis.solve

    def logged(system, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {system.dof_map.total}\n")
        return solve(system, *args, **kwargs)

    monkeypatch.setattr(curvem.analysis, "solve", logged)


def solves(log):
    """(pid, dofs) of each logged solve; the log is emptied."""
    entries = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    log.unlink()
    return entries


def test_run_convergence_is_one_level_map_over_every_degree(tmp_path, monkeypatch):
    log = tmp_path / "solves.log"
    log_solves(monkeypatch, log)
    reports, entries = {}, {}
    for count in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
            reports[count] = list(run_convergence(problem1(), (1, 2), (4, 8)))
        assert multiprocessing.active_children() == []
        entries[count] = solves(log)
    assert reports[2] == reports[1]
    assert [report.k for report in reports[1]] == [1, 2]
    assert {pid for pid, _ in entries[1]} == {os.getpid()}
    # on 2 CPUs the heaviest level (k=2, n=8) stays here, and one helper
    # serves the other three, of both degrees
    helped = [(pid, dofs) for pid, dofs in entries[2] if pid != os.getpid()]
    assert len({pid for pid, _ in helped}) == 1
    meshes = {n: problem1().mesh_factory(n) for n in (4, 8)}
    assert sorted(dofs for _, dofs in helped) == sorted(
        global_dof_count(meshes[n], k) for k, n in ((1, 4), (1, 8), (2, 4)))


def test_closing_run_convergence_early_joins_the_helpers(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        reports = run_convergence(problem1(), (1, 2, 3), (4, 8))
        first = next(reports)
        reports.close()
    assert multiprocessing.active_children() == []
    assert first.k == 1 and [row.n for row in first.rows] == [4, 8]


@pytest.mark.parametrize("argv", [
    ["test1-curved", "--k", "1,2", "--n", "4,8"],
    ["test1-straight", "--k", "1,2", "--n", "4,8"],
    ["test2", "--k", "1,2", "--n", "2,4"],
    ["patch", "--k", "1,2,3", "--n", "2"],
], ids=lambda argv: argv[0])
def test_helpers_change_no_output(tmp_path, capsys, monkeypatch, argv):
    log = tmp_path / "solves.log"
    log_solves(monkeypatch, log)
    alone = run_on_cpus(1, ["run", *argv], tmp_path / "alone", capsys, monkeypatch)
    assert {pid for pid, _ in solves(log)} == {os.getpid()}
    helped = run_on_cpus(2, ["run", *argv], tmp_path / "helped", capsys, monkeypatch)
    assert alone[0] == EXIT_OK
    assert helped == alone
    entries = solves(log)
    own = [dofs for pid, dofs in entries if pid == os.getpid()]
    assert own == [max(dofs for _, dofs in entries)]  # the heaviest level stays here
    assert len({pid for pid, _ in entries}) == 2


def test_helpers_start_where_fork_warns_of_threads(tmp_path, capsys, monkeypatch):
    # from Python 3.12 os.fork warns in a process with other OS threads, as
    # one with OpenBLAS's thread pool is; the suite turns warnings into errors
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      f"may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    argv = ["run", "test2", "--k", "1", "--n", "2,4"]
    alone = run_on_cpus(1, argv, tmp_path / "alone", capsys, monkeypatch)
    monkeypatch.setattr(os, "fork", warning_fork)
    helped = run_on_cpus(2, argv, tmp_path / "helped", capsys, monkeypatch)
    assert alone[0] == EXIT_OK
    assert helped == alone


def test_helpers_that_cannot_be_forked_leave_every_level_here(tmp_path, capsys, monkeypatch):
    # as at a process limit: each fork fails, so the 2-CPU run starts no helper
    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    log = tmp_path / "solves.log"
    log_solves(monkeypatch, log)
    argv = ["run", "test1-curved", "--k", "1", "--n", "4,8"]
    alone = run_on_cpus(1, argv, tmp_path / "alone", capsys, monkeypatch)
    solves(log)
    monkeypatch.setattr(os, "fork", failing_fork)
    unhelped = run_on_cpus(2, argv, tmp_path / "unhelped", capsys, monkeypatch)
    assert alone[0] == EXIT_OK
    assert unhelped == alone
    assert {pid for pid, _ in solves(log)} == {os.getpid()}


def test_first_failing_level_in_order_fails_the_run(tmp_path, capsys, monkeypatch):
    assemble = curvem.analysis.assemble

    def failing(mesh, k, *args, **kwargs):
        if k >= 2:
            raise SolverError(f"no solve at k={k} on {len(mesh.labels)} elements")
        return assemble(mesh, k, *args, **kwargs)

    monkeypatch.setattr(curvem.analysis, "assemble", failing)
    argv = ["run", "test1-curved", "--k", "1,2,3", "--n", "4,8"]
    alone = run_on_cpus(1, argv, tmp_path / "alone", capsys, monkeypatch)
    helped = run_on_cpus(2, argv, tmp_path / "helped", capsys, monkeypatch)
    # the heaviest level (k=3, n=8) fails in this process and a helper's
    # first level (k=2, n=8) fails too, but (k=2, n=4) comes first in order
    assert alone[:3] == (EXIT_SOLVER, "", "solver error: no solve at k=2 on 16 elements\n")
    assert sorted(alone[3]) == ["test1-curved_k1.csv"]
    assert helped == alone


def test_a_helper_that_dies_fails_the_run_with_exit_4(tmp_path, capsys, monkeypatch):
    parent, solve = os.getpid(), curvem.analysis.solve

    def dying(system, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(9)  # as a kill or the out-of-memory killer ends a helper
        return solve(system, *args, **kwargs)

    monkeypatch.setattr(curvem.analysis, "solve", dying)
    argv = ["run", "test1-curved", "--k", "1,2", "--n", "4,8"]
    code, out, err, files = run_on_cpus(2, argv, tmp_path / "out", capsys, monkeypatch)
    # the helper dies on its first level, which breaks the pool, so the
    # first level in order, (k=1, n=4), fails the run
    assert (code, out, files) == (EXIT_SOLVER, "", {})
    assert err.startswith("solver error: level k=1, n=4 was not solved: "
                          "a helper process died (")
    assert err.count("\n") == 1


def test_unwritable_output_mid_study_joins_the_helpers(tmp_path, capsys, monkeypatch):
    argv = ["run", "test1-curved", "--k", "1,2,3", "--n", "4,8"]
    results = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        (out / "test1-curved_k2.csv").mkdir(parents=True)
        results.append(run_on_cpus(cpus, argv, out, capsys, monkeypatch))
    assert results[0][0] == EXIT_CONFIG
    assert "cannot write output" in results[0][2]
    assert sorted(results[0][3]) == ["test1-curved_k1.csv"]
    assert results[1][0] == results[0][0]
    assert results[1][3] == results[0][3]
