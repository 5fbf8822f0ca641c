"""The benchmark's hooks into curvem, checked without running the benchmark.

``perfbench/spans.py`` wraps curvem entry points by name and reads fields
of what they return, ``perfbench/worker.py`` builds its imported mesh
from the entity records and passes ``curvem run`` a fixed argv, so a rename,
a dropped field or a rejected option breaks the benchmark without failing
any other tier-1 test.  ``python3 -m pytest perfbench`` checks the same hooks
end to end, in about half a minute.
"""

import sys
from pathlib import Path

import pytest

import curvem
import curvem.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def test_every_timed_span_has_an_entry_point():
    tracer = spans.Tracer(run_id="t")
    try:
        tracer.install()
        assert set(spans.SELF_TIME) <= tracer.installed
    finally:
        tracer.uninstall()


def test_worker_writes_its_shifted_mesh(tmp_path):
    path = tmp_path / "m.txt"
    worker.write_shifted_mesh(4, 1, path)
    assert len(curvem.import_mesh(path).elements) == 16


def test_worker_library_path_runs_traced(tmp_path):
    mesh = tmp_path / "m.txt"
    worker.write_shifted_mesh(4, 7919, mesh)
    tracer = spans.Tracer(run_id="t")
    try:
        tracer.install()
        result = worker.run_library({"k": [3]}, tmp_path, mesh)
    finally:
        tracer.uninstall()
    assert result["exit_code"] == 0
    assert result["residual"] <= 1e-11
    assert tracer.counters["solver.assembled_elements"] == 16
    assert tracer.counters["solver.cg_iterations"] > 0


@pytest.mark.parametrize("name", [name for name, spec in bench.WORKLOADS.items()
                                  if spec["kind"] == "cli"])
def test_worker_cli_argv_is_accepted(tmp_path, monkeypatch, name):
    spec = bench.WORKLOADS[name]
    seen = []
    monkeypatch.setattr(curvem.cli, "run", lambda config: seen.append(config) or 0)
    assert worker.run_cli(spec, tmp_path)["exit_code"] == 0
    [config] = seen
    assert (config.experiment, config.k_list, config.n_list, config.out_dir) == (
        spec["experiment"], tuple(spec["k"]), tuple(spec["n"]), str(tmp_path / "cli"))
