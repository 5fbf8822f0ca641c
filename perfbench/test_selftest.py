"""Self-test of the benchmark at tiny sizes (n <= 8, one k).

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a deliberately wrong reference value makes the failure ratio positive, and
that a traced run's self times plus ``cli.other_s`` add up to its wall time.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

TINY = {
    "curved-boundary": {"kind": "cli", "experiment": "test1-curved", "k": [1], "n": [4, 8]},
    "curved-interface": {"kind": "cli", "experiment": "test2", "k": [1], "n": [2, 4]},
    "large-imported": {"kind": "library", "k": [1], "n": [8]},
}
SEED = 1


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One untraced and one traced tiny run of every workload."""
    workdir = tmp_path_factory.mktemp("perfbench")
    return {(name, trace): run.run_workload(name, SEED, 0, trace,
                                            workdir / f"{name}-{trace}", spec=spec)
            for name, spec in TINY.items() for trace in (0, 1)}


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(records, name, trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = records[name, trace]
    assert record["failed"] == 0, record["failures"]
    expected = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {key: metric["unit"] for key, metric in record["metrics"].items()}


@pytest.mark.parametrize("name, corrupt", [
    ("curved-boundary",
     lambda ref: next(level for level in ref["cli"]["test1-curved"]
                      if level["k"] == 1 and level["n"] == 8).update(err_l2=0.0455)),
    ("large-imported", lambda ref: ref["library"]["n8_k1"].update(n_dof=1)),
])
def test_wrong_reference_value_drives_fail_ratio_above_zero(tmp_path, name, corrupt):
    reference = copy.deepcopy(run.load_reference())
    corrupt(reference)
    record = run.run_workload(name, SEED, 0, 1, tmp_path, spec=TINY[name],
                              reference=reference)
    assert record["fail_ratio"] > 0
    assert all(failure.startswith("k=") for failure in record["failures"])


@pytest.mark.parametrize("name", TINY)
def test_traced_self_times_add_up_to_wall_time(records, name):
    metrics = {key: m["value"] for key, m in records[name, 1]["metrics"].items()}
    parts = [metrics[key] for key in spans.SELF_TIME.values()] + [metrics["cli.other_s"]]
    assert min(parts) >= 0.0
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.wall_s"] > 0.0
