"""The benchmark's hooks into curvem, checked without running the benchmark.

``perfbench/spans.py`` wraps curvem entry points by name and
``perfbench/worker.py`` builds its imported mesh from the entity records, so
a rename or a dropped record field breaks the benchmark without failing any
other tier-1 test.  ``python3 -m pytest perfbench`` checks the same hooks
end to end, in about half a minute.
"""

import sys
from pathlib import Path

import curvem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
