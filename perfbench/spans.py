"""Outside-in span tracing of curvem's layers.

The tracer wraps public entry points of the ``curvem`` modules from the
outside: every module attribute bound to a wrapped function is replaced for
the duration of the trace, so calls through re-exports such as
``curvem.cli.validate_mesh`` or ``curvem.solver.local_operators`` are
recorded too.  Nothing under ``src/`` is edited.

Spans stay in memory as (name, start, end, parent) records and are written
out once the run has ended.  ``layer_metrics`` turns them into per-layer
numbers: a span's self time is its duration minus the time its direct
children cover, so the self times of all spans plus the untraced remainder
(``cli.other_s``) add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


class _CountingMatrix(sparse.csr_matrix):
    """CSR matrix that counts its products with a vector (CG iterations)."""

    matvecs = 0

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            self.matvecs += 1
        return super().__matmul__(other)


def _count_mesh(tracer, args, kwargs, mesh):
    tracer.add("mesh.elements", len(mesh.elements))
    tracer.add("mesh.curved_edges", sum(edge.segment is not None for edge in mesh.edges))


def _count_validated(tracer, args, kwargs, report):
    tracer.add("mesh.validated_elements", len(report.elements))


def _count_import(tracer, args, kwargs, mesh):
    tracer.add("mesh_io.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_local_operators(tracer, args, kwargs, ops):
    tracer.add("vem.calls", 1)


def _count_rule(tracer, args, kwargs, rule):
    tracer.add("quadrature.rules", 1)
    tracer.add("quadrature.points", len(rule.weights))


def _count_assemble(tracer, args, kwargs, system):
    tracer.add("solver.assembled_elements", system.dof_map.n_elements)


def _traced_solve(tracer, call, args, kwargs):
    """Run ``solve`` with the reduced matrix swapped for a counting view of it."""
    system = args[0] if args else kwargs["system"]
    original = system.reduced_matrix
    if original is None:
        return call()
    counting = _CountingMatrix(original)
    system.reduced_matrix = counting
    try:
        return call()
    finally:
        system.reduced_matrix = original
        nnz = int(original.nnz)
        tracer.add("solver.unknowns", int(original.shape[0]))
        tracer.add("solver.nnz", nnz)
        tracer.add("solver.cg_iterations", counting.matvecs)
        tracer.add("solver.matvec_flops", 2 * nnz * counting.matvecs)


# (module, attribute path, span name, counter hook, around hook).  A hook
# runs after a successful call; an around hook runs the call itself.
ENTRY_POINTS = (
    ("curvem.mesh", "build_mapped_tensor_mesh", "mesh.build", None, None),
    ("curvem.mesh", "build_annulus_interface_mesh", "mesh.build", None, None),
    ("curvem.mesh", "straighten_mesh", "mesh.build", None, None),
    ("curvem.mesh", "Mesh.build", "mesh.build", _count_mesh, None),
    ("curvem.mesh", "validate_mesh", "mesh.validate", _count_validated, None),
    ("curvem.mesh_io", "import_mesh", "mesh_io.import", _count_import, None),
    ("curvem.vem", "local_operators", "vem.local_operators", _count_local_operators, None),
    ("curvem.quadrature", "curved_polygon_quadrature", "quadrature.rule", _count_rule, None),
    ("curvem.quadrature", "polygon_quadrature", "quadrature.rule", _count_rule, None),
    ("curvem.solver", "assemble", "solver.assemble", _count_assemble, None),
    ("curvem.solver", "apply_dirichlet", "solver.dirichlet", None, None),
    ("curvem.solver", "solve", "solver.solve", None, _traced_solve),
    ("curvem.analysis", "compute_errors", "analysis.errors", None, None),
)

# span name -> its self-time metric
SELF_TIME = {
    "mesh.build": "mesh.build_s",
    "mesh.validate": "mesh.validate_s",
    "mesh_io.import": "mesh_io.import_s",
    "vem.local_operators": "vem.local_operators_s",
    "quadrature.rule": "quadrature.rule_s",
    "solver.assemble": "solver.assemble_self_s",
    "solver.dirichlet": "solver.dirichlet_s",
    "solver.solve": "solver.solve_s",
    "analysis.errors": "analysis.errors_self_s",
}

# span name -> the other metrics it provides, absent when no entry point of
# that span exists any more
SPAN_METRICS = {
    "mesh.build": ("mesh.elements", "mesh.curved_edges"),
    "mesh.validate": ("mesh.validate_us_per_element",),
    "mesh_io.import": ("mesh_io.bytes",),
    "vem.local_operators": ("vem.calls", "vem.us_per_element"),
    "quadrature.rule": ("quadrature.rules", "quadrature.points",
                        "quadrature.rules_per_element"),
    "solver.solve": ("solver.unknowns", "solver.nnz", "solver.cg_iterations",
                     "solver.matvec_flops"),
}

UNITS = {name: "s" for name in SELF_TIME.values()}
UNITS.update({
    "mesh.elements": "count", "mesh.curved_edges": "count",
    "mesh.validate_us_per_element": "us", "mesh_io.bytes": "B",
    "vem.calls": "count", "vem.us_per_element": "us",
    "quadrature.rules": "count", "quadrature.points": "count",
    "quadrature.rules_per_element": "ratio",
    "solver.unknowns": "count", "solver.nnz": "count",
    "solver.cg_iterations": "count", "solver.matvec_flops": "flop",
    "cli.other_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
})


@dataclass
class Tracer:
    """In-memory span and counter store for one traced run."""

    run_id: str
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    installed: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, func, span, hook, around):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, time.perf_counter(), None, parent])
            tracer._stack.append(index)
            try:
                if around is None:
                    result = func(*args, **kwargs)
                else:
                    result = around(tracer, lambda: func(*args, **kwargs), args, kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", span)
        return wrapper

    def install(self) -> list[str]:
        """Wrap every entry point that exists; return the missing ones."""
        missing = []
        for module_name, path, span, hook, around in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{path}")
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}.{path}")
                continue
            self.installed.add(span)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, span, hook, around))
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
                continue
            wrapped = self._wrap(raw, span, hook, around)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "curvem" and vars(mod).get(attr) is raw:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, raw))
        return missing

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def records(self) -> list[dict]:
        """Spans as plain records, for writing out after the run."""
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "run": self.run_id}
                for name, start, end, parent in self.spans]


def _ratio(value, count):
    return value / count if count else 0.0


def layer_metrics(spans: list[dict], counters: dict, installed, wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A metric whose entry points no longer exist is absent from the result.
    A layer that exists but the workload never calls reports zero.
    """
    self_time = dict.fromkeys(SELF_TIME, 0.0)
    for span in spans:
        self_time[span["name"]] += span["end"] - span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            self_time[parent["name"]] -= span["end"] - span["start"]
    metrics = {SELF_TIME[name]: self_time[name] for name in SELF_TIME if name in installed}
    derived = {name: counters.get(name, 0) for names in SPAN_METRICS.values() for name in names}
    elements = counters.get("solver.assembled_elements", 0)
    derived.update({
        "mesh.validate_us_per_element": 1e6 * _ratio(
            self_time["mesh.validate"], counters.get("mesh.validated_elements", 0)),
        "vem.us_per_element": 1e6 * _ratio(self_time["vem.local_operators"], elements),
        "quadrature.rules_per_element": _ratio(derived["quadrature.rules"], elements),
    })
    for span, names in SPAN_METRICS.items():
        if span in installed:
            metrics.update({name: derived[name] for name in names})
    metrics["cli.other_s"] = wall_s - sum(self_time.values())
    metrics["trace.wall_s"] = wall_s
    metrics["trace.overhead_s"] = wall_s - untraced_wall_s
    return metrics
