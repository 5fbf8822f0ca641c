"""One iteration of one workload, in a fresh single-threaded process.

Run by ``run.py`` with BLAS pinned to one thread and ``src`` on the import
path.  Importing curvem and building the input mesh happen before the clock
starts; the timed region runs from the first call into curvem to the last
output written.  The process writes ``result.json`` into its output
directory: wall time, peak resident memory, what the output check needs and,
when traced, the spans and counters.

    python3 perfbench/worker.py --spec '<json>' --seed 1 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer

CG_TOL = 1e-12
MAX_SHIFT = 0.2  # interior vertex shift of large-imported, in units of Mesh.h


def write_shifted_mesh(n: int, seed: int, path: Path) -> None:
    """Export the test1 mesh of level n with seeded interior vertex shifts.

    Each interior vertex moves by a vector drawn uniformly from the disk of
    radius MAX_SHIFT * h, so the mesh depends only on n and the seed.
    """
    import curvem

    base = curvem.test1_problem().mesh_factory(n)
    rng = np.random.default_rng(seed)
    vertices = []
    for vertex in base.vertices:
        position = vertex.position.copy()
        if not vertex.on_boundary:
            radius = MAX_SHIFT * base.h * np.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * np.pi)
            position += radius * np.array([np.cos(angle), np.sin(angle)])
        vertices.append(curvem.Vertex(position=position, curve_ref=vertex.curve_ref))
    edges = [curvem.Edge(v0=e.v0, v1=e.v1, segment=e.segment) for e in base.edges]
    elements = [curvem.Element(edge_loop=list(el.edge_loop), label=el.label)
                for el in base.elements]
    curvem.export_mesh(curvem.Mesh.build(vertices, edges, elements), path)


def run_cli(spec: dict, out: Path) -> dict:
    import curvem.cli

    argv = ["run", spec["experiment"], "--k", ",".join(map(str, spec["k"])),
            "--n", ",".join(map(str, spec["n"])), "--out", str(out / "cli")]
    start = time.perf_counter()
    code = curvem.cli.main(argv)
    return {"wall_s": time.perf_counter() - start, "exit_code": code}


def run_library(spec: dict, out: Path, mesh_path: Path) -> dict:
    import curvem

    (k,) = spec["k"]
    problem = curvem.test1_problem()
    start = time.perf_counter()
    mesh = curvem.import_mesh(mesh_path)
    system = curvem.assemble(mesh, k, problem.coefficient(), boost=2)
    curvem.apply_dirichlet(system, problem.boundary)
    u = curvem.solve(system, method="cg", tol=CG_TOL)
    err_h1, err_l2 = curvem.compute_errors(mesh, k, u, problem, system=system, boost=2)
    (out / "errors.json").write_text(json.dumps(
        {"n_dof": len(u), "err_h1": err_h1, "err_l2": err_l2}), encoding="utf-8")
    wall = time.perf_counter() - start

    # relative residual of the system left after Dirichlet elimination
    interior = np.ones(len(u), dtype=bool)
    interior[system.dof_map.boundary_dofs] = False
    lifted = np.where(interior, 0.0, u)
    rhs = (system.rhs - system.matrix @ lifted)[interior]
    residual = (system.matrix @ u - system.rhs)[interior]
    return {"wall_s": wall, "exit_code": 0,
            "residual": float(np.linalg.norm(residual) / np.linalg.norm(rhs))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    spec = json.loads(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = {}
    tracer = None
    try:
        import curvem.cli  # noqa: F401  (import cost is setup_s, not wall_s)

        mesh_path = out / "mesh.txt"
        if spec["kind"] == "library":
            write_shifted_mesh(spec["n"][0], args.seed, mesh_path)
        if args.trace:
            tracer = Tracer(run_id=f"{spec['name']}-seed{args.seed}-{out.name}")
            result["missing_entry_points"] = tracer.install()
        if spec["kind"] == "cli":
            result.update(run_cli(spec, out))
        else:
            result.update(run_library(spec, out, mesh_path))
    except Exception:  # reported to run.py, which counts every level as failed
        result["error"] = traceback.format_exc()
    if tracer is not None:
        tracer.uninstall()
        result.update(spans=tracer.records(), counters=tracer.counters,
                      installed=sorted(tracer.installed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
