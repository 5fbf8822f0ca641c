"""Line-oriented text files for meshes with curved edges.

Grammar (one record per line, ``#`` comments and blank lines ignored)::

    curvem-mesh 1
    counts <n_vertices> <n_curves> <n_edges> <n_elements>
    c <id> <kind> <a> <b> <params...>
    v <x> <y>
    e <v0> <v1> [<curve_id> <t0> <t1>]
    p <n> <signed edge refs, 1-based>
    label <integer>

Records appear in that order: curves, vertices, edges, then one ``p`` line
plus one ``label`` line per element.  Edge lines use 0-based vertex
indices; element loops use 1-based edge indices whose sign gives the
traversal direction.  Curve lines carry the parameter interval [a, b] and
the closed-form coefficients of a serializable curve kind.  Floats are
written with 17 significant digits, so a write/read round trip reproduces
them bit-exactly.
"""

from __future__ import annotations

from .geometry import GeometryError, CurveSegment, curve_from_params
from .mesh import Edge, Element, Mesh, Vertex

import numpy as np

_MAGIC = "curvem-mesh"
_VERSION = "1"


class MeshFormatError(Exception):
    """Raised for malformed mesh files, with the offending line number."""


def _records(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _fail(ln: int, message: str):
    raise MeshFormatError(f"line {ln}: {message}")


def _take(records, what: str):
    try:
        return next(records)
    except StopIteration:
        raise MeshFormatError(f"unexpected end of file, expected {what}") from None


def _parse_float(ln, token, what):
    try:
        value = float(token)
    except ValueError:
        _fail(ln, f"bad {what} {token!r}")
    if not np.isfinite(value):
        _fail(ln, f"non-finite {what} {token!r}")
    return value


def _parse_int(ln, token, what):
    try:
        return int(token)
    except ValueError:
        _fail(ln, f"bad {what} {token!r}")


def parse_mesh(text: str) -> Mesh:
    """Parse the text of a mesh file; see the module docstring for the grammar."""
    records = _records(text)

    ln, fields = _take(records, "header")
    if fields[:1] != [_MAGIC] or len(fields) != 2:
        _fail(ln, f"expected header '{_MAGIC} {_VERSION}'")
    if fields[1] != _VERSION:
        _fail(ln, f"unsupported format version {fields[1]!r}")

    ln, fields = _take(records, "counts")
    if fields[0] != "counts" or len(fields) != 5:
        _fail(ln, "expected 'counts <nv> <nc> <ne> <np>'")
    nv, nc, ne, np_ = (_parse_int(ln, f, "count") for f in fields[1:])

    curves = {}
    for _ in range(nc):
        ln, fields = _take(records, "curve record")
        if fields[0] != "c" or len(fields) < 5:
            _fail(ln, "expected 'c <id> <kind> <a> <b> <params...>'")
        cid, kind = fields[1], fields[2]
        if cid in curves:
            _fail(ln, f"duplicate curve id {cid!r}")
        a = _parse_float(ln, fields[3], "interval bound")
        b = _parse_float(ln, fields[4], "interval bound")
        params = [_parse_float(ln, f, "curve parameter") for f in fields[5:]]
        try:
            curves[cid] = curve_from_params(cid, kind, params, (a, b))
        except GeometryError as exc:
            _fail(ln, str(exc))

    positions = []
    for _ in range(nv):
        ln, fields = _take(records, "vertex record")
        if fields[0] != "v" or len(fields) != 3:
            _fail(ln, "expected 'v <x> <y>'")
        positions.append(np.array([_parse_float(ln, fields[1], "coordinate"),
                                   _parse_float(ln, fields[2], "coordinate")]))

    edges = []
    for _ in range(ne):
        ln, fields = _take(records, "edge record")
        if fields[0] != "e" or len(fields) not in (3, 6):
            _fail(ln, "expected 'e <v0> <v1> [<curve_id> <t0> <t1>]'")
        v0 = _parse_int(ln, fields[1], "vertex index")
        v1 = _parse_int(ln, fields[2], "vertex index")
        if not (0 <= v0 < nv and 0 <= v1 < nv):
            _fail(ln, f"edge references missing vertex ({v0}, {v1})")
        segment = None
        if len(fields) == 6:
            cid = fields[3]
            if cid not in curves:
                _fail(ln, f"edge references unknown curve {cid!r}")
            t0 = _parse_float(ln, fields[4], "parameter")
            t1 = _parse_float(ln, fields[5], "parameter")
            try:
                segment = CurveSegment(curves[cid], t0, t1)
            except GeometryError as exc:
                _fail(ln, str(exc))
        edges.append(Edge(v0=v0, v1=v1, segment=segment))

    elements = []
    for _ in range(np_):
        ln, fields = _take(records, "element record")
        if fields[0] != "p" or len(fields) < 2:
            _fail(ln, "expected 'p <n> <signed edge refs>'")
        n = _parse_int(ln, fields[1], "edge count")
        if len(fields) != 2 + n:
            _fail(ln, f"element lists {len(fields) - 2} edges, declared {n}")
        loop = []
        for f in fields[2:]:
            ref = _parse_int(ln, f, "edge reference")
            if ref == 0 or abs(ref) > ne:
                _fail(ln, f"edge reference {ref} out of range")
            loop.append((abs(ref) - 1, 1 if ref > 0 else -1))
        ln_label, fields = _take(records, "label record")
        if fields[0] != "label" or len(fields) != 2:
            _fail(ln_label, "expected 'label <integer>'")
        elements.append(Element(edge_loop=loop,
                                label=_parse_int(ln_label, fields[1], "label")))

    for ln, fields in records:
        _fail(ln, f"unexpected trailing record {fields[0]!r}")

    curve_refs = {}
    for edge in edges:
        if edge.segment is not None:
            curve_refs[edge.v0] = (edge.segment.curve.id, edge.segment.t0)
            curve_refs[edge.v1] = (edge.segment.curve.id, edge.segment.t1)
    vertices = [Vertex(position=p, curve_ref=curve_refs.get(i)) for i, p in enumerate(positions)]
    return Mesh.build(vertices, edges, elements)


def import_mesh(path) -> Mesh:
    """Read and finalize a mesh file."""
    with open(path, encoding="utf-8") as fh:
        return parse_mesh(fh.read())


def format_mesh(mesh: Mesh) -> str:
    """Serialize a mesh; raises for curves without closed-form coefficients."""
    out = [f"{_MAGIC} {_VERSION}",
           f"counts {len(mesh.vertices)} {len(mesh.curves)} "
           f"{len(mesh.edges)} {len(mesh.elements)}"]
    for cid in sorted(mesh.curves):
        curve = mesh.curves[cid]
        if curve.kind == "generic":
            raise MeshFormatError(
                f"curve {cid!r} wraps generic callables and cannot be serialized")
        a, b = curve.param_interval
        params = " ".join(f"{p:.17g}" for p in curve.params)
        out.append(f"c {cid} {curve.kind} {a:.17g} {b:.17g} {params}")
    for vertex in mesh.vertices:
        out.append(f"v {vertex.position[0]:.17g} {vertex.position[1]:.17g}")
    for edge in mesh.edges:
        if edge.segment is None:
            out.append(f"e {edge.v0} {edge.v1}")
        else:
            seg = edge.segment
            out.append(f"e {edge.v0} {edge.v1} {seg.curve.id} "
                       f"{seg.t0:.17g} {seg.t1:.17g}")
    for element in mesh.elements:
        refs = " ".join(str(sign * (eid + 1)) for eid, sign in element.edge_loop)
        out.append(f"p {len(element.edge_loop)} {refs}")
        out.append(f"label {element.label}")
    return "\n".join(out) + "\n"


def export_mesh(mesh: Mesh, path) -> None:
    """Write a mesh file that ``import_mesh`` reproduces bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_mesh(mesh))
