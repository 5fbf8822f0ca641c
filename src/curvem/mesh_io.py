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
traversal direction.  A curve line holds a ``BoundaryCurve`` record: its
id (printable, without space or ``#``), kind, parameter interval [a, b]
and the kind's coefficients, in the order

    circle: cx cy radius omega phase
    graph:  amplitude frequency offset

Floats are written with 17 significant digits, so a write/read round trip
reproduces them bit-exactly.  Integers must fit in 64 bits.

A mesh is its arrays (see ``curvem.mesh``): ``parse_mesh`` reads each
section into them and hands them to the ``Mesh`` constructor, and
``format_mesh`` writes them; neither goes through the entity records.
Mesh files and ``curvem run --config`` files share one reader: ``_read_text``
(UTF-8 less a leading byte-order mark, a bad byte reported at its file offset)
and ``_lines`` (the numbered lines left after ``#`` comments and blanks).
"""

from __future__ import annotations

from .geometry import BoundaryCurve, CurveSegment, GeometryError
from .mesh import Mesh

import math
import numpy as np

_MAGIC = "curvem-mesh"
_VERSION = "1"
# Python ints: a numpy iinfo property lookup per token costs more than the compare
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class MeshFormatError(Exception):
    """Raised for malformed mesh files, with the offending line number (or
    byte offset, for text that is not UTF-8)."""


def _read_text(path) -> str:
    """UTF-8 text less a leading BOM; a bad byte raises at its file offset."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8").removeprefix("\ufeff")


def _lines(text: str):
    """``(line number, line)`` of each line left after ``#`` comments and blanks."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def _fail(ln: int, message: str):
    raise MeshFormatError(f"line {ln}: {message}")


def _take(records, what: str):
    try:
        return next(records)
    except StopIteration:
        raise MeshFormatError(f"unexpected end of file, expected {what}") from None


def _parse(ln, token, what, cast):
    """``cast(token)``: a finite float, or an int that fits in 64 bits."""
    try:
        value = cast(token)
    except ValueError:
        _fail(ln, f"bad {what} {token!r}")
    if cast is float and not math.isfinite(value):
        _fail(ln, f"non-finite {what} {token!r}")
    if cast is int and not _INT64_MIN <= value <= _INT64_MAX:
        _fail(ln, f"{what} {token!r} does not fit in 64 bits")
    return value


def parse_mesh(text: str) -> Mesh:
    """Parse the text of a mesh file; see the module docstring for the grammar."""
    records = ((ln, line.split()) for ln, line in _lines(text))

    ln, fields = _take(records, "header")
    if fields[:1] != [_MAGIC] or len(fields) != 2:
        _fail(ln, f"expected header '{_MAGIC} {_VERSION}'")
    if fields[1] != _VERSION:
        _fail(ln, f"unsupported format version {fields[1]!r}")

    ln, fields = _take(records, "counts")
    if fields[0] != "counts" or len(fields) != 5:
        _fail(ln, "expected 'counts <nv> <nc> <ne> <np>'")
    nv, nc, ne, np_ = counts = [_parse(ln, f, "count", int) for f in fields[1:]]
    if min(counts) < 0:
        _fail(ln, f"negative count in {' '.join(fields)!r}")

    curves = {}
    for _ in range(nc):
        ln, fields = _take(records, "curve record")
        if fields[0] != "c" or len(fields) < 5:
            _fail(ln, "expected 'c <id> <kind> <a> <b> <params...>'")
        cid, kind = fields[1], fields[2]
        if cid in curves:
            _fail(ln, f"duplicate curve id {cid!r}")
        a = _parse(ln, fields[3], "interval bound", float)
        b = _parse(ln, fields[4], "interval bound", float)
        params = [_parse(ln, f, "curve parameter", float) for f in fields[5:]]
        try:
            curves[cid] = BoundaryCurve(cid, (a, b), kind, tuple(params))
        except GeometryError as exc:
            _fail(ln, str(exc))

    points = []
    for _ in range(nv):
        ln, fields = _take(records, "vertex record")
        if fields[0] != "v" or len(fields) != 3:
            _fail(ln, "expected 'v <x> <y>'")
        points.append((_parse(ln, fields[1], "coordinate", float),
                       _parse(ln, fields[2], "coordinate", float)))

    edge_vertices, edge_curves, edge_params = [], [], []
    for _ in range(ne):
        ln, fields = _take(records, "edge record")
        if fields[0] != "e" or len(fields) not in (3, 6):
            _fail(ln, "expected 'e <v0> <v1> [<curve_id> <t0> <t1>]'")
        v0 = _parse(ln, fields[1], "vertex index", int)
        v1 = _parse(ln, fields[2], "vertex index", int)
        if not (0 <= v0 < nv and 0 <= v1 < nv):
            _fail(ln, f"edge references missing vertex ({v0}, {v1})")
        curve, t0, t1 = None, np.nan, np.nan
        if len(fields) == 6:
            cid = fields[3]
            if cid not in curves:
                _fail(ln, f"edge references unknown curve {cid!r}")
            t0 = _parse(ln, fields[4], "parameter", float)
            t1 = _parse(ln, fields[5], "parameter", float)
            curve = curves[cid]
            try:
                CurveSegment(curve, t0, t1)  # checks the interval
            except GeometryError as exc:
                _fail(ln, str(exc))
        edge_vertices.append((v0, v1))
        edge_curves.append(curve)
        edge_params.append((t0, t1))

    loop_offsets = [0]
    loop_refs = []
    labels = []
    for _ in range(np_):
        ln, fields = _take(records, "element record")
        if fields[0] != "p" or len(fields) < 2:
            _fail(ln, "expected 'p <n> <signed edge refs>'")
        n = _parse(ln, fields[1], "edge count", int)
        if len(fields) != 2 + n:
            _fail(ln, f"element lists {len(fields) - 2} edges, declared {n}")
        for f in fields[2:]:
            ref = _parse(ln, f, "edge reference", int)
            if ref == 0 or abs(ref) > ne:
                _fail(ln, f"edge reference {ref} out of range")
            loop_refs.append(ref)
        loop_offsets.append(len(loop_refs))
        ln_label, fields = _take(records, "label record")
        if fields[0] != "label" or len(fields) != 2:
            _fail(ln_label, "expected 'label <integer>'")
        labels.append(_parse(ln_label, fields[1], "label", int))

    for ln, fields in records:
        _fail(ln, f"unexpected trailing record {fields[0]!r}")

    refs = np.array(loop_refs, dtype=np.int64)
    return Mesh(points, edge_vertices, edge_curves, edge_params, loop_offsets,
                np.abs(refs) - 1, np.sign(refs), labels)


def import_mesh(path) -> Mesh:
    """Read and finalize a mesh file; a byte that is not UTF-8 raises MeshFormatError."""
    try:
        text = _read_text(path)
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"{path}: not UTF-8 text at byte {exc.start} "
                              f"({exc.reason})") from None
    return parse_mesh(text)


def format_mesh(mesh: Mesh) -> str:
    """Serialize a mesh; see the module docstring for the grammar."""
    out = [f"{_MAGIC} {_VERSION}",
           f"counts {len(mesh.points)} {len(mesh.curves)} "
           f"{len(mesh.edge_vertices)} {len(mesh.labels)}"]
    for cid in sorted(mesh.curves):
        curve = mesh.curves[cid]
        a, b = curve.param_interval
        params = " ".join(f"{p:.17g}" for p in curve.params)
        out.append(f"c {cid} {curve.kind} {a:.17g} {b:.17g} {params}")
    out += [f"v {x:.17g} {y:.17g}" for x, y in mesh.points.tolist()]
    for (v0, v1), curve, (t0, t1) in zip(mesh.edge_vertices.tolist(), mesh.edge_curves,
                                         mesh.edge_params.tolist()):
        out.append(f"e {v0} {v1}" if curve is None else
                   f"e {v0} {v1} {curve.id} {t0:.17g} {t1:.17g}")
    refs = (mesh.loop_signs * (mesh.loop_edges + 1)).tolist()
    bounds = mesh.loop_offsets.tolist()
    for a, b, label in zip(bounds, bounds[1:], mesh.labels.tolist()):
        out.append(f"p {b - a} " + " ".join(map(str, refs[a:b])))
        out.append(f"label {label}")
    return "\n".join(out) + "\n"


def export_mesh(mesh: Mesh, path) -> None:
    """Write a mesh file that ``import_mesh`` reproduces bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_mesh(mesh))
