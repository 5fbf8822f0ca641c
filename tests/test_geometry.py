from dataclasses import replace

import numpy as np
import pytest

from curvem import (BoundaryCurve, CurveSegment, GeometryError, circle_curve,
                    graph_curve)
from curvem import test1_problem as problem1
from curvem import test2_problem as problem2
from curvem.geometry import _qk21, arc_length

from _oracles import simpson_arc_length


def test_circle_eval_and_derivative():
    c = circle_curve("c", (1.0, -2.0), 3.0)
    t = np.linspace(0.0, 2.0 * np.pi, 17)
    pts = c.eval(t)
    assert np.allclose((pts[:, 0] - 1.0) ** 2 + (pts[:, 1] + 2.0) ** 2, 9.0)
    d = c.eval_derivative(t)
    assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 3.0)


def test_circle_rejects_bad_input():
    with pytest.raises(GeometryError):
        circle_curve("c", (0, 0), -1.0)
    with pytest.raises(GeometryError):
        circle_curve("c", (0, 0), 1.0, omega=2.0)  # span 4*pi


def test_graph_curve_matches_formula():
    g = graph_curve("g", amplitude=0.05, frequency=np.pi)
    t = np.linspace(0, 1, 9)
    pts = g.eval(t)
    assert np.allclose(pts[:, 0], t)
    assert np.allclose(pts[:, 1], 0.05 * np.sin(np.pi * t))


def test_curve_requires_nonvanishing_speed():
    with pytest.raises(GeometryError, match="vanishing or non-finite speed"):
        circle_curve("bad", (0.0, 0.0), 1.0, omega=0.0)


def test_curve_built_from_its_record():
    c = BoundaryCurve("c2", (0.0, np.pi), "circle", (0.0, 0.0, 0.5, 2.0, 0.0))
    assert np.allclose(c.eval(np.array([0.0]))[0], [0.5, 0.0])
    assert np.allclose(c.eval(np.array([np.pi / 2]))[0], [-0.5, 0.0])
    with pytest.raises(GeometryError):
        BoundaryCurve("x", (0.0, 1.0), "nope", ())
    with pytest.raises(GeometryError) as info:
        BoundaryCurve("x", (0.0, 1.0), "graph", (0.05, np.pi))
    assert str(info.value) == ("curve 'x': kind 'graph' takes 3 parameters "
                               "(amplitude frequency offset), got 2")


@pytest.mark.parametrize("cid", ["a b", "x#y", "", "tab\there", "nul\x00"],
                         ids=["space", "hash", "empty", "tab", "control"])
def test_curve_id_must_be_a_mesh_file_word(cid):
    with pytest.raises(GeometryError, match="must be a printable word without '#'"):
        graph_curve(cid, 0.05, np.pi)
    with pytest.raises(GeometryError, match="must be a printable word without '#'"):
        replace(circle_curve("c", (0.0, 0.0), 1.0), id=cid)


def test_segment_validates_interval():
    c = circle_curve("c", (0, 0), 1.0)
    with pytest.raises(GeometryError):
        CurveSegment(c, 1.0, 1.0)
    with pytest.raises(GeometryError):
        CurveSegment(c, -1.0, 1.0)


def test_arc_length_circle_exact():
    c = circle_curve("c", (0, 0), 2.0)
    seg = CurveSegment(c, 0.0, np.pi / 3)
    assert arc_length(seg) == pytest.approx(2.0 * np.pi / 3, rel=1e-13)


def test_arc_length_matches_simpson_oracle():
    g = graph_curve("g", amplitude=0.05, frequency=3.0 * np.pi, offset=1.0)
    seg = CurveSegment(g, 0.125, 0.875)
    ours = arc_length(seg)
    oracle = simpson_arc_length(g, 0.125, 0.875)
    assert ours == pytest.approx(oracle, rel=1e-11)


def test_arc_length_subinterval():
    c = circle_curve("c", (0, 0), 1.0)
    assert arc_length(CurveSegment(c, 0.25, 0.75)) == pytest.approx(0.5, rel=1e-13)


def quad_arc_length(segment):
    """scipy's QAGS on the curve speed, with the tolerances of arc_length."""
    from scipy.integrate import quad

    def speed(t):
        d = segment.curve.eval_derivative(t)
        return float(np.hypot(d[0], d[1]))

    return quad(speed, segment.t0, segment.t1, epsabs=1e-15, epsrel=1e-12, limit=200)[0]


@pytest.mark.parametrize("problem,ns", [(problem1, (4, 8, 16, 32, 64)),
                                        (problem2, (2, 4, 8, 16))],
                         ids=["test1", "test2"])
def test_arc_length_equals_quad_on_every_shipped_curved_edge(problem, ns):
    segments = [edge.segment for n in ns for edge in problem().mesh_factory(n).edges
                if edge.segment is not None]
    assert len(segments) > 100
    assert [arc_length(s) for s in segments] == [quad_arc_length(s) for s in segments]


def test_arc_length_subdivides_a_segment_one_rule_cannot_certify():
    g = graph_curve("g", amplitude=0.05, frequency=10.0 * np.pi)
    seg = CurveSegment(g, 0.0, 1.0)
    value, abserr, _ = _qk21(g, 0.0, 1.0)
    assert abserr > 1e-12 * value  # one 21-point rule is not enough here
    assert arc_length(seg) == pytest.approx(simpson_arc_length(g, 0.0, 1.0), rel=1e-11)


def test_arc_length_raises_when_200_intervals_do_not_converge():
    g = graph_curve("g", amplitude=1e-3, frequency=1e5)
    with pytest.raises(GeometryError, match="did not converge"):
        arc_length(CurveSegment(g, 0.0, 1.0))
