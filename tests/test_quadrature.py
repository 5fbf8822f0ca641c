import numpy as np
import pytest

from curvem import (QuadratureError, circle_curve, gauss_legendre, gauss_lobatto,
                    graph_curve, lagrange_values)
from curvem.quadrature import SideBatch, green_rule, polygon_quadrature, rule_points
from curvem.reference import fan_integrate, polygon_integrate, triangulate

from _oracles import shoelace_area


def test_gauss_legendre_matches_numpy():
    for n in range(1, 25):
        rule = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.allclose(rule.nodes, ref_x, atol=1e-14)
        assert np.allclose(rule.weights, ref_w, atol=1e-14)


def test_gauss_legendre_exactness():
    rule = gauss_legendre(6)
    for p in range(2 * 6):
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        assert np.dot(rule.weights, rule.nodes ** p) == pytest.approx(exact, abs=1e-14)


def test_gauss_lobatto_properties():
    for n in range(2, 15):
        rule = gauss_lobatto(n)
        assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)
        # symmetric node layout is exact, not approximate
        assert np.all(rule.nodes == -rule.nodes[::-1])
        for p in range(2 * n - 3):
            exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
            assert np.dot(rule.weights, rule.nodes ** p) == pytest.approx(exact, abs=1e-13)


def test_rules_reject_bad_counts():
    with pytest.raises(QuadratureError):
        gauss_legendre(0)
    with pytest.raises(QuadratureError):
        gauss_lobatto(1)


def test_lagrange_values_partition_and_interpolation():
    nodes = gauss_lobatto(5).nodes
    x = np.linspace(-1, 1, 33)
    vals = lagrange_values(nodes, x)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    coeffs = np.array([2.0, -1.0, 0.5, 3.0, 1.5])
    poly = np.polynomial.polynomial.Polynomial(coeffs)
    assert np.allclose(vals @ poly(nodes), poly(x), atol=1e-12)
    # exact node hits reproduce the identity rows
    hit = lagrange_values(nodes, nodes)
    assert np.allclose(hit, np.eye(5), atol=1e-14)


def test_triangulate_covers_nonconvex_polygon():
    verts = np.array([[0, 0], [4, 0], [4, 3], [2, 1], [0, 3]], dtype=float)
    tris = triangulate(verts)
    assert len(tris) == len(verts) - 2
    total = 0.0
    for i, j, k in tris:
        total += shoelace_area(verts[[i, j, k]])
    assert total == pytest.approx(shoelace_area(verts), rel=1e-14)


@pytest.mark.parametrize("m_order", [1, 2, 3, 4])
def test_polygon_quadrature_exact_to_degree_2m(m_order):
    verts = np.array([[0.2, 0.1], [1.9, 0.4], [2.3, 1.5], [1.0, 2.2], [0.1, 1.2]])
    rule = polygon_quadrature(verts, m_order)
    for d in range(2 * m_order + 1):
        for a in range(d + 1):
            f = lambda x, y, a=a, b=d - a: x ** a * y ** b
            assert rule.integrate(f) == pytest.approx(
                polygon_integrate(verts, f), rel=1e-13, abs=1e-15)


def test_polygon_quadrature_weight_sum_is_area():
    verts = np.array([[0, 0], [2, 0], [2, 1], [1, 0.4], [0, 1]], dtype=float)
    rule = polygon_quadrature(verts, 3)
    assert rule.weights.sum() == pytest.approx(shoelace_area(verts), rel=1e-14)


def test_polygon_quadrature_translation_invariance():
    verts = np.array([[0.2, 0.1], [1.9, 0.4], [2.3, 1.5], [1.0, 2.2], [0.1, 1.2]])
    shift = np.array([13.0, -7.0])
    rule0 = polygon_quadrature(verts, 3)
    rule1 = polygon_quadrature(verts + shift, 3)
    f = lambda x, y: x ** 2 * y - 3.0 * y ** 2
    v0 = rule0.integrate(lambda x, y: f(x + shift[0], y + shift[1]))
    assert v0 == pytest.approx(rule1.integrate(f), rel=1e-12)


def test_polygon_quadrature_rejects_clockwise():
    verts = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=float)
    with pytest.raises(QuadratureError):
        polygon_quadrature(verts, 2)


def test_polygon_quadrature_rejects_zero_area():
    verts = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    with pytest.raises(QuadratureError, match="degenerate"):
        polygon_quadrature(verts, 2)


def _curved_side(start, end, curve, t0, t1):
    """A side of one polygon that follows ``curve`` from t0 to t1."""
    return SideBatch(np.asarray(start)[None], np.asarray(end)[None], curves=(curve,),
                     t0=np.array([t0]), t1=np.array([t1]), sign=np.array([1.0]))


def _straight_side(start, end):
    return SideBatch(np.asarray(start)[None], np.asarray(end)[None])


def _rule(verts, sides, k, boost):
    """The degree-k Green rule of one polygon: x, y and w of shape (Q,)."""
    x, y, w = green_rule(verts[None], sides, *rule_points(k, boost))
    return x[0], y[0], w[0]


def _half_disk():
    c = circle_curve("c", (0.0, 0.0), 1.0)
    verts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return verts, (_curved_side(verts[0], verts[1], c, 0.0, np.pi),
                   _straight_side(verts[1], verts[0]))


def test_green_rule_half_disk():
    # a half-circle side is the stress case: the boost controls its error
    verts, sides = _half_disk()
    x, y, w = _rule(verts, sides, 4, boost=6)
    assert w.sum() == pytest.approx(np.pi / 2, abs=1e-13)
    assert w @ x == pytest.approx(0.0, abs=1e-13)
    assert w @ y == pytest.approx(2.0 / 3.0, abs=1e-12)
    _, _, coarse = _rule(verts, sides, 4, boost=0)
    assert abs(coarse.sum() - np.pi / 2) > 1e-8  # boost genuinely matters


def test_curved_quadrature_matches_fan_oracle():
    g = graph_curve("g", amplitude=0.05, frequency=np.pi)
    verts = np.array([g.eval(np.array([0.0]))[0], g.eval(np.array([1.0]))[0],
                      [1.0, 0.4], [0.0, 0.4]])
    # the bottom side follows the sine graph; its endpoints sit on the curve
    sides = (_curved_side(verts[0], verts[1], g, 0.0, 1.0),
             _straight_side(verts[1], verts[2]),
             _straight_side(verts[2], verts[3]),
             _straight_side(verts[3], verts[0]))
    x, y, w = _rule(verts, sides, 3, boost=6)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3), (4, 0)]:
        f = lambda x, y, a=a, b=b: x ** a * y ** b
        assert w @ f(x, y) == pytest.approx(
            fan_integrate(verts, sides, f, n=32), rel=1e-11, abs=1e-14)


def test_rule_points_counts():
    assert rule_points(3, 1) == (3, 3 + 1 + 1)
    with pytest.raises(QuadratureError, match="rule_points"):
        rule_points(0, 2)
    with pytest.raises(QuadratureError, match="rule_points"):
        rule_points(2, -1)


def test_reference_polygon_integrate_simple():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert polygon_integrate(verts, lambda x, y: x * y) == pytest.approx(0.25, rel=1e-13)
    assert polygon_integrate(verts, lambda x, y: x ** 4) == pytest.approx(0.2, rel=1e-13)
