import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvem import QuadratureError, circle_curve, graph_curve
from curvem.quadrature import (SideBatch, gauss_legendre, gauss_lobatto, green_rule,
                               lagrange_values, polygon_quadrature, rule_points)

from _oracles import (POLYGON_AUDIT_TOL, audit_polygon_exactness, fan_integrate,
                      monotone_within_floor, polygon_integrate, random_star_polygon,
                      shoelace_area, triangulate)


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
                polygon_integrate(verts, [f])[0], rel=1e-13, abs=1e-15)


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


def _rule(sides, k, boost):
    """The degree-k Green rule of one polygon: x, y and w of shape (Q,)."""
    x, y, w = green_rule(sides, *rule_points(k, boost))
    return x[0], y[0], w[0]


def _half_disk():
    c = circle_curve("c", (0.0, 0.0), 1.0)
    verts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return (_curved_side(verts[0], verts[1], c, 0.0, np.pi),
            _straight_side(verts[1], verts[0]))


def test_green_rule_half_disk():
    # a half-circle side is the stress case: the boost controls its error
    sides = _half_disk()
    x, y, w = _rule(sides, 4, boost=6)
    assert w.sum() == pytest.approx(np.pi / 2, abs=1e-13)
    assert w @ x == pytest.approx(0.0, abs=1e-13)
    assert w @ y == pytest.approx(2.0 / 3.0, abs=1e-12)
    _, _, coarse = _rule(sides, 4, boost=0)
    assert abs(coarse.sum() - np.pi / 2) > 1e-8  # boost genuinely matters


def _graph_quad():
    """A quadrilateral whose bottom side follows a sine graph; its end
    points sit on the curve."""
    g = graph_curve("g", amplitude=0.05, frequency=np.pi)
    verts = np.array([g.eval(np.array([0.0]))[0], g.eval(np.array([1.0]))[0],
                      [1.0, 0.4], [0.0, 0.4]])
    return (_curved_side(verts[0], verts[1], g, 0.0, 1.0),
            _straight_side(verts[1], verts[2]),
            _straight_side(verts[2], verts[3]),
            _straight_side(verts[3], verts[0]))


@st.composite
def arc_star_polygons(draw):
    """Sides of a random star polygon with one side bent into a circular arc
    that bulges outward by a sagitta of 2-25% of its half chord."""
    verts = random_star_polygon(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    j = draw(st.integers(0, len(verts) - 1))
    p0, p1 = verts[j], verts[(j + 1) % len(verts)]
    half = 0.5 * np.hypot(*(p1 - p0))
    sagitta = draw(st.floats(0.02, 0.25)) * half
    radius = (half * half + sagitta * sagitta) / (2.0 * sagitta)
    # the polygon is CCW, so its outward normal is the chord direction
    # turned clockwise; the center lies inward of the chord
    direction = (p1 - p0) / (2.0 * half)
    center = 0.5 * (p0 + p1) - (radius - sagitta) * np.array([direction[1], -direction[0]])
    phase = np.arctan2(p0[1] - center[1], p0[0] - center[0])
    span = 2.0 * np.arcsin(half / radius)
    arc = circle_curve("arc", center, radius, phase=phase, param_interval=(0.0, span))
    return tuple(_curved_side(p0, p1, arc, 0.0, span) if i == j
                 else _straight_side(verts[i], verts[(i + 1) % len(verts)])
                 for i in range(len(verts)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(arc_star_polygons())
@example(_graph_quad())
def test_curved_quadrature_matches_fan_oracle(sides):
    x, y, w = _rule(sides, 3, boost=6)
    monomials = [lambda x, y, a=a, b=d - a: x ** a * y ** b
                 for d in range(5) for a in range(d + 1)]
    for f, oracle in zip(monomials, fan_integrate(sides, monomials, n=32)):
        assert w @ f(x, y) == pytest.approx(oracle, rel=1e-11, abs=1e-14)


def test_rule_points_counts():
    assert rule_points(3, 1) == (3, 3 + 1 + 1)
    with pytest.raises(QuadratureError, match="rule_points"):
        rule_points(0, 2)
    with pytest.raises(QuadratureError, match="rule_points"):
        rule_points(2, -1)


def test_reference_polygon_integrate_simple():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    [xy] = polygon_integrate(verts, [lambda x, y: x * y])
    [x4] = polygon_integrate(verts, [lambda x, y: x ** 4])
    assert xy == pytest.approx(0.25, rel=1e-13)
    assert x4 == pytest.approx(0.2, rel=1e-13)


def test_random_star_polygons_are_simple_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(25):
        verts = random_star_polygon(rng)
        assert 5 <= len(verts) <= 10
        assert verts.min() > 0.0
        assert shoelace_area(verts) > 0.0


def test_monotone_within_floor():
    assert monotone_within_floor([1e-3, 1e-5, 1e-7])
    assert monotone_within_floor([1e-3, 1e-3, 1e-4])
    assert not monotone_within_floor([1e-3, 5e-3])
    # increases below the floor are rounding noise, not regressions
    assert monotone_within_floor([1e-15, 5e-14])


def test_audit_polygon_exactness_is_tight():
    rows = audit_polygon_exactness((1, 2), trials=3, seed=42)
    assert len(rows) == 6
    assert max(rel for _, _, rel in rows) <= 1e-12


def test_audit_polygon_oracle_stays_exact_at_high_order():
    # the triangulation oracle needs M + 1 points to integrate degree 2M exactly
    [(_, _, rel)] = audit_polygon_exactness([24], 1, 1234)
    assert rel <= POLYGON_AUDIT_TOL
