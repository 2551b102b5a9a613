"""Planar triangle primitives: signed areas, interior angles, barycentric
gradients, the two quadrature rules on the unit reference triangle
(``LOAD_RULE`` for the load, ``ERROR_RULE`` for the error norms) and their
images on physical triangles.

Triangles are ``(..., 3, 2)`` arrays of vertex coordinates in counterclockwise
order; all routines broadcast over leading axes. They work on x and y planes
(``tri[..., i, 0]``, ``tri[..., i, 1]``), so a coordinate-major input (one
contiguous plane over the leading axes per vertex and component, as
``PatchConfigs`` gathers its subtriangles) runs every NumPy call over long
contiguous runs; the arrays they return are coordinate-major too. Every
value is the same for any input layout. Everything here is pure and
allocation-only, safe for unrestricted concurrent use; the rules' arrays
are read-only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateTriangle",
    "QuadRule",
    "LOAD_RULE",
    "ERROR_RULE",
    "gather_triangles",
    "triangle_area",
    "interior_angles",
    "degenerate",
    "barycentric_gradients",
    "map_rule",
]

# A triangle is degenerate when |2*area| < DEGENERACY_TOL * (longest edge)^2;
# scale invariant.
DEGENERACY_TOL = 1e-14


class DegenerateTriangle(ValueError):
    """Triangle with (numerically) collinear vertices."""


def gather_triangles(planes, ids) -> np.ndarray:
    """Triangles (..., 3, 2) with vertex ids ``ids`` (..., 3) into the point
    coordinates ``planes`` (2, n_points), coordinate-major."""
    # One gather into a C-ordered (2, 3, ...) array, whose transpose is
    # coordinate-major.
    return np.take(planes, ids.T, axis=1).T


def triangle_area(tri) -> np.ndarray:
    """Signed area of ``tri``; positive for counterclockwise vertex order.

    Parameters
    ----------
    tri : array_like, shape (..., 3, 2)

    Returns
    -------
    ndarray, shape (...)
    """
    tri = np.asarray(tri, dtype=float)
    x, y = tri[..., 0], tri[..., 1]
    return 0.5 * ((x[..., 1] - x[..., 0]) * (y[..., 2] - y[..., 0])
                  - (y[..., 1] - y[..., 0]) * (x[..., 2] - x[..., 0]))


def interior_angles(tri) -> np.ndarray:
    """Interior angles in degrees; entry ``i`` is the angle at vertex ``i``.

    Computed from normalized dot products of the two edge vectors adjacent to
    each vertex. The three angles sum to 180 degrees.

    Parameters
    ----------
    tri : array_like, shape (..., 3, 2)

    Returns
    -------
    ndarray, shape (..., 3)

    Raises
    ------
    DegenerateTriangle
        If any triangle is numerically collinear.
    """
    tri = np.asarray(tri, dtype=float)
    dx, dy, lengths_sq = _edges(tri)
    if np.any(_collinear(tri, lengths_sq)):
        raise DegenerateTriangle("triangle vertices are (numerically) collinear")
    lengths = [np.sqrt(sq) for sq in lengths_sq]
    angles = np.empty(tri.shape[:-1], order="F")
    for i in range(3):
        # Edge i leaves vertex i and edge j arrives at it: the second edge
        # vector at vertex i is -edge j.
        j = (i + 2) % 3
        dot = -(dx[i] * dx[j] + dy[i] * dy[j])
        cosang = dot / (lengths[i] * lengths[j])
        angles[..., i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles


def degenerate(tri) -> np.ndarray:
    """Mask (...) of the triangles that are (numerically) collinear or
    clockwise: those ``interior_angles`` rejects, and inverted ones."""
    tri = np.asarray(tri, dtype=float)
    _, _, lengths_sq = _edges(tri)
    return _collinear(tri, lengths_sq) | (triangle_area(tri) <= 0.0)


def _edges(tri):
    """x and y components and squared lengths of the edges of ``tri``; edge
    i runs from vertex i to vertex i + 1."""
    x, y = tri[..., 0], tri[..., 1]
    dx = [x[..., (i + 1) % 3] - x[..., i] for i in range(3)]
    dy = [y[..., (i + 1) % 3] - y[..., i] for i in range(3)]
    return dx, dy, [dx[i] * dx[i] + dy[i] * dy[i] for i in range(3)]


def _collinear(tri, lengths_sq) -> np.ndarray:
    longest_sq = np.maximum(np.maximum(lengths_sq[0], lengths_sq[1]), lengths_sq[2])
    return np.abs(2.0 * triangle_area(tri)) < DEGENERACY_TOL * longest_sq


def barycentric_gradients(tris, areas) -> np.ndarray:
    """Constant gradients (..., 3, 2) of the three barycentric functions.

    ``grad(l_i)`` is the edge opposite vertex i turned by +90 degrees and
    divided by twice the signed area ``areas`` (...). The result is stored
    coordinate-major (Fortran order): each component of each vertex is one
    contiguous plane over the leading axes.
    """
    x, y = tris[..., 0], tris[..., 1]
    twice = 2.0 * areas
    grads = np.empty(tris.shape, order="F")
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3  # the opposite edge runs j -> k
        grads[..., i, 0] = -(y[..., k] - y[..., j]) / twice
        grads[..., i, 1] = (x[..., k] - x[..., j]) / twice
    return grads


class QuadRule(NamedTuple):
    """Quadrature rule on the unit reference triangle: points (n, 2) in the
    closed triangle, positive weights (n,) that sum to its area 1/2, and the
    barycentric values (n, 3) of the points."""

    points: np.ndarray
    weights: np.ndarray
    lambdas: np.ndarray


def _rule(points, weights) -> QuadRule:
    """The rule of ``points`` and ``weights``, its arrays read-only."""
    points = np.array(points)
    x, y = points[:, 0], points[:, 1]
    rule = QuadRule(points, np.array(weights), np.column_stack([1.0 - x - y, x, y]))
    for array in rule:
        array.flags.writeable = False
    return rule


def _seven_point_rule() -> QuadRule:
    sq15 = np.sqrt(15.0)
    a = (6.0 + sq15) / 21.0
    b = (6.0 - sq15) / 21.0
    wa = (155.0 + sq15) / 2400.0
    wb = (155.0 - sq15) / 2400.0
    return _rule(
        [
            [1.0 / 3.0, 1.0 / 3.0],
            [a, a],
            [1.0 - 2.0 * a, a],
            [a, 1.0 - 2.0 * a],
            [b, b],
            [1.0 - 2.0 * b, b],
            [b, 1.0 - 2.0 * b],
        ],
        [9.0 / 80.0, wa, wa, wa, wb, wb, wb],
    )


# The three-point rule exact to degree 2, for the load.
LOAD_RULE = _rule(
    [
        [2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0],
    ],
    np.full(3, 1.0 / 6.0),
)
# The classical seven-point rule exact to degree 5, for the error norms.
ERROR_RULE = _seven_point_rule()


def map_rule(tris, areas, rule: QuadRule):
    """``rule`` carried onto the triangles ``tris`` (..., 3, 2) of signed
    area ``areas`` (...).

    Returns points (..., nq, 2), x = A + xhat (B - A) + yhat (C - A), and
    weights (..., nq) scaled by the Jacobian 2 * area, so each triangle's
    weights sum to its area. Both are stored coordinate-major (Fortran
    order), so each component at each rule point is one contiguous plane
    over the leading axes.
    """
    lead = tris.shape[:-2]
    points = np.empty(lead + rule.points.shape, order="F")
    for c in range(2):
        a = tris[..., 0, c]
        e1 = tris[..., 1, c] - a
        e2 = tris[..., 2, c] - a
        for k, (x, y) in enumerate(rule.points):
            points[..., k, c] = a + x * e1 + y * e2
    twice = 2.0 * np.asarray(areas)
    weights = np.empty(lead + rule.weights.shape, order="F")
    for k, w in enumerate(rule.weights):
        weights[..., k] = w * twice
    return points, weights
