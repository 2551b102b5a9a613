"""Unit tests for triangle primitives and reference quadrature."""

import math

import numpy as np
import pytest

from patchfem.geometry import (
    ERROR_RULE,
    LOAD_RULE,
    DegenerateTriangle,
    degenerate,
    interior_angles,
    triangle_area,
)

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def exact_monomial_integral(a, b):
    """Integral of x^a y^b over the unit reference triangle: a! b! / (a+b+2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestTriangleArea:
    def test_unit_triangle(self):
        assert triangle_area(UNIT) == 0.5

    def test_scaled(self):
        assert triangle_area([[0, 0], [2, 0], [0, 2]]) == 2.0

    def test_orientation_flip(self):
        assert triangle_area([[0, 0], [0, 1], [1, 0]]) == -0.5

    def test_batched(self):
        tris = np.stack([UNIT, 2 * UNIT])
        assert np.allclose(triangle_area(tris), [0.5, 2.0])


class TestInteriorAngles:
    def test_right_isoceles(self):
        assert np.allclose(interior_angles(UNIT), [90.0, 45.0, 45.0])

    def test_equilateral(self):
        tri = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
        assert np.allclose(interior_angles(tri), 60.0)

    def test_law_of_cosines_oracle(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
        # independent oracle: law of cosines from squared edge lengths
        a2 = np.sum((tri[2] - tri[1]) ** 2)
        b2 = np.sum((tri[0] - tri[2]) ** 2)
        c2 = np.sum((tri[1] - tri[0]) ** 2)
        expected_max = math.degrees(
            math.acos((a2 + b2 - c2) / (2 * math.sqrt(a2 * b2)))
        )
        assert interior_angles(tri).max() == pytest.approx(expected_max, abs=1e-9)

    def test_sum_is_180_random(self):
        rng = np.random.default_rng(7)
        tris = rng.uniform(-1, 1, size=(10_000, 3, 2))
        areas = np.abs(triangle_area(tris))
        tris = tris[areas > 1e-3]
        sums = interior_angles(tris).sum(axis=1)
        assert np.abs(sums - 180.0).max() < 1e-10

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            interior_angles([[0, 0], [1, 0], [2, 0]])

    def test_degenerate_mask(self):
        tris = np.stack([UNIT, [[0, 0], [1, 0], [2, 0]], [[0, 0], [0, 1], [1, 0]],
                         [[0, 0], [1, 0], [0.5, 1e-15]]])
        assert degenerate(tris).tolist() == [False, True, True, True]
        # The ones interior_angles rejects are among them.
        for tri in tris[1::2]:
            with pytest.raises(DegenerateTriangle):
                interior_angles(tri)


RULES = {2: LOAD_RULE, 5: ERROR_RULE}  # each rule by the degree it is exact to


class TestQuadRules:
    def test_degree_2_matches_tabulated_rule(self):
        rule = LOAD_RULE
        assert rule.points.shape == (3, 2)
        assert np.allclose(
            rule.points, [[2 / 3, 1 / 6], [1 / 6, 1 / 6], [1 / 6, 2 / 3]]
        )
        assert np.allclose(rule.weights, 1 / 6)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_weights_sum_to_half(self, degree):
        assert abs(RULES[degree].weights.sum() - 0.5) <= 1e-14

    @pytest.mark.parametrize("degree", [2, 5])
    def test_points_in_closed_reference_triangle(self, degree):
        x, y = RULES[degree].points.T
        eps = 1e-14
        assert np.all(x >= -eps) and np.all(y >= -eps) and np.all(x + y <= 1.0 + eps)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_weights_positive(self, degree):
        assert np.all(RULES[degree].weights > 0.0)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_lambdas_are_barycentric_values_of_points(self, degree):
        rule = RULES[degree]
        assert rule.lambdas.shape == (len(rule.points), 3)
        assert np.allclose(rule.lambdas.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.array_equal(rule.lambdas[:, 1:], rule.points)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_arrays_are_read_only(self, degree):
        for array in RULES[degree]:
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("degree", [2, 5])
    def test_exactness_up_to_degree(self, degree):
        rule = RULES[degree]
        x, y = rule.points.T
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                approx = rule.weights @ (x**a * y**b)
                exact = exact_monomial_integral(a, b)
                assert approx == pytest.approx(exact, rel=1e-13)

    def test_degree_5_on_x2y3(self):
        rule = ERROR_RULE
        x, y = rule.points.T
        got = rule.weights @ (x**2 * y**3)
        assert got == pytest.approx(exact_monomial_integral(2, 3), rel=1e-13)
