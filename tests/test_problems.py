"""Tests for the manufactured problems, jump verification, and error norms."""

import dataclasses

import numpy as np
import pytest

from patchfem.adaptation import adapt
from patchfem.assembly import assemble
from patchfem.levelset import Circle
from patchfem.mesh import build_structured_mesh
from patchfem.problems import (
    InsufficientData,
    circle_problem,
    convergence_rate,
    error_norms,
    horizontal_problem,
    tilted_problem,
)
from patchfem.solver import cg_solve

from .oracles import pde_residual_defect, verify_jump_conditions

ALL_PROBLEMS = [
    circle_problem(),
    horizontal_problem(0.3, 1 / 8),
    tilted_problem(0.7),
]


class TestCircleProblem:
    def test_branches_agree_on_interface(self):
        p = circle_problem()
        x = np.array([0.5, 0.0])
        assert p.u1(x) == pytest.approx(-1 / 8)
        assert p.u2(x) == pytest.approx(-1 / 8)

    def test_flux_balance_at_half(self):
        p = circle_problem()
        x = np.array([0.5, 0.0])
        n = np.array([1.0, 0.0])
        flux1 = p.kappa1 * p.grad_u1(x) @ n
        flux2 = p.kappa2 * p.grad_u2(x) @ n
        assert flux1 == pytest.approx(-p.kappa1 * p.kappa2)
        assert flux1 == pytest.approx(flux2)

    def test_f_at_origin(self):
        assert circle_problem().f1(np.zeros(2)) == 0.0

    def test_kappa_values(self):
        p = circle_problem()
        assert (p.kappa1, p.kappa2) == (0.1, 1.0)


class TestHorizontalProblem:
    def test_continuity_at_interface(self):
        p = horizontal_problem(0.3, 1 / 8)
        x = np.array([0.2, 0.3 / 8])
        assert p.u1(x) == pytest.approx(0.0, abs=1e-15)
        assert p.u2(x) == pytest.approx(0.0, abs=1e-15)

    def test_flux_balance(self):
        p = horizontal_problem(0.4, 0.25)
        x = np.array([0.0, 0.1])
        assert p.kappa1 * p.grad_u1(x)[1] == pytest.approx(p.kappa2 * p.grad_u2(x)[1])

    def test_f_values(self):
        p = horizontal_problem(0.5, 0.125)
        pts = np.zeros((1, 2))
        assert p.f1(pts)[0] == pytest.approx(0.2)
        assert p.f2(pts)[0] == pytest.approx(2.0)


class TestTiltedProblem:
    def test_flux_on_interface(self):
        p = tilted_problem(0.9)
        x = np.zeros(2)
        n = np.array([-np.sin(0.9), np.cos(0.9)])
        assert p.kappa1 * p.grad_u1(x) @ n == pytest.approx(p.kappa2)
        assert p.kappa2 * p.grad_u2(x) @ n == pytest.approx(p.kappa2)

    def test_alpha_zero_is_x_axis(self):
        p = tilted_problem(0.0)
        assert p.levelset.eval([3.0, 0.0]) == 0.0
        assert p.levelset.eval([0.0, 1.0]) == pytest.approx(1.0)

    def test_fd_laplacian_matches_f(self):
        p = tilted_problem(0.7)
        x = np.array([0.1, -0.2])
        assert p.levelset.eval(x) < 0  # first branch there
        h = 1e-5
        lap = (
            p.u1(x + [h, 0]) + p.u1(x - [h, 0]) + p.u1(x + [0, h])
            + p.u1(x - [0, h]) - 4 * p.u1(x)
        ) / h**2
        assert -p.kappa1 * lap == pytest.approx(float(p.f1(x)), rel=1e-6)


class TestJumpConditions:
    @pytest.mark.parametrize("p", ALL_PROBLEMS, ids=lambda p: p.name)
    def test_valid_problems_pass(self, p):
        report = verify_jump_conditions(p, 1000)
        assert report.max_u_jump <= 1e-10
        assert report.max_flux_jump <= 1e-10

    def test_horizontal_jumps_exactly_zero(self):
        report = verify_jump_conditions(horizontal_problem(0.3, 1 / 8), 200)
        assert report.max_u_jump == 0.0
        assert report.max_flux_jump == 0.0

    def test_radius_quarter_variant_fails_flux(self):
        p = dataclasses.replace(circle_problem(), levelset=Circle((0.0, 0.0), 0.25))
        report = verify_jump_conditions(p, 500)
        expected = 3 * p.kappa1 * p.kappa2 / 8
        assert report.max_flux_jump == pytest.approx(expected, rel=1e-12)
        assert report.max_u_jump > 1e-3  # the solution jump breaks too


class TestPdeResidual:
    @pytest.mark.parametrize("p", ALL_PROBLEMS, ids=lambda p: p.name)
    def test_residual_defect_small(self, p):
        assert pde_residual_defect(p, n_per_side=100) <= 1e-5


class TestErrorNorms:
    def test_exact_representation_of_linear(self):
        from .test_assembly import LINEAR_X

        mesh = build_structured_mesh(4, LINEAR_X.domain)
        configs, _, _ = adapt(mesh, LINEAR_X.levelset, 2)
        u_i = LINEAR_X.u(mesh.node_planes().T)
        l2, h1 = error_norms(mesh, configs, LINEAR_X, u_i)
        assert l2 <= 1e-12 and h1 <= 1e-12

    def test_constant_one_against_zero(self):
        from .test_assembly import constant_kappa_problem

        p = constant_kappa_problem(
            u=lambda x: np.ones(np.asarray(x).shape[:-1]),
            grad=lambda x: np.zeros(np.asarray(x).shape),
            f=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        )
        mesh = build_structured_mesh(4, p.domain)
        configs, _, _ = adapt(mesh, p.levelset, 2)
        l2, h1 = error_norms(mesh, configs, p, np.zeros(mesh.n_vertices + mesh.n_edges))
        assert l2 == pytest.approx(2.0)  # sqrt(area of (-1,1)^2)
        assert h1 == pytest.approx(0.0, abs=1e-14)

    def test_circle_error_ratios_under_refinement(self):
        p = circle_problem()
        errs = {}
        for n in (16, 32):
            mesh = build_structured_mesh(n, p.domain)
            configs, _, _ = adapt(mesh, p.levelset, 2)
            sol = cg_solve(assemble(mesh, configs, p)).solution
            errs[n] = error_norms(mesh, configs, p, sol)
        assert errs[16][0] / errs[32][0] == pytest.approx(4.0, rel=0.3)
        assert errs[16][1] / errs[32][1] == pytest.approx(2.0, rel=0.3)

    def test_interpolant_error_decreases_over_levels(self):
        p = circle_problem()
        prev = np.inf
        for n in (8, 16, 32):
            mesh = build_structured_mesh(n, p.domain)
            configs, _, _ = adapt(mesh, p.levelset, 2)
            u_i = p.u(mesh.node_planes().T)
            l2, _ = error_norms(mesh, configs, p, u_i)
            assert l2 < prev
            prev = l2


class TestConvergenceRate:
    def test_exact_quartering(self):
        assert convergence_rate([(1 / 8, 1e-2), (1 / 16, 2.5e-3)]) == pytest.approx(2.0)

    def test_exact_halving(self):
        pairs = [(1 / 8, 1e-1), (1 / 16, 5e-2), (1 / 32, 2.5e-2)]
        assert convergence_rate(pairs) == pytest.approx(1.0)

    def test_noisy_known_slope(self):
        rng = np.random.default_rng(61)
        hs = 1.0 / 2 ** np.arange(2, 9)
        errors = 0.7 * hs**1.5 * np.exp(rng.normal(0, 0.03, hs.size))
        assert convergence_rate(list(zip(hs, errors))) == pytest.approx(1.5, abs=0.1)

    def test_single_pair_raises(self):
        with pytest.raises(InsufficientData):
            convergence_rate([(0.1, 0.01)])
