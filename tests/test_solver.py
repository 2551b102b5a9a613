"""Tests for the preconditioned CG solver and the dense oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from patchfem.adaptation import adapt
from patchfem.assembly import LinearSystem, assemble
from patchfem.mesh import build_structured_mesh
from patchfem.problems import circle_problem
from patchfem.solver import NonConvergence, cg_solve

from .oracles import SingularSystem, dense_solve_oracle


def plain_system(a, b):
    return LinearSystem(sp.csr_matrix(a), np.asarray(b, float),
                        np.array([], dtype=int), np.array([]))


def assembled_circle_system(n=8):
    p = circle_problem()
    mesh = build_structured_mesh(n, p.domain)
    configs, _, _ = adapt(mesh, p.levelset, 2)
    return assemble(mesh, configs, p)


class TestCgSolve:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        report = cg_solve(plain_system(np.eye(3), b))
        assert report.iterations == 1
        assert np.allclose(report.solution, b)

    def test_small_system(self):
        report = cg_solve(plain_system([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]))
        assert np.allclose(report.solution, [1.0, 1.0])

    def test_zero_rhs(self):
        report = cg_solve(plain_system(np.eye(4), np.zeros(4)))
        assert report.iterations == 0
        assert np.allclose(report.solution, 0.0)

    def test_reported_residual_below_tol(self):
        system = assembled_circle_system()
        report = cg_solve(system, tol=1e-10)
        assert report.relative_residual <= 1e-10
        assert report.residual_history[-1] == report.relative_residual

    def test_matches_dense_oracle_on_assembled_system(self):
        system = assembled_circle_system()
        x_cg = cg_solve(system, tol=1e-12).solution
        x_dense = dense_solve_oracle(system)
        assert np.abs(x_cg - x_dense).max() < 1e-8

    def test_deterministic(self):
        system = assembled_circle_system(4)
        r1 = cg_solve(system)
        r2 = cg_solve(system)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.residual_history, r2.residual_history)
        assert np.array_equal(r1.solution, r2.solution)

    def test_energy_error_decreases_monotonically(self):
        # the CG guarantee: the A-norm of the error is non-increasing
        rng = np.random.default_rng(51)
        m = rng.normal(size=(30, 30))
        a = m.T @ m + np.eye(30)
        b = rng.normal(size=30)
        x_star = np.linalg.solve(a, b)

        a_csr = sp.csr_matrix(a)
        inv_diag = 1.0 / a_csr.diagonal()
        x = np.zeros(30)
        r = b.copy()
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        energies = [np.sqrt((x - x_star) @ a @ (x - x_star))]
        for _ in range(30):
            ap = a_csr @ p
            alpha = rz / (p @ ap)
            x = x + alpha * p
            r = r - alpha * ap
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
            energies.append(np.sqrt(max((x - x_star) @ a @ (x - x_star), 0.0)))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10 * energies[0])

    def test_nonconvergence_raises_with_report(self):
        system = assembled_circle_system(4)
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, tol=1e-14, max_iter=2)
        assert info.value.report.iterations == 2

    def test_dirichlet_values_in_solution(self):
        system = assembled_circle_system(4)
        sol = cg_solve(system).solution
        assert np.allclose(sol[system.dirichlet_dofs], system.dirichlet_values)


class TestDenseOracle:
    def test_identity(self):
        b = np.array([1.0, 2.0])
        assert np.allclose(dense_solve_oracle(plain_system(np.eye(2), b)), b)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(52)
        m = rng.normal(size=(10, 10))
        a = m.T @ m + np.eye(10)
        b = rng.normal(size=10)
        x = dense_solve_oracle(plain_system(a, b))
        assert np.abs(a @ x - b).max() <= 1e-10

    def test_singular_raises(self):
        a = np.zeros((3, 3))
        with pytest.raises((SingularSystem, np.linalg.LinAlgError)):
            dense_solve_oracle(plain_system(a, np.ones(3)))

    def test_size_guard(self):
        n = 5001
        a = sp.eye(n, format="csr")
        system = LinearSystem(a, np.ones(n), np.array([], int), np.array([]))
        with pytest.raises(ValueError):
            dense_solve_oracle(system)
