"""Tests for the preconditioned CG solver and the dense oracle."""

import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from patchfem import solver as solver_module
from patchfem.adaptation import RefinementRequired, adapt
from patchfem.assembly import LinearSystem, assemble
from patchfem.mesh import build_structured_mesh
from patchfem.problems import circle_problem, tilted_problem
from patchfem.runner import make_problem
from patchfem.solver import NonConvergence, cg_solve, row_block, row_spans, span_dot

from .oracles import (
    SingularSystem,
    assemble_reference,
    dense_solve_oracle,
    free_mask,
    jacobi_cg_reference,
)


def plain_system(a, b):
    # A copy of b: CG updates the system's load in place.
    a = sp.csr_matrix(a)
    return LinearSystem(a, np.array(b, float), np.array([], dtype=int), np.array([]))


def assembled_system(n=8, p=None):
    p = p or circle_problem()
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
        system = assembled_system()
        report = cg_solve(system, tol=1e-10)
        assert report.relative_residual <= 1e-10
        assert report.residual_history[-1] == report.relative_residual

    def test_matches_dense_oracle_on_assembled_system(self):
        system = assembled_system()
        x_dense = dense_solve_oracle(system)  # before CG consumes the load
        x_cg = cg_solve(system, tol=1e-12).solution
        assert np.abs(x_cg - x_dense).max() < 1e-8

    def test_deterministic(self):
        # Each solve consumes its system's load: the system is assembled twice.
        r1 = cg_solve(assembled_system(4))
        r2 = cg_solve(assembled_system(4))
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.residual_history, r2.residual_history)
        assert np.array_equal(r1.solution, r2.solution)

    def test_second_solve_of_one_system_raises(self):
        # The first solve took the load as its residual and left it spent.
        system = assembled_system(4)
        cg_solve(system)
        with pytest.raises(RuntimeError, match="assemble the system again"):
            cg_solve(system)

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
        system = assembled_system(4)
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, tol=1e-14, max_iter=2)
        assert info.value.report.iterations == 2

    def test_nonconvergence_survives_pickling(self):
        # A worker process of a sweep sends it back to the parent.
        system = assembled_system(4)
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, tol=1e-14, max_iter=2)
        exc = pickle.loads(pickle.dumps(info.value))
        assert type(exc) is NonConvergence
        assert str(exc) == str(info.value)
        assert exc.tol == 1e-14
        assert exc.report.iterations == 2
        assert (exc.report.residual_history.tobytes()
                == info.value.report.residual_history.tobytes())

    def test_dirichlet_values_in_solution(self):
        system = assembled_system(4)
        sol = cg_solve(system).solution
        assert np.allclose(sol[system.dirichlet_dofs], system.dirichlet_values)


class _CountingPool(solver_module.ThreadPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        type(self).submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def two_spans(monkeypatch):
    """Systems of more than 500 free dofs split into two spans. The returned
    function sets the CPU count the solver sees and gives the pool class,
    which counts the phases handed to the worker."""
    monkeypatch.setattr(solver_module, "ROW_SPLIT", 500)
    monkeypatch.setattr(solver_module, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "submitted", 0)

    def cpus(n):
        monkeypatch.setattr(solver_module, "_cpus", lambda: n)
        return _CountingPool

    return cpus


class TestRowSpans:
    def test_one_span_below_split(self):
        system = assembled_system(16)
        n_free = np.count_nonzero(free_mask(system))
        assert system.n_dof < solver_module.ROW_SPLIT
        assert row_spans(system.matrix, n_free) == [slice(0, system.n_dof)]

    def test_split_counts_free_dofs(self, monkeypatch):
        system = assembled_system(16)
        n_free = np.count_nonzero(free_mask(system))
        monkeypatch.setattr(solver_module, "ROW_SPLIT", n_free + 1)
        assert system.n_dof >= solver_module.ROW_SPLIT
        assert row_spans(system.matrix, n_free) == [slice(0, system.n_dof)]
        assert len(row_spans(system.matrix, n_free + 1)) == 2

    def test_two_spans_share_the_matrix(self, two_spans):
        system = assembled_system(16)
        a, _, _ = system.reduced()
        assert a is system.matrix
        spans = row_spans(a, system.n_dof - len(system.dirichlet_dofs))
        assert len(spans) == 2
        assert spans[0].start == 0 and spans[0].stop == spans[1].start
        assert spans[1].stop == a.shape[0]
        # Split after the fewest leading rows that store half the matrix's
        # stored entries (nnz // 2).
        half = spans[0].stop
        assert a.indptr[half - 1] < a.nnz // 2 <= a.indptr[half]
        p = np.random.default_rng(3).standard_normal(a.shape[0])
        # A block of less than half the entries shares them too.
        for rows in spans + [slice(0, 3)]:
            block = row_block(a, rows)
            assert np.shares_memory(block.data, a.data)
            assert np.shares_memory(block.indices, a.indices)
            np.testing.assert_array_equal(block @ p, (a @ p)[rows])


class TestInPlace:
    """CG on the assembled matrix, with the Dirichlet entries of every vector
    held at zero, is Jacobi-CG on the free rows and columns; only the
    grouping of the dot products' sums differs."""

    @pytest.mark.parametrize("problem, mode", [
        (circle_problem(), "adapted"),
        (tilted_problem(0.3), "adapted"),  # vertex cuts
        (circle_problem(), "baseline"),
    ], ids=["circle", "tilted", "baseline"])
    def test_matches_cg_on_sliced_system(self, problem, mode):
        mesh = build_structured_mesh(32, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        system = assemble(mesh, configs, problem, mode)
        x_ref, iterations = jacobi_cg_reference(system)  # before CG consumes the load
        report = cg_solve(system)
        assert abs(report.iterations - iterations) <= 2
        err = np.abs(report.solution - x_ref).max()
        assert err <= 1e-9 * np.abs(x_ref).max()
        assert (report.solution[system.dirichlet_dofs].tobytes()
                == system.dirichlet_values.tobytes())

    def test_no_dirichlet_dofs(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.2)
        system = plain_system(m.T @ m + np.eye(40), rng.standard_normal(40))
        x_ref, iterations = jacobi_cg_reference(system)
        report = cg_solve(system)
        assert abs(report.iterations - iterations) <= 2
        assert np.abs(report.solution - x_ref).max() <= 1e-9 * np.abs(x_ref).max()

    def test_dirichlet_dof_without_diagonal(self):
        # A Dirichlet dof with no stored entries: its inverse diagonal is
        # zero, not 1 / 0.
        a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]))
        system = LinearSystem(a, np.array([1.0, 1.0, 5.0]), np.array([2]), np.array([7.0]))
        with np.errstate(all="raise"):
            report = cg_solve(system)
        np.testing.assert_allclose(report.solution, [1.0, 1.0, 7.0])

    def test_every_dof_dirichlet(self):
        system = assembled_system(4)
        system.dirichlet_dofs = np.arange(system.n_dof)
        system.dirichlet_values = np.linspace(-1.0, 1.0, system.n_dof)
        report = cg_solve(system)
        assert report.iterations == 0
        assert report.solution.tobytes() == system.dirichlet_values.tobytes()

    def test_zero_lifted_load(self):
        system = assembled_system(4)
        system.rhs = np.zeros(system.n_dof)
        system.dirichlet_values = np.zeros_like(system.dirichlet_values)
        report = cg_solve(system)
        assert report.iterations == 0
        assert report.relative_residual == 0.0
        assert not report.solution.any()

    def test_nonconvergence_report_carries_dirichlet_values(self):
        system = assembled_system(4)
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, tol=1e-14, max_iter=2)
        solution = info.value.report.solution
        assert (solution[system.dirichlet_dofs].tobytes()
                == system.dirichlet_values.tobytes())


def _bits(report):
    return (report.iterations, report.solution.tobytes(),
            report.residual_history.tobytes())


class TestThreadedSpans:
    """The spans depend on the matrix alone, so the worker thread changes no
    bit of the iterates."""

    @pytest.mark.parametrize("problem", [circle_problem(), tilted_problem(0.3)],
                             ids=["circle", "tilted"])
    def test_threaded_serial_and_repeat_agree(self, two_spans, problem):
        # Each solve consumes its system's load, so each has a system of its
        # own, assembled alike.
        pool = two_spans(2)
        threaded = cg_solve(assembled_system(16, problem))
        assert pool.submitted == 3 * threaded.iterations - 1
        # The repeat hands the GIL between the threads as often as it can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            repeat = cg_solve(assembled_system(16, problem))
        finally:
            sys.setswitchinterval(interval)
        two_spans(1)
        pool.submitted = 0
        serial = cg_solve(assembled_system(16, problem))
        assert pool.submitted == 0
        assert _bits(threaded) == _bits(repeat) == _bits(serial)
        assert threaded.relative_residual <= 1e-10

    def test_nonconvergence_from_threaded_loop(self, two_spans):
        system = assembled_system(16)
        two_spans(2)
        threads = threading.active_count()
        with pytest.raises(NonConvergence) as info:
            cg_solve(system, tol=1e-14, max_iter=2)
        assert info.value.report.iterations == 2
        assert threading.active_count() == threads

    def test_worker_error_propagates(self, two_spans, monkeypatch):
        class Broken:
            def __matmul__(self, p):
                raise FloatingPointError("second span")

        blocks = []

        def broken_second_block(a, rows):
            blocks.append(rows)
            return Broken() if len(blocks) == 2 else row_block(a, rows)

        monkeypatch.setattr(solver_module, "row_block", broken_second_block)
        system = assembled_system(16)
        two_spans(2)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="second span"):
            cg_solve(system)
        assert threading.active_count() == threads


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(n=st.integers(1, 5000), split=st.floats(0.0, 1.0),
       offsets=st.tuples(st.integers(0, 63), st.integers(0, 63)),
       seed=st.integers(0, 2**32 - 1))
def test_span_dot_ignores_alignment(n, split, offsets, seed):
    """The same values at other byte offsets give the same bits."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    v = rng.standard_normal(n)
    mid = int(split * n)
    spans = [slice(0, mid), slice(mid, n)]

    def at_offset(x, offset):
        buf = np.zeros(x.nbytes + 64, dtype=np.uint8)
        moved = buf[offset:offset + x.nbytes].view(np.float64)
        moved[:] = x
        return moved

    expected = span_dot([u[s] for s in spans], [v[s] for s in spans])
    ou, ov = at_offset(u, offsets[0]), at_offset(v, offsets[1])
    got = span_dot([ou[s] for s in spans], [ov[s] for s in spans])
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@st.composite
def adapted_problems(draw):
    """A circle, horizontal or tilted problem at a small n, and a strategy."""
    name = draw(st.sampled_from(["circle", "horizontal", "tilted"]))
    n = draw(st.sampled_from([8, 12, 16]))
    eps = draw(st.sampled_from([0.0, 0.025, 0.5, 1.0]) | st.floats(0.0, 1.0))
    alpha = draw(st.floats(0.1, 1.4))
    return make_problem(name, n, eps, alpha), n, draw(st.sampled_from([2, 3]))


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(case=adapted_problems())
def test_dropped_zeros_change_no_bit_of_cg(case):
    """CG on the assembled system, which stores no exact zeros, takes the
    iterates of CG on the oracle matrix with them, and with the assembled
    diagonal, on one span: the same iteration count, solution and residual
    history, bit for bit. (Two spans split at half of each matrix's own
    stored entries, so there the two matrices split at different rows.)"""
    problem, n, strategy = case
    mesh = build_structured_mesh(n, problem.domain)
    try:
        configs, _, _ = adapt(mesh, problem.levelset, strategy)
    except RefinementRequired:
        reject()
    system = assemble(mesh, configs, problem)
    graph, _ = assemble_reference(mesh, configs, problem, zeros=True)
    assert graph.nnz > system.matrix.nnz
    # The diagonal sums its terms in another order (``DIAGONAL_RTOL``).
    graph.setdiag(system.matrix.diagonal())
    with_zeros = LinearSystem(graph, system.rhs.copy(), system.dirichlet_dofs,
                              system.dirichlet_values)
    assert len(row_spans(system.matrix, np.count_nonzero(free_mask(system)))) == 1
    assert _bits(cg_solve(system)) == _bits(cg_solve(with_zeros))


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
