"""Tests for dof management, subtriangle quadrature, and global assembly."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from patchfem.adaptation import (
    CutClass,
    adapt,
    build_configs,
    classify_all,
    reference_local_nodes,
    resolve_edge_params,
    subtriangle_topology,
)
from patchfem.assembly import LinearSystem, assemble, build_dof_map, interpolate_nodal
from patchfem.geometry import DegenerateTriangle, map_rule, reference_quad_rule, triangle_area
from patchfem.levelset import Circle
from patchfem.mesh import build_structured_mesh
from patchfem.problems import (
    ProblemSpec,
    circle_problem,
    error_norms,
    horizontal_problem,
    tilted_problem,
)
from patchfem.solver import cg_solve

from .oracles import barycentric, local_load, local_nodes, local_stiffness, reduced_reference

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TOPO_A = subtriangle_topology(CutClass("uncut"))


def patch_rule(nodes, topology, rule):
    """The pipeline's quadrature on the four subtriangles of one patch:
    points (4, nq, 2) and weights (4, nq)."""
    tris = nodes[topology]
    return map_rule(tris, triangle_area(tris), rule)


def constant_kappa_problem(u, grad, f, kappa=1.0):
    """Single-branch problem for exactness tests (interface far away)."""
    return ProblemSpec(
        name="synthetic", kappa1=kappa, kappa2=kappa,
        levelset=Circle((50.0, 50.0), 1.0),
        domain=((-1.0, -1.0), (1.0, 1.0)),
        u1=u, u2=u, grad_u1=grad, grad_u2=grad, f1=f, f2=f,
    )


LINEAR_X = constant_kappa_problem(
    u=lambda x: np.asarray(x, float)[..., 0],
    grad=lambda x: np.broadcast_to([1.0, 0.0], np.asarray(x).shape).copy(),
    f=lambda x: np.zeros(np.asarray(x).shape[:-1]),
)


class TestDofMap:
    def test_counts(self):
        mesh = build_structured_mesh(3)
        dm = build_dof_map(mesh)
        assert dm.n_dof == mesh.n_vertices + mesh.n_edges

    def test_shared_edge_single_dof(self):
        mesh = build_structured_mesh(2)
        dm = build_dof_map(mesh)
        seen = {}
        for pid, pe in enumerate(mesh.patch_edges):
            for k, eid in enumerate(pe):
                dof = dm.patch_dofs[pid, 3 + k]
                seen.setdefault(eid, set()).add(dof)
        assert all(len(dofs) == 1 for dofs in seen.values())

    def test_boundary_flags(self):
        mesh = build_structured_mesh(2)
        dm = build_dof_map(mesh)
        # interior vertex of the 3x3 grid is the center one
        center = np.flatnonzero(
            np.all(mesh.vertices == [0.0, 0.0], axis=1)
        )[0]
        assert not dm.boundary[center]
        corner = np.flatnonzero(np.all(mesh.vertices == [-1.0, -1.0], axis=1))[0]
        assert dm.boundary[corner]


class TestPatchQuadrature:
    def test_worked_example_points(self):
        """Twelve mapped points for q=9/16, s=1/2, r=11/16 on the unit patch."""
        nodes = reference_local_nodes(9 / 16, 11 / 16, 1 / 2)
        points, weights = patch_rule(nodes, TOPO_A, reference_quad_rule(2))
        expected = np.array([
            [1 / 3, 3 / 32], [1 / 12, 3 / 32], [1 / 12, 3 / 8],
            [77 / 96, 11 / 96], [53 / 96, 11 / 96], [11 / 24, 11 / 24],
            [5 / 24, 23 / 32], [5 / 96, 21 / 32], [5 / 96, 7 / 8],
            [13 / 96, 47 / 96], [7 / 24, 53 / 96], [37 / 96, 5 / 24],
        ])
        got = points.reshape(-1, 2)
        dists = np.linalg.norm(expected[:, None, :] - got[None, :, :], axis=2)
        # every listed point appears among the computed ones (the fourth
        # block is listed under a rotated vertex order)
        assert dists.min(axis=1).max() <= 1e-14
        # weights scale with the subtriangle areas, 3/64 on the first block
        assert np.allclose(weights[0], 3 / 64)
        assert weights.sum() == pytest.approx(0.5, abs=1e-15)

    def test_uniform_params_weights_are_1_24(self):
        nodes = reference_local_nodes(0.5, 0.5, 0.5)
        _, weights = patch_rule(nodes, TOPO_A, reference_quad_rule(2))
        assert np.allclose(weights, 1 / 24)

    def test_weights_match_subtriangle_areas(self):
        rng = np.random.default_rng(21)
        rule = reference_quad_rule(2)
        for _ in range(500):
            q, r, s = rng.uniform(0.02, 0.98, 3)
            nodes = reference_local_nodes(q, r, s)
            _, weights = patch_rule(nodes, TOPO_A, rule)
            areas = triangle_area(nodes[TOPO_A])
            assert np.allclose(weights.sum(axis=1), areas, rtol=1e-13)

    def test_integrates_linear_functions_exactly(self):
        rng = np.random.default_rng(22)
        rule = reference_quad_rule(2)
        for _ in range(500):
            q, r, s = rng.uniform(0.02, 0.98, 3)
            a, b, c = rng.uniform(-2, 2, 3)
            nodes = reference_local_nodes(q, r, s)
            points, weights = patch_rule(nodes, TOPO_A, rule)
            pts = points.reshape(-1, 2)
            val = (weights.ravel() * (a * pts[:, 0] + b * pts[:, 1] + c)).sum()
            # reference integral over the unit patch: area 1/2, centroid (1/3,1/3)
            exact = 0.5 * (a / 3 + b / 3 + c)
            assert val == pytest.approx(exact, rel=1e-13, abs=1e-15)


class TestLocalStiffness:
    def test_unit_right_triangle(self):
        k = local_stiffness(UNIT, 1.0)
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(k, expected)

    def test_linear_in_kappa(self):
        assert np.allclose(local_stiffness(UNIT, 2.0), 2 * local_stiffness(UNIT, 1.0))

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            tri = rng.uniform(-1, 1, (3, 2))
            if abs(triangle_area(tri)) < 1e-3:
                continue
            k = local_stiffness(tri, 0.7)
            assert np.abs(k.sum(axis=1)).max() < 1e-12
            assert np.allclose(k, k.T)


class TestLocalLoad:
    def _quad(self, tri):
        return map_rule(tri, triangle_area(tri), reference_quad_rule(2))

    def test_constant_one(self):
        pts, wts = self._quad(UNIT)
        load = local_load(UNIT, pts, wts, lambda p: np.ones(len(p)))
        assert np.allclose(load, 1 / 6)

    def test_zero(self):
        pts, wts = self._quad(UNIT)
        load = local_load(UNIT, pts, wts, lambda p: np.zeros(len(p)))
        assert np.allclose(load, 0.0)

    def test_linear_f_matches_exact_integral(self):
        # exact: int_T (a.x + c) l_i = area/12 * (2 f(v_i) + f(v_j) + f(v_k))
        rng = np.random.default_rng(41)
        for _ in range(100):
            tri = rng.uniform(-1, 1, (3, 2))
            area = triangle_area(tri)
            if area < 1e-2:
                continue
            a, b, c = rng.uniform(-2, 2, 3)
            f = lambda p: a * p[..., 0] + b * p[..., 1] + c
            pts, wts = self._quad(tri)
            load = local_load(tri, pts, wts, f)
            fv = f(tri)
            exact = area / 12 * (2 * fv + np.roll(fv, 1) + np.roll(fv, 2))
            assert np.allclose(load, exact, atol=1e-14)

    def test_barycentric_partition_of_unity(self):
        rng = np.random.default_rng(42)
        tri = rng.uniform(-1, 1, (3, 2))
        pts = rng.uniform(-1, 1, (20, 2))
        lam = barycentric(tri, pts)
        assert np.allclose(lam.sum(axis=1), 1.0)
        assert np.allclose(lam @ tri, pts)


class TestAssemble:
    def _adapted(self, n, problem, strategy=2):
        mesh = build_structured_mesh(n, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, strategy)
        return mesh, configs

    def test_linear_exactness(self):
        mesh, configs = self._adapted(4, LINEAR_X)
        system = assemble(mesh, configs, LINEAR_X)
        sol = cg_solve(system).solution
        expected = interpolate_nodal(LINEAR_X, mesh)
        assert np.abs(sol - expected).max() < 1e-10

    def test_matrix_symmetry(self):
        p = circle_problem()
        mesh, configs = self._adapted(8, p)
        a = assemble(mesh, configs, p).matrix
        gap = abs(a - a.T).max()
        assert gap <= 1e-12 * abs(a).max()

    def test_adapted_equals_baseline_when_uncut(self):
        p = constant_kappa_problem(
            u=lambda x: np.asarray(x, float)[..., 0] ** 2,
            grad=lambda x: np.stack(
                [2 * np.asarray(x, float)[..., 0],
                 np.zeros(np.asarray(x).shape[:-1])], axis=-1),
            f=lambda x: np.full(np.asarray(x).shape[:-1], -2.0),
        )
        mesh, configs = self._adapted(4, p)
        sys_a = assemble(mesh, configs, p, mode="adapted")
        sys_b = assemble(mesh, configs, p, mode="baseline")
        assert abs(sys_a.matrix - sys_b.matrix).max() < 1e-13
        assert np.allclose(sys_a.rhs, sys_b.rhs)

    def test_all_dirichlet_returns_boundary_interpolant(self):
        mesh, configs = self._adapted(2, LINEAR_X)
        system = assemble(mesh, configs, LINEAR_X)
        # force every dof to be Dirichlet: documented behavior is that the
        # solve returns the boundary interpolant in zero iterations
        all_dofs = np.arange(system.n_dof)
        system.dirichlet_dofs = all_dofs
        system.dirichlet_values = interpolate_nodal(LINEAR_X, mesh)
        report = cg_solve(system)
        assert report.iterations == 0
        assert np.allclose(report.solution, system.dirichlet_values)

    def test_zero_area_subtriangle_rejected(self):
        """The cut edge node of a vertex-cut patch moved onto a patch vertex
        (written straight into the edge registry, as no strategy would)
        gives subtriangles of zero area. Assembly rejects them, and no
        NumPy warning is raised on the way."""
        problem = tilted_problem(0.3)
        mesh = build_structured_mesh(8, problem.domain)
        classification = classify_all(mesh, problem.levelset)
        resolve_edge_params(mesh, classification, 2)
        pid = next(p for p in classification.cut_ids
                   if classification.cuts[p].kind == "vertex_edge")
        (k,) = classification.cuts[pid].edges
        mesh.edge_param[mesh.patch_edges[pid, k]] = 0.0 if mesh.patch_edge_forward[pid, k] else 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            configs = build_configs(mesh, classification, problem.levelset)
            assert np.any(configs.table.areas[configs.shape[pid]] == 0.0)
            with pytest.raises(DegenerateTriangle) as exc:
                assemble(mesh, configs, problem)
        assert str(exc.value) == "inverted subtriangle during assembly"

    def test_unknown_mode_rejected(self):
        mesh, configs = self._adapted(2, LINEAR_X)
        with pytest.raises(ValueError):
            assemble(mesh, configs, LINEAR_X, mode="magic")


class TestAssemblyOracle:
    """``assemble`` against the per-element formulas of ``tests/oracles.py``,
    scattered subtriangle by subtriangle into a dense matrix and vector."""

    @pytest.mark.parametrize(
        "problem,n,strategy",
        [(circle_problem(), 6, 2), (tilted_problem(0.3), 8, 3)],
        ids=["circle-n6", "tilted-n8"],
    )
    def test_matches_per_element_scatter(self, problem, n, strategy):
        mesh = build_structured_mesh(n, problem.domain)
        configs, classification, _ = adapt(mesh, problem.levelset, strategy)
        assert classification.n_cut > 0
        system = assemble(mesh, configs, problem)

        patch_dofs = build_dof_map(mesh).patch_dofs
        rule = reference_quad_rule(2)
        x, y = rule.points.T
        matrix = np.zeros((system.n_dof, system.n_dof))
        rhs = np.zeros(system.n_dof)
        for pid, cfg in enumerate(configs):
            nodes = local_nodes(mesh, pid)
            for topo, side in zip(cfg.topology, cfg.sides):
                tri, dofs = nodes[topo], patch_dofs[pid, topo]
                kappa = problem.kappa1 if side == 1 else problem.kappa2
                matrix[np.ix_(dofs, dofs)] += local_stiffness(tri, kappa)
                points = (np.outer(1 - x - y, tri[0]) + np.outer(x, tri[1])
                          + np.outer(y, tri[2]))
                weights = 2 * triangle_area(tri) * rule.weights
                rhs[dofs] += local_load(tri, points, weights, problem.f)

        dense = system.matrix.toarray()
        assert np.abs(dense - matrix).max() <= 1e-13 * np.abs(matrix).max()
        assert np.abs(system.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()


class TestReduced:
    """``reduced()`` hands CG the assembled matrix itself and the lifted
    load over all dofs: its free entries have the bits of slicing's
    ``b_f - A_fb g``, and it is zero at the Dirichlet dofs."""

    @staticmethod
    def _assembled(problem, n, mode="adapted"):
        mesh = build_structured_mesh(n, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        return assemble(mesh, configs, problem, mode)

    @staticmethod
    def _check(system):
        a, b, free = system.reduced()
        _, ref_b = reduced_reference(system)
        assert a is system.matrix
        np.testing.assert_array_equal(free, system.free_mask())
        assert b.shape == (system.n_dof,)
        assert b[free].tobytes() == ref_b.tobytes()
        assert b[~free].tobytes() == np.zeros(system.n_dof - len(ref_b)).tobytes()
        return b

    @pytest.mark.parametrize("problem, mode", [
        (circle_problem(), "adapted"),
        (tilted_problem(0.3), "adapted"),  # vertex cuts
        (circle_problem(), "baseline"),
    ], ids=["circle", "tilted", "baseline"])
    def test_assembled(self, problem, mode):
        self._check(self._assembled(problem, 8, mode))

    def test_no_dirichlet_dofs(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.4)
        system = LinearSystem(sp.csr_matrix(m.T @ m + np.eye(12)), rng.standard_normal(12),
                              np.array([], dtype=int), np.array([]))
        assert self._check(system).tobytes() == system.rhs.tobytes()

    def test_every_dof_dirichlet(self):
        system = self._assembled(circle_problem(), 4)
        system.dirichlet_dofs = np.arange(system.n_dof)
        system.dirichlet_values = np.linspace(-1.0, 1.0, system.n_dof)
        assert not self._check(system).any()


class TestInterpolateNodal:
    def test_linear_interpolant_solves_constant_kappa_system(self):
        mesh, configs = TestAssemble()._adapted(4, LINEAR_X)
        system = assemble(mesh, configs, LINEAR_X)
        interp = interpolate_nodal(LINEAR_X, mesh)
        a, b, free = system.reduced()
        residual = (a @ np.where(free, interp, 0.0) - b)[free]
        assert np.abs(residual).max() < 1e-12

    def test_interface_nodes_agree_between_branches(self):
        p = circle_problem()
        mesh = build_structured_mesh(16, p.domain)
        adapt(mesh, p.levelset, 2)
        pts = np.concatenate([mesh.vertices, mesh.edge_points()])
        on_gamma = np.abs(p.levelset.eval(pts)) < 1e-12
        assert on_gamma.sum() > 0
        assert np.abs(p.u1(pts[on_gamma]) - p.u2(pts[on_gamma])).max() < 1e-12

    def test_interpolant_h1_error_halves_under_refinement(self):
        p = circle_problem()
        errs = []
        for n in (16, 32):
            mesh = build_structured_mesh(n, p.domain)
            configs, _, _ = adapt(mesh, p.levelset, 2)
            u_i = interpolate_nodal(p, mesh)
            errs.append(error_norms(mesh, configs, p, u_i)[1])
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(2.0, rel=0.25)


class TestSparsityPattern:
    """The dof set never depends on the interface. The stored pattern does,
    through vertex cuts: their topology couples a patch vertex with the node
    on the opposite edge and drops the coupling of the two other edge nodes."""

    N = 16

    def _pattern(self, problem):
        mesh = build_structured_mesh(self.N, problem.domain)
        configs, classification, _ = adapt(mesh, problem.levelset, 2)
        matrix = assemble(mesh, configs, problem).matrix.tocsr()
        has_vertex_cut = any(c.kind == "vertex_edge" for c in classification.cuts)
        return (matrix.indptr.tobytes(), matrix.indices.tobytes()), has_vertex_cut

    def test_horizontal_sweep_has_one_pattern(self):
        patterns = set()
        for eps in np.linspace(0.0, 1.0, 11):
            pattern, has_vertex_cut = self._pattern(horizontal_problem(eps, 2.0 / self.N))
            assert not has_vertex_cut
            patterns.add(pattern)
        assert len(patterns) == 1

    def test_vertex_cuts_change_the_pattern(self):
        uncut, _ = self._pattern(horizontal_problem(0.0, 2.0 / self.N))
        patterns, n_vertex_cut = set(), 0
        for alpha in np.linspace(0.1, 1.4, 11):
            pattern, has_vertex_cut = self._pattern(tilted_problem(alpha))
            assert (pattern != uncut) == has_vertex_cut
            patterns.add(pattern)
            n_vertex_cut += has_vertex_cut
        assert n_vertex_cut > 0
        assert len(patterns) > 1
