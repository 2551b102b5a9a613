"""Tests for dof management, subtriangle quadrature, and global assembly."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from patchfem.adaptation import (
    TOPOLOGIES,
    RefinementRequired,
    adapt,
    build_configs,
    classify_all,
    reference_local_nodes,
    resolve_edge_params,
)
from patchfem.assembly import (
    CUT_DIAGONALS,
    HALVES,
    MIDDLE_SIDES,
    SEGMENT_SLOTS,
    LinearSystem,
    _windows,
    assemble,
)
from patchfem.geometry import LOAD_RULE, DegenerateTriangle, map_rule, triangle_area
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

from .oracles import (
    assemble_reference,
    assert_same_matrix,
    barycentric,
    build_dof_map,
    edge_points,
    free_mask,
    local_load,
    local_nodes,
    local_stiffness,
    reduced_reference,
)

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TOPO_A = TOPOLOGIES[0]


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
        points, weights = patch_rule(nodes, TOPO_A, LOAD_RULE)
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
        _, weights = patch_rule(nodes, TOPO_A, LOAD_RULE)
        assert np.allclose(weights, 1 / 24)

    def test_weights_match_subtriangle_areas(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            q, r, s = rng.uniform(0.02, 0.98, 3)
            nodes = reference_local_nodes(q, r, s)
            _, weights = patch_rule(nodes, TOPO_A, LOAD_RULE)
            areas = triangle_area(nodes[TOPO_A])
            assert np.allclose(weights.sum(axis=1), areas, rtol=1e-13)

    def test_integrates_linear_functions_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            q, r, s = rng.uniform(0.02, 0.98, 3)
            a, b, c = rng.uniform(-2, 2, 3)
            nodes = reference_local_nodes(q, r, s)
            points, weights = patch_rule(nodes, TOPO_A, LOAD_RULE)
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
        return map_rule(tri, triangle_area(tri), LOAD_RULE)

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


def segment_counts(topology) -> dict:
    """How often each segment of ``assembly``'s tables is an edge of one of
    the subtriangles ``topology`` (4, 3), run in its table order (the
    halves) or either way (the diagonals); raises on an edge that is none of
    them."""
    counts = {}
    halves = {tuple(pair) for pair in HALVES}
    diagonals = {tuple(pair) for pair in np.concatenate([MIDDLE_SIDES, CUT_DIAGONALS])}
    for tri in topology.tolist():
        for p, q in zip(tri, tri[1:] + tri[:1]):
            segment = (q, p) if (q, p) in diagonals else (p, q)
            if segment not in halves and segment not in diagonals:
                raise ValueError(f"edge {(p, q)} is no segment of a patch split")
            counts[segment] = counts.get(segment, 0) + 1
    return counts


def check_segments(topology, cut_at) -> None:
    """Each half lies in one subtriangle; the diagonal at each corner, the
    middle side or, at the cut vertex ``cut_at`` (or None), the cut
    diagonal, in two. These nine are every subtriangle edge."""
    counts = segment_counts(topology)
    expected = {tuple(pair): 1 for pair in HALVES}
    for v in range(3):
        expected[tuple((CUT_DIAGONALS if v == cut_at else MIDDLE_SIDES)[v])] = 2
    assert counts == expected


class TestSegmentTables:
    """The segments whose weights ``assemble`` sums, against the four
    topologies: row 0 splits uncut and edge-edge patches, row 1 + v a
    vertex cut at v."""

    @pytest.mark.parametrize("row", range(4))
    def test_topologies_split_into_the_nine_segments(self, row):
        check_segments(TOPOLOGIES[row], None if row == 0 else row - 1)
        # The slots of the weights: the halves, the middle sides, the cut
        # diagonals.
        slots = SEGMENT_SLOTS[6 * TOPOLOGIES[row] + TOPOLOGIES[row][:, [1, 2, 0]]]
        assert np.all(slots >= 0)
        cut = [v == row - 1 for v in range(3)]
        assert np.bincount(slots.ravel(), minlength=12).tolist() == (
            [1] * 6 + [0 if c else 2 for c in cut] + [2 if c else 0 for c in cut])

    @pytest.mark.parametrize("row", range(4))
    @pytest.mark.parametrize("mutation", ["reversed", "swapped node", "other diagonal"])
    def test_mutated_topology_fails(self, row, mutation):
        topology = TOPOLOGIES[row].copy()
        if mutation == "reversed":
            topology[1] = topology[1][::-1]
        elif mutation == "swapped node":
            topology = np.choose(topology, [0, 1, 2, 4, 3, 5])
        else:
            topology = TOPOLOGIES[(row + 1) % 4]
        with pytest.raises((AssertionError, ValueError)):
            check_segments(topology, None if row == 0 else row - 1)


class TestRowWindows:
    """Each block of dof rows reads the mesh's id arrays only within its
    window, so a window must hold every position of its block's ids."""

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_windows_hold_every_position(self, size):
        ids = np.random.default_rng(size).integers(0, 300, size=1000)
        windows = _windows(ids, size, -(-300 // size))
        for block, window in enumerate(windows):
            at = np.flatnonzero(ids // size == block)
            if len(at) == 0:
                assert window.start == window.stop
            else:
                assert (window.start, window.stop) == (at[0], at[-1] + 1)

    def test_grid_windows_are_narrow(self):
        # The row-by-row numbering keeps the windows of the 17 row blocks at
        # n = 128 to about one pass over each array.
        mesh = build_structured_mesh(128)
        n_blocks = -(-(mesh.n_vertices + mesh.n_edges) // 4096)
        for ids in (mesh.edges.ravel(), mesh.n_vertices + mesh.patch_edges.ravel()):
            scanned = sum(w.stop - w.start for w in _windows(ids, 4096, n_blocks))
            assert scanned < 1.25 * len(ids)


class TestAssemble:
    def _adapted(self, n, problem, strategy=2):
        mesh = build_structured_mesh(n, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, strategy)
        return mesh, configs

    def test_linear_exactness(self):
        mesh, configs = self._adapted(4, LINEAR_X)
        system = assemble(mesh, configs, LINEAR_X)
        sol = cg_solve(system).solution
        expected = LINEAR_X.u(mesh.node_planes().T)
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
        system.dirichlet_values = LINEAR_X.u(mesh.node_planes().T)
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
        assert len(classification.cut_ids) > 0
        system = assemble(mesh, configs, problem)

        patch_dofs = build_dof_map(mesh).patch_dofs
        x, y = LOAD_RULE.points.T
        matrix = np.zeros((system.n_dof, system.n_dof))
        rhs = np.zeros(system.n_dof)
        for pid in range(mesh.n_patches):
            nodes = local_nodes(mesh, pid)
            for topo, side in zip(configs.topology(pid), configs.sides[pid]):
                tri, dofs = nodes[topo], patch_dofs[pid, topo]
                kappa = problem.kappa1 if side == 1 else problem.kappa2
                matrix[np.ix_(dofs, dofs)] += local_stiffness(tri, kappa)
                points = (np.outer(1 - x - y, tri[0]) + np.outer(x, tri[1])
                          + np.outer(y, tri[2]))
                weights = 2 * triangle_area(tri) * LOAD_RULE.weights
                rhs[dofs] += local_load(tri, points, weights, problem.f)

        dense = system.matrix.toarray()
        assert np.abs(dense - matrix).max() <= 1e-13 * np.abs(matrix).max()
        assert np.abs(system.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()


class TestReduced:
    """``reduced()`` hands CG the assembled matrix itself, each Dirichlet
    row cut down to its diagonal in place, the load over all dofs, lifted
    in place, and the Dirichlet data g as CG's start vector. The load's
    free entries have the bits of slicing's ``b_f - A_fb g``, and it is
    zero at the Dirichlet dofs. The load is then consumed, and a second
    call raises."""

    @staticmethod
    def _assembled(problem, n, mode="adapted"):
        mesh = build_structured_mesh(n, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        return assemble(mesh, configs, problem, mode)

    @staticmethod
    def _check(system):
        _, ref_b = reduced_reference(system)
        free = free_mask(system)
        rhs, assembled = system.rhs, system.matrix.copy()
        a, b, g = system.reduced()
        assert a is system.matrix
        assert b is rhs and system.rhs is rhs
        assert b.shape == g.shape == (system.n_dof,)
        assert b[free].tobytes() == ref_b.tobytes()
        assert b[~free].tobytes() == np.zeros(system.n_dof - len(ref_b)).tobytes()
        assert g[system.dirichlet_dofs].tobytes() == system.dirichlet_values.tobytes()
        assert not g[free].any()
        # The stored pattern and the free rows keep their bits; each
        # Dirichlet row keeps only its diagonal.
        np.testing.assert_array_equal(a.indptr, assembled.indptr)
        np.testing.assert_array_equal(a.indices, assembled.indices)
        rows = np.repeat(np.arange(system.n_dof), np.diff(a.indptr))
        on_diagonal = a.indices == rows
        kept = free[rows] | on_diagonal
        assert a.data[kept].tobytes() == assembled.data[kept].tobytes()
        assert not a.data[~kept].any()
        assert assembled.data[~kept].any() or not len(system.dirichlet_dofs)
        with pytest.raises(RuntimeError, match="assemble the system again"):
            system.reduced()
        assert b[free].tobytes() == ref_b.tobytes()
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
        rhs = rng.standard_normal(12)
        a = sp.csr_matrix(m.T @ m + np.eye(12))
        system = LinearSystem(a, rhs.copy(), np.array([], dtype=int), np.array([]))
        assert self._check(system).tobytes() == rhs.tobytes()

    def test_every_dof_dirichlet(self):
        system = self._assembled(circle_problem(), 4)
        system.dirichlet_dofs = np.arange(system.n_dof)
        system.dirichlet_values = np.linspace(-1.0, 1.0, system.n_dof)
        assert not self._check(system).any()


class TestInterpolateNodal:
    def test_linear_interpolant_solves_constant_kappa_system(self):
        mesh, configs = TestAssemble()._adapted(4, LINEAR_X)
        system = assemble(mesh, configs, LINEAR_X)
        interp = LINEAR_X.u(mesh.node_planes().T)
        free = free_mask(system)
        a, b, _ = system.reduced()
        residual = (a @ np.where(free, interp, 0.0) - b)[free]
        assert np.abs(residual).max() < 1e-12

    def test_interface_nodes_agree_between_branches(self):
        p = circle_problem()
        mesh = build_structured_mesh(16, p.domain)
        adapt(mesh, p.levelset, 2)
        pts = np.concatenate([mesh.vertices, edge_points(mesh)])
        on_gamma = np.abs(p.levelset.eval(pts)) < 1e-12
        assert on_gamma.sum() > 0
        assert np.abs(p.u1(pts[on_gamma]) - p.u2(pts[on_gamma])).max() < 1e-12

    def test_interpolant_h1_error_halves_under_refinement(self):
        p = circle_problem()
        errs = []
        for n in (16, 32):
            mesh = build_structured_mesh(n, p.domain)
            configs, _, _ = adapt(mesh, p.levelset, 2)
            u_i = p.u(mesh.node_planes().T)
            errs.append(error_norms(mesh, configs, p, u_i)[1])
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(2.0, rel=0.25)


class TestSparsityPattern:
    """The dof set never depends on the interface, and neither does the
    coupling graph (the matrix's pattern with its exact zeros) but through
    vertex cuts: their topology couples a patch vertex with the node on the
    opposite edge and drops the coupling of the two other edge nodes. The
    stored pattern is that graph less its exact zeros, the couplings across
    the right angles of right-isosceles subtriangles, so it also moves with
    the cut set."""

    N = 16

    def _patterns(self, problem):
        mesh = build_structured_mesh(self.N, problem.domain)
        configs, classification, _ = adapt(mesh, problem.levelset, 2)
        stored = assemble(mesh, configs, problem).matrix
        graph, _ = assemble_reference(mesh, configs, problem, zeros=True)
        # The stored entries are the graph's nonzero entries, bit for bit
        # but the diagonal's last digits.
        kept = graph.data != 0.0
        rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
        np.testing.assert_array_equal(np.diff(stored.indptr),
                                      np.bincount(rows[kept], minlength=graph.shape[0]))
        np.testing.assert_array_equal(stored.indices, graph.indices[kept])
        graph_stored = graph.copy()
        graph_stored.eliminate_zeros()
        assert_same_matrix(stored, graph_stored)
        has_vertex_cut = any(c.kind == "vertex_edge" for c in classification.cuts)
        if len(classification.cut_ids) == 0:
            # Each patch's inner diagonal and its half of the cell diagonal
            # cross right angles: 4 exact zeros per patch.
            assert np.count_nonzero(~kept) == 4 * mesh.n_patches
        return _pattern(graph), _pattern(stored), has_vertex_cut

    def test_horizontal_sweep_has_one_pattern(self):
        graphs, stored = set(), set()
        for eps in np.linspace(0.0, 1.0, 11):
            graph, pattern, has_vertex_cut = self._patterns(
                horizontal_problem(eps, 2.0 / self.N))
            assert not has_vertex_cut
            graphs.add(graph)
            stored.add(pattern)
        assert len(graphs) == 1
        assert len(stored) > 1

    def test_vertex_cuts_change_the_pattern(self):
        uncut, _, _ = self._patterns(horizontal_problem(0.0, 2.0 / self.N))
        graphs, n_vertex_cut = set(), 0
        for alpha in np.linspace(0.1, 1.4, 11):
            graph, _, has_vertex_cut = self._patterns(tilted_problem(alpha))
            assert (graph != uncut) == has_vertex_cut
            graphs.add(graph)
            n_vertex_cut += has_vertex_cut
        assert n_vertex_cut > 0
        assert len(graphs) > 1


class TestLocality:
    """A matrix row and a load entry depend only on the patches around their
    dof (the paper's locality): two circles whose centres differ by a small
    move give the same bits, row pattern included, everywhere outside the
    dofs of the patches whose edge parameters, sides or topology differ."""

    N = 64

    def _system(self, centre):
        # The circle problem's f and kappas with the interface moved, so
        # only the interface tells two systems apart.
        problem = dataclasses.replace(circle_problem(), levelset=Circle(centre, 0.5))
        mesh = build_structured_mesh(self.N, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        return mesh, configs, assemble(mesh, configs, problem)

    def check(self, centre, move):
        """The changed patches, and those of their dofs whose rows differ."""
        moved = (centre[0] + move[0], centre[1] + move[1])
        (mesh, configs, system), (other, other_configs, other_system) = (
            self._system(centre), self._system(moved))
        edges = mesh.patch_edges
        changed = (np.any(mesh.edge_param[edges] != other.edge_param[edges], axis=1)
                   | np.any(configs.sides != other_configs.sides, axis=1)
                   | np.any(configs.topology() != other_configs.topology(), axis=(1, 2)))
        near = np.zeros(system.n_dof, dtype=bool)
        near[mesh.patches[changed]] = True
        near[mesh.n_vertices + edges[changed]] = True
        far = np.flatnonzero(~near)
        a, b = system.matrix[far], other_system.matrix[far]
        assert a.indptr.tobytes() == b.indptr.tobytes()
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.data.tobytes() == b.data.tobytes()
        assert system.rhs[far].tobytes() == other_system.rhs[far].tobytes()
        a, b = system.matrix, other_system.matrix
        differ = [i for i in np.flatnonzero(near)
                  if a[i].indices.tobytes() + a[i].data.tobytes()
                  != b[i].indices.tobytes() + b[i].data.tobytes()]
        return changed, differ

    def test_small_move(self):
        changed, differ = self.check((0.0, 0.0), (0.003, -0.002))
        assert np.count_nonzero(changed) == 277
        assert len(differ) == 772

    @settings(derandomize=True, deadline=None, max_examples=10, database=None)
    @given(centre=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
           move=st.tuples(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01)))
    def test_moved_circles(self, centre, move):
        try:
            self.check(centre, move)
        except RefinementRequired:
            reject()


def _pattern(matrix):
    return matrix.indptr.tobytes(), matrix.indices.tobytes()
