"""The per-patch integrals run over fixed patch blocks: the results must not
depend on the block size, must equal the whole-mesh references bit for bit,
and their working memory must not grow with the mesh beyond the arrays they
return."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from patchfem import assembly as assembly_module
from patchfem import mesh as mesh_module
from patchfem.adaptation import (
    CUT_KINDS,
    VERTEX_EDGE,
    Classification,
    adapt,
    build_configs,
    classify_all,
    max_angle_audit,
)
from patchfem.assembly import assemble
from patchfem.mesh import build_structured_mesh, index_dtype, patch_blocks
from patchfem.problems import ERROR_BLOCK_WEIGHT, circle_problem, error_norms, tilted_problem
from patchfem.runner import RunConfig, run_single
from patchfem.solver import cg_solve

from .oracles import (
    assemble_buckets_reference,
    assemble_reference,
    assert_same_matrix,
    error_norms_reference,
)

MIB = 2**20


class TestPatchBlocks:
    @pytest.mark.parametrize("n_patches", [0, 1, 4, 5, 12, 15])
    def test_slices_cover_patches_in_order(self, monkeypatch, n_patches):
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        blocks = list(patch_blocks(n_patches))
        covered = np.concatenate([np.arange(n_patches)[b] for b in blocks] + [[]])
        np.testing.assert_array_equal(covered, np.arange(n_patches))
        assert all(0 < b.stop - b.start <= 5 for b in blocks)

    @pytest.mark.parametrize("weight, size", [(2, 2), (5, 1), (16, 1)])
    def test_weight_divides_the_block(self, monkeypatch, weight, size):
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        blocks = list(patch_blocks(12, weight))
        assert [b.stop - b.start for b in blocks] == [size] * (12 // size)
        assert blocks[0].start == 0 and blocks[-1].stop == 12
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))

    def test_sweep_sizes_run_one_block(self):
        # n <= 64 gives at most 8192 patches: every sweep solve is one block.
        assert len(list(patch_blocks(build_structured_mesh(64).n_patches))) == 1


def _uncut_configs(mesh, levelset):
    """Uniform splits, as the unfitted baseline builds them."""
    return build_configs(mesh, Classification.uncut(mesh), levelset)


def _pipeline(problem, n, mode):
    mesh = build_structured_mesh(n, problem.domain)
    if mode == "baseline":
        configs = _uncut_configs(mesh, problem.levelset)
    else:
        configs, _, _ = adapt(mesh, problem.levelset, 2)
    system = assemble(mesh, configs, problem, mode=mode)
    u_h = np.random.default_rng(n).standard_normal(system.n_dof)
    audit = max_angle_audit(mesh, configs)
    return mesh, configs, system, error_norms(mesh, configs, problem, u_h), audit


class TestBlockInvariance:
    """A block size that does not divide the patch count (5) gives the same
    bytes as one block over the whole mesh."""

    @pytest.mark.parametrize(
        "problem, n, mode",
        [
            (circle_problem(), 6, "adapted"),
            (tilted_problem(0.3), 8, "adapted"),  # vertex cuts
            (circle_problem(), 6, "baseline"),
        ],
        ids=["circle", "tilted", "baseline"],
    )
    def test_bitwise_equal_to_one_block(self, monkeypatch, problem, n, mode):
        _, whole_configs, whole, norms, audit = _pipeline(problem, n, mode)
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        mesh, configs, blocked, blocked_norms, blocked_audit = _pipeline(problem, n, mode)

        assert mesh.n_patches % 5 != 0
        if problem.name == "tilted":
            assert np.any(configs.kind == 2)
        # Shapes deduped per block and merged are the whole-mesh ones.
        np.testing.assert_array_equal(configs.shape, whole_configs.shape)
        for attr in ("tris", "areas", "grads"):
            np.testing.assert_array_equal(getattr(configs.table, attr),
                                          getattr(whole_configs.table, attr))
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(blocked.matrix, attr),
                                          getattr(whole.matrix, attr))
        np.testing.assert_array_equal(blocked.rhs, whole.rhs)
        np.testing.assert_array_equal(blocked.dirichlet_values, whole.dirichlet_values)
        assert blocked_norms == norms
        np.testing.assert_array_equal(blocked_audit.per_patch, audit.per_patch)
        np.testing.assert_array_equal(blocked_audit.histogram, audit.histogram)
        assert blocked_audit.global_max == audit.global_max

    @pytest.mark.parametrize(
        "problem, n, mode",
        [
            (circle_problem(), 6, "adapted"),
            (tilted_problem(0.3), 8, "adapted"),  # vertex cuts
            (circle_problem(), 6, "baseline"),
        ],
        ids=["circle", "tilted", "baseline"],
    )
    def test_bitwise_equal_to_whole_mesh_reference(self, monkeypatch, problem, n, mode):
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        mesh, configs, system, norms, _ = _pipeline(problem, n, mode)
        matrix, rhs = assemble_reference(mesh, configs, problem, mode)
        u_h = np.random.default_rng(n).standard_normal(system.n_dof)

        assert_same_matrix(system.matrix, matrix)
        np.testing.assert_array_equal(system.rhs, rhs)
        assert norms == error_norms_reference(mesh, configs, problem, u_h)


def _same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestRowBlocks:
    """The matrix is written one block of ``PATCH_BLOCK`` dof rows at a
    time. It equals the whole-mesh bucketed path (every element-matrix row
    in one CSR array with duplicates, one ``sum_duplicates``, the exact
    zeros dropped) in its pattern and off-diagonals bit for bit, and in its
    diagonal within ``DIAGONAL_RTOL``, with row blocks that do not divide
    the dof count and with a single block."""

    @pytest.mark.parametrize("block", [5, "one"])
    @pytest.mark.parametrize(
        "problem, n, mode",
        [
            (circle_problem(), 6, "adapted"),
            (tilted_problem(0.3), 8, "adapted"),  # vertex cuts
            (circle_problem(), 6, "baseline"),
        ],
        ids=["circle", "tilted", "baseline"],
    )
    def test_bitwise_equal_to_bucketed_path(self, monkeypatch, problem, n, mode, block):
        mesh = build_structured_mesh(n, problem.domain)
        if mode == "baseline":
            configs = _uncut_configs(mesh, problem.levelset)
        else:
            configs, _, _ = adapt(mesh, problem.levelset, 2)
        n_dof = mesh.n_vertices + mesh.n_edges
        if block == "one":
            block = max(n_dof, mesh.n_patches)
        else:
            assert n_dof % block != 0
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", block)
        system = assemble(mesh, configs, problem, mode=mode)
        matrix, rhs = assemble_buckets_reference(mesh, configs, problem, mode)
        graph, _ = assemble_buckets_reference(mesh, configs, problem, mode, zeros=True)

        if problem.name == "tilted":
            assert np.any(configs.kind == CUT_KINDS.index(VERTEX_EDGE))
        assert_same_matrix(system.matrix, matrix)
        _same_bits(system.rhs, rhs)
        assert matrix.nnz < graph.nnz

    def test_two_patterns_match_the_bucketed_path(self, monkeypatch):
        """Two tilted interfaces that cut different vertices give two
        coupling graphs, each of the closed-form entry count, and stored
        patterns that match the bucketed path."""
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        patterns = set()
        for alpha in (0.3, 1.0):
            problem = tilted_problem(alpha)
            mesh = build_structured_mesh(8, problem.domain)
            configs, _, _ = adapt(mesh, problem.levelset, 2)
            system = assemble(mesh, configs, problem)
            matrix, _ = assemble_buckets_reference(mesh, configs, problem)
            assert_same_matrix(system.matrix, matrix)
            graph, _ = assemble_buckets_reference(mesh, configs, problem, zeros=True)
            assert graph.nnz == system.n_dof + 6 * mesh.n_patches + 4 * mesh.n_edges
            patterns.add((graph.indptr.tobytes(), graph.indices.tobytes()))
        assert len(patterns) == 2


class _CountingLevelSet:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def eval(self, points):
        self.calls += 1
        return self.inner.eval(points)


class TestOneLevelSetPass:
    """The side mask at a set of quadrature points is computed once and
    selects every analytic field evaluated there."""

    @pytest.mark.parametrize("mode", ["adapted", "baseline"])
    def test_per_block(self, monkeypatch, mode):
        problem = circle_problem()
        mesh = build_structured_mesh(6, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        n_blocks = len(list(patch_blocks(mesh.n_patches)))
        counting = _CountingLevelSet(problem.levelset)
        problem = dataclasses.replace(problem, levelset=counting)

        system = assemble(mesh, configs, problem, mode=mode)
        assert counting.calls == n_blocks + 1  # load points, then Dirichlet data
        counting.calls = 0
        error_norms(mesh, configs, problem, np.zeros(system.n_dof))
        # The error integrands are formed per error block, here one patch.
        assert counting.calls == len(list(patch_blocks(mesh.n_patches,
                                                        ERROR_BLOCK_WEIGHT)))
        assert counting.calls == mesh.n_patches

    def test_mask_selects_like_the_level_set(self):
        problem = circle_problem()
        points = np.random.default_rng(1).uniform(-1.0, 1.0, size=(5, 7, 2))
        mask = problem.inside(points)
        assert mask.any() and not mask.all()
        for field in (problem.u, problem.grad_u, problem.f):
            np.testing.assert_array_equal(field(points, mask), field(points))


def _traced_peak_mib(fn, *args, **kwargs):
    """Peak of traced allocations during ``fn`` above what was held on entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


# Measured traced peaks at n = 128 are 6.8 MiB (build_structured_mesh:
# int32 index arrays, the edge directions and diameters formed one patch
# block at a time) and 14.3 MiB (adapt, whose largest part is build_configs'
# patch-block keys and subtriangles); the bounds add 20%. With int64 index
# arrays and (n_patches, 3, 2) temporaries the mesh build peaked at
# 14.1 MiB.
MESH_BOUND_MIB = 8.2
ADAPT_BOUND_MIB = 17.2
# Measured traced peaks at n = 128 are 15.4 MiB (assemble: the loads and
# the segment weights summed in one pass over the patch blocks, each
# block's load arrays freed before its stiffness terms are made, then the
# matrix written one block of dof rows at a time into arrays of its stored
# size; the bound stays, below that peak + 20%; with each block of dof rows
# finding and sorting its own element rows it was 14.0 MiB, and 36.1 against
# 33.0 MiB at n = 256) and 4.3 MiB (error_norms: the node coordinates,
# the per-patch sums and one block of PATCH_BLOCK // 16 patches'
# integrands, each block's freed before the next block's are made); the
# bounds add 20%. With integrand spans of at most 4 * PATCH_BLOCK elements
# summed in NumPy's pairwise order, error_norms peaked at 6.5 MiB, and with
# blocks of 2,048 patches at 7.0 MiB. Forming the products
# per element row, assemble peaked at 14.8 MiB; with the exact zeros
# stored and the kappa * area of every subtriangle held through the matrix
# build, at 16.2 MiB; with one whole-mesh int64 sort of the
# element rows and int64 mesh arrays, at 19.5 MiB, and at 19.8 MiB holding
# the patch dofs through the matrix build; with the CSR array with
# duplicates over the whole mesh and spans of PATCH_BLOCK patches the same
# calls peaked at 36.5 and 42.0 MiB, with the
# whole-mesh COO and integrand arrays at 43.1 and 59.5 MiB, and without the
# patch blocks at 84.6 and 89.0 MiB.
ASSEMBLE_BOUND_MIB = 16.9
ERRORS_BOUND_MIB = 5.2
# With blocks of 512 patches (and dof rows) the block temporaries are
# small, and the peaks show what each call holds over the whole mesh:
# measured 7.0 MiB (assemble: the loads, the node coordinates, the segment
# weights and the returned matrix; 8.1 MiB with the whole-mesh subtriangle
# dofs and the matrix arrays at the coupling graph's size) and 1.8 MiB
# (error_norms, which holds the node
# coordinates instead of the patch dofs, and the per-patch sums), plus 20%. Holding kappa * area
# over the mesh, assemble peaked at 9.1 MiB; holding the whole-mesh row
# order, at 10.7 MiB; with the whole-mesh subtriangle geometry they peaked
# at 11.6 and 2.3 MiB; the CSR array with duplicates at 19.4 MiB, the
# whole-mesh COO at 43.1, and the whole-mesh integrand arrays at 16.9 (2.8
# with the patch-block spans).
SMALL_BLOCK = 512
ASSEMBLE_SMALL_BLOCK_BOUND_MIB = 8.4
ERRORS_SMALL_BLOCK_BOUND_MIB = 2.2
# The same for the shape table: 14.26 MiB (build_configs, whose patch-block
# keys and subtriangles are the largest part; the cut patches' anchor
# labels add nothing to the peak) and 0.67 MiB (max_angle_audit, angles of
# the shapes only), plus 20%. Storing the whole-mesh subtriangle geometry
# they peaked at 19.8 MiB (returning 14.3 MiB of arrays) and 11.8 MiB.
CONFIGS_BOUND_MIB = 17.1
AUDIT_BOUND_MIB = 0.81
# adapt with blocks of SMALL_BLOCK patches: 2.33 MiB (what it returns and
# the crossings of every edge), plus 20%. It read 3.0 MiB in earlier
# trees; classify_all over the whole mesh at once peaked at 7.9 MiB.
ADAPT_SMALL_BLOCK_BOUND_MIB = 2.8
# A vector over the 66,049 dofs at n = 128 is 0.50 MiB and the matrix 4.05
# (5.52 with its exact zeros stored).
# LinearSystem.reduced: 1.01 MiB measured (the Dirichlet data vector,
# returned as CG's start vector, and its product with the matrix; the load
# is lifted in place, and the Dirichlet rows are cleared through index
# arrays over their entries only), plus 20%. Lifting it into a new vector
# peaked at 1.07 MiB, copying the free rows and columns into A_ff at
# 8.1 MiB, slicing them at 12.2.
REDUCED_BOUND_MIB = 1.2
# cg_solve: 2.80 MiB measured (x, p, the inverse diagonal and each span's
# A p, whose buffer also holds alpha p and z; r is the system's lifted
# load), plus 20%: below the matrix itself, so a copy of it fails. With r
# a vector of its own it peaked at 3.37 MiB, with separate vectors for
# alpha p and z at 4.38 MiB, on a separate A_ff at 10.3 MiB.
CG_SOLVE_BOUND_MIB = 3.5
# A whole run_single of the tilted problem at n = 128 with strategy 3,
# every stage included: 16.5 MiB measured, plus 20%. It was 17.8 MiB with
# the gradient products formed per element row, 19.1 MiB with
# the exact zeros stored, kappa * area held and a second load vector,
# 24.9 MiB with int64 mesh arrays and whole-mesh sorts and
# classification, 36.7 MiB with the whole-mesh subtriangle geometry,
# 38.1 MiB with a separate A_ff and the patch dofs held through the matrix
# build, and its largest stage was error_norms at 67.0 MiB before the row
# blocks and the capped spans.
RUN_SINGLE_BOUND_MIB = 19.8
# A second run_single on the grid of the first (the circle at n = 128,
# strategy 2 then 3), both traced from before the first: 17.1 MiB each,
# since a solve keeps nothing for the next. It was 21.55 against 17.90 MiB
# (1.20x) while each process kept the last grid's mesh, matrix, edge
# parameters, topologies and side labels into the next solve.
SAME_GRID_PEAK_RATIO = 1.05
# What run_single leaves allocated when it returns (the circle at n = 128):
# 0.03 MiB measured, against 2.23 MiB while each process kept the mesh of
# the grid it solved last.
KEPT_BOUND_MIB = 0.25


class TestPeakMemory:
    """Traced peaks at n = 128 (32,768 patches, two patch blocks, five blocks
    of dof rows), above what each call holds on entry. tracemalloc sees
    every NumPy allocation, so a new temporary over the whole mesh, in any
    stage of a solve, fails these bounds."""

    @pytest.fixture(scope="class")
    def circle(self):
        problem = circle_problem()
        mesh = build_structured_mesh(128, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        return problem, mesh, configs

    def test_build_structured_mesh(self):
        problem = circle_problem()
        assert (_traced_peak_mib(build_structured_mesh, 128, problem.domain)
                < MESH_BOUND_MIB)

    def test_adapt(self):
        problem = circle_problem()
        mesh = build_structured_mesh(128, problem.domain)
        assert _traced_peak_mib(adapt, mesh, problem.levelset, 2) < ADAPT_BOUND_MIB

    def test_adapt_small_blocks(self, monkeypatch):
        problem = circle_problem()
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", SMALL_BLOCK)
        mesh = build_structured_mesh(128, problem.domain)
        assert (_traced_peak_mib(adapt, mesh, problem.levelset, 2)
                < ADAPT_SMALL_BLOCK_BOUND_MIB)

    def test_assemble(self, circle):
        problem, mesh, configs = circle
        assert _traced_peak_mib(assemble, mesh, configs, problem) < ASSEMBLE_BOUND_MIB

    def test_error_norms(self, circle):
        problem, mesh, configs = circle
        u_h = np.zeros(mesh.n_vertices + mesh.n_edges)
        assert _traced_peak_mib(error_norms, mesh, configs, problem, u_h) < ERRORS_BOUND_MIB

    def test_assemble_small_blocks(self, circle, monkeypatch):
        problem, mesh, configs = circle
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", SMALL_BLOCK)
        assert (_traced_peak_mib(assemble, mesh, configs, problem)
                < ASSEMBLE_SMALL_BLOCK_BOUND_MIB)

    def test_error_norms_small_blocks(self, circle, monkeypatch):
        problem, mesh, configs = circle
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", SMALL_BLOCK)
        u_h = np.zeros(mesh.n_vertices + mesh.n_edges)
        assert (_traced_peak_mib(error_norms, mesh, configs, problem, u_h)
                < ERRORS_SMALL_BLOCK_BOUND_MIB)

    def test_build_configs(self, circle):
        problem, mesh, _ = circle
        classification = classify_all(mesh, problem.levelset)
        assert _traced_peak_mib(build_configs, mesh, classification,
                                problem.levelset) < CONFIGS_BOUND_MIB

    def test_max_angle_audit(self, circle):
        _, mesh, configs = circle
        assert _traced_peak_mib(max_angle_audit, mesh, configs) < AUDIT_BOUND_MIB

    def test_reduced(self, circle):
        problem, mesh, configs = circle
        system = assemble(mesh, configs, problem)
        assert _traced_peak_mib(system.reduced) < REDUCED_BOUND_MIB

    def test_cg_solve(self, circle):
        problem, mesh, configs = circle
        system = assemble(mesh, configs, problem)
        matrix = system.matrix
        matrix_mib = (matrix.data.nbytes + matrix.indices.nbytes
                      + matrix.indptr.nbytes) / MIB
        assert CG_SOLVE_BOUND_MIB < matrix_mib
        assert _traced_peak_mib(cg_solve, system) < CG_SOLVE_BOUND_MIB

    def test_run_single(self):
        config = RunConfig(problem="tilted", n=128, strategy=3, alpha=0.3)
        assert _traced_peak_mib(run_single, config) < RUN_SINGLE_BOUND_MIB

    def test_second_solve_on_one_grid(self):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_single(RunConfig(problem="circle", n=128, strategy=2))
            first = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            run_single(RunConfig(problem="circle", n=128, strategy=3))
            second = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert second < SAME_GRID_PEAK_RATIO * first

    def test_run_single_keeps_nothing(self):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_single(RunConfig(problem="circle", n=128, strategy=2))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept / MIB < KEPT_BOUND_MIB

    @pytest.mark.parametrize("mode", ["adapted", "baseline"])
    def test_run_single_forms_no_local_params(self, monkeypatch, mode):
        """A solve holds no (q, r, s) per patch: only the angle rows and
        the mesh dump list them, formed from the edge parameters."""
        def refuse(mesh):
            raise AssertionError("a solve formed (q, r, s) for every patch")

        monkeypatch.setattr(mesh_module.PatchMesh, "local_params_all", refuse)
        run_single(RunConfig(problem="circle", n=16, mode=mode))

    @pytest.mark.parametrize("mode", ["adapted", "baseline"])
    def test_assemble_forms_no_float_per_subtriangle(self, monkeypatch, mode):
        """Assembly forms kappa * area of each subtriangle one patch block at
        a time, from its side label or, in the baseline, its quadrature
        average: no NumPy call in ``patchfem.assembly`` returns a float
        array with one entry per subtriangle of the mesh. A call that forms
        one is seen."""
        problem = circle_problem()
        mesh = build_structured_mesh(8, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        formed = []

        class Watched:
            """NumPy, or one of its functions, with every result looked at."""

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                attr = getattr(self.inner, name)
                return attr if isinstance(attr, type) or not callable(attr) else Watched(attr)

            def __call__(self, *args, **kwargs):
                result = self.inner(*args, **kwargs)
                if (isinstance(result, np.ndarray) and result.dtype.kind == "f"
                        and result.shape == (mesh.n_patches, 4)):
                    formed.append(self.inner.__name__)
                return result

        monkeypatch.setattr(assembly_module, "np", Watched(np))
        assemble(mesh, configs, problem, mode=mode)
        assert formed == []
        assembly_module.np.zeros((mesh.n_patches, 4))
        assert formed == ["zeros"]

    def test_index_dtypes(self):
        """The mesh's index arrays are int32 at n = 256; the rule widens
        them, and assembly's, to int64 once a count reaches 2**31."""
        mesh = build_structured_mesh(256)
        for name in ("edges", "patches", "patch_edges"):
            assert getattr(mesh, name).dtype == np.int32, name
        assert index_dtype(2**31 - 1) is np.int32
        assert index_dtype(2**31) is np.int64
        # The mesh's count is its nodes, (2n + 1)^2 on the n x n grid.
        assert index_dtype((2 * 23169 + 1) ** 2) is np.int32
        assert index_dtype((2 * 23170 + 1) ** 2) is np.int64
        # Assembly's: the stored entries, and the dofs.
        assert index_dtype(2**31 - 1, 10) is np.int32
        assert index_dtype(2**31, 10) is np.int64
