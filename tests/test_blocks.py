"""The per-patch integrals run over fixed patch blocks: the results must not
depend on the block size, must equal the whole-mesh references bit for bit,
and their working memory must not grow with the mesh beyond the arrays they
return."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchfem import assembly as assembly_module
from patchfem import mesh as mesh_module
from patchfem.adaptation import (
    CUT_KINDS,
    VERTEX_EDGE,
    Classification,
    CutClass,
    adapt,
    build_configs,
    classify_all,
    max_angle_audit,
)
from patchfem.assembly import DofMap, assemble
from patchfem.mesh import build_structured_mesh, pairwise_sums, patch_blocks
from patchfem.problems import circle_problem, error_norms, tilted_problem
from patchfem.runner import RunConfig, run_single
from patchfem.solver import cg_solve

from .oracles import assemble_buckets_reference, assemble_reference, error_norms_reference

MIB = 2**20


class TestPatchBlocks:
    @pytest.mark.parametrize("n_patches", [0, 1, 4, 5, 12, 15])
    def test_slices_cover_patches_in_order(self, monkeypatch, n_patches):
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        blocks = list(patch_blocks(n_patches))
        covered = np.concatenate([np.arange(n_patches)[b] for b in blocks] + [[]])
        np.testing.assert_array_equal(covered, np.arange(n_patches))
        assert all(0 < b.stop - b.start <= 5 for b in blocks)

    def test_sweep_sizes_run_one_block(self):
        # n <= 64 gives at most 8192 patches: every sweep solve is one block.
        assert len(list(patch_blocks(build_structured_mesh(64).n_patches))) == 1


def _uncut_configs(mesh, levelset):
    """Uniform splits, as the unfitted baseline builds them."""
    classification = Classification(
        [CutClass("uncut")] * mesh.n_patches, {},
        np.zeros(mesh.n_vertices, dtype=bool), np.empty(0, dtype=np.intp),
    )
    return build_configs(mesh, classification, levelset)


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

        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(system.matrix, attr),
                                          getattr(matrix, attr))
        np.testing.assert_array_equal(system.rhs, rhs)
        assert norms == error_norms_reference(mesh, configs, problem, u_h)


def _same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestRowBlocks:
    """The matrix is built one block of ``PATCH_BLOCK`` dof rows at a time.
    It equals the whole-mesh bucketed path (every element-matrix row in one
    CSR array with duplicates, one ``sum_duplicates``) bit for bit, with
    row blocks that do not divide the dof count and with a single block."""

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

        if problem.name == "tilted":
            assert np.any(configs.kind == CUT_KINDS.index(VERTEX_EDGE))
        for attr in ("indptr", "indices", "data"):
            _same_bits(getattr(system.matrix, attr), getattr(matrix, attr))
        _same_bits(system.rhs, rhs)

    def test_two_patterns_match_the_bucketed_path(self, monkeypatch):
        """Two tilted interfaces that cut different vertices give two
        stored patterns, and both match the bucketed path."""
        monkeypatch.setattr(mesh_module, "PATCH_BLOCK", 5)
        patterns = set()
        for alpha in (0.3, 1.0):
            problem = tilted_problem(alpha)
            mesh = build_structured_mesh(8, problem.domain)
            configs, _, _ = adapt(mesh, problem.levelset, 2)
            system = assemble(mesh, configs, problem)
            matrix, _ = assemble_buckets_reference(mesh, configs, problem)
            for attr in ("indptr", "indices", "data"):
                _same_bits(getattr(system.matrix, attr), getattr(matrix, attr))
            patterns.add((matrix.indptr.tobytes(), matrix.indices.tobytes()))
        assert len(patterns) == 2


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(n_patches=st.integers(1, 40000), block=st.sampled_from([1, 5, 2**14]),
       seed=st.integers(0, 2**32 - 1))
def test_pairwise_sums_equal_np_sum(n_patches, block, seed):
    """The spans tile the flat arrays in order, each at most 4 * block
    elements (or NumPy's 128-element run), and their sums combine to
    ``np.sum`` of the whole C-ordered arrays bit for bit."""
    rng = np.random.default_rng(seed)
    shape = (n_patches, 4, 7)
    positive = rng.random(shape) * 10.0 ** rng.integers(-8, 8, shape)
    signed = rng.standard_normal(shape)
    spans = []

    def leaf(start, stop):
        spans.append((start, stop))
        return np.sum(positive.ravel()[start:stop]), np.sum(signed.ravel()[start:stop])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh_module, "PATCH_BLOCK", block)
        sums = pairwise_sums(leaf, n_patches, 28)
    assert sums == (np.sum(positive), np.sum(signed))
    starts, stops = np.array(spans).T
    assert starts[0] == 0 and stops[-1] == positive.size
    np.testing.assert_array_equal(starts[1:], stops[:-1])
    assert np.all(stops - starts <= max(4 * block, 128))


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
        # The error integrands are formed per span of the pairwise sum.
        (n_spans,) = pairwise_sums(lambda start, stop: (1,), mesh.n_patches, 4 * 7)
        assert counting.calls == n_spans

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


# Measured traced peaks at n = 128 are 18.2 MiB (assemble, the matrix built
# one block of dof rows at a time, the int64 patch dofs dropped once the
# subtriangle dofs exist, each patch block's load arrays freed before the
# next block's are made) and 6.6 MiB (error_norms, integrand spans of at
# most 4 * PATCH_BLOCK elements); the bounds add 20%. Holding the patch dofs
# through the matrix build, assemble peaked at 19.8 MiB; with the CSR array
# with duplicates over the whole mesh and spans of PATCH_BLOCK patches the
# same calls peaked at 36.5 and 42.0 MiB, with the whole-mesh COO and
# integrand arrays at 43.1 and 59.5 MiB, and without the patch blocks at
# 84.6 and 89.0 MiB.
ASSEMBLE_BOUND_MIB = 21.9
ERRORS_BOUND_MIB = 7.9
# With blocks of 512 patches (and dof rows) the block temporaries are
# small, and the peaks show what each call holds over the whole mesh:
# measured 10.6 MiB (assemble: the row order, kappa * area, the loads, the
# node coordinates and the returned matrix) and 1.76 MiB (error_norms, which
# holds the node coordinates instead of the int64 patch dofs), plus 20%.
# With the whole-mesh subtriangle geometry they peaked at 11.6 and 2.3 MiB;
# the CSR array with duplicates at 19.4 MiB, the whole-mesh COO at 43.1, and
# the whole-mesh integrand arrays at 16.9 (2.8 with the patch-block spans).
SMALL_BLOCK = 512
ASSEMBLE_SMALL_BLOCK_BOUND_MIB = 12.8
ERRORS_SMALL_BLOCK_BOUND_MIB = 2.2
# The same for the shape table: 14.8 MiB (build_configs, whose patch-block
# keys and subtriangles are the largest part) and 0.67 MiB (max_angle_audit,
# angles of the shapes only), plus 20%. Storing the whole-mesh subtriangle
# geometry they peaked at 19.8 MiB (returning 14.3 MiB of arrays) and
# 11.8 MiB.
CONFIGS_BOUND_MIB = 17.8
AUDIT_BOUND_MIB = 0.81
# A vector over the 66,049 dofs at n = 128 is 0.50 MiB and the matrix 5.52.
# LinearSystem.reduced: 1.07 MiB measured (the lifted load, the Dirichlet
# data vector and the free mask), plus 20%. Copying the free rows and
# columns into A_ff peaked at 8.1 MiB, slicing them at 12.2.
REDUCED_BOUND_MIB = 1.3
# cg_solve: 4.38 MiB measured (its vectors over all dofs), plus 20%: below
# the matrix itself, so a copy of it fails. On a separate A_ff it peaked at
# 10.3 MiB.
CG_SOLVE_BOUND_MIB = 5.3
# A whole run_single of the tilted problem at n = 128 with strategy 3,
# every stage included: 23.8 MiB measured, plus 20%. It was 36.7 MiB with
# the whole-mesh subtriangle geometry, 38.1 MiB with a separate A_ff and
# the patch dofs held through the matrix build, and its largest stage was
# error_norms at 67.0 MiB before the row blocks and the capped spans.
RUN_SINGLE_BOUND_MIB = 28.6


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

    def test_dof_map_freed_before_the_matrix_build(self, monkeypatch):
        """Its int64 patch dofs (1.5 MiB at n = 128) are not held while the
        matrix is built, as the 20% margins of the bounds above would let
        through."""
        problem = circle_problem()
        mesh = build_structured_mesh(16, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        stiffness, alive = assembly_module._stiffness, []

        def counting(*args):
            alive.append(sum(isinstance(o, DofMap) for o in gc.get_objects()))
            return stiffness(*args)

        monkeypatch.setattr(assembly_module, "_stiffness", counting)
        assemble(mesh, configs, problem)
        assert alive == [0]

    def test_run_single(self):
        config = RunConfig(problem="tilted", n=128, strategy=3, alpha=0.3)
        assert _traced_peak_mib(run_single, config) < RUN_SINGLE_BOUND_MIB
