"""A solve that reuses the workspace of the previous solve on its grid gives
the bytes of a solve from scratch: rows and matrices."""

import numpy as np
import pytest

from patchfem import assembly, runner
from patchfem.adaptation import (
    Classification,
    RefinementRequired,
    adapt,
    build_configs,
)
from patchfem.assembly import assemble
from patchfem.mesh import build_structured_mesh
from patchfem.problems import horizontal_problem
from patchfem.runner import RunConfig, make_problem, run_single, write_csv


def _csv(configs, tmp_path, reuse: bool) -> bytes:
    """The rows of ``configs`` solved in order, each after the one before
    it (``reuse``) or with no workspace left, as CSV bytes."""
    rows = []
    for config in configs:
        if not reuse:
            runner._workspace = None
        rows.append(run_single(config).as_list())
    path = tmp_path / f"reuse-{reuse}.csv"
    write_csv(str(path), runner.SOLVE_HEADER, rows)
    return path.read_bytes()


def _same_rows(configs, tmp_path):
    assert _csv(configs, tmp_path, True) == _csv(configs, tmp_path, False)


def test_shuffled_horizontal_offsets(tmp_path):
    offsets = [0.0, 1e-12, 1.0, 0.3, 0.5, 0.725, 0.3, 1e-12, 0.05, 0.95]
    np.random.default_rng(0).shuffle(offsets)
    _same_rows([RunConfig(problem="horizontal", n=16, eps=eps) for eps in offsets],
               tmp_path)


@pytest.mark.parametrize("strategy", [2, 3])
def test_tilted_sweep_whose_pattern_changes(tmp_path, strategy):
    alphas = np.linspace(0.1, 1.4, 9).tolist()
    patterns = set()
    for alpha in alphas:
        problem = make_problem("tilted", 16, alpha=alpha)
        mesh = build_structured_mesh(16, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, strategy)
        matrix = assemble(mesh, configs, problem).matrix
        patterns.add(matrix.indptr.tobytes() + matrix.indices.tobytes())
    assert len(patterns) > 1
    _same_rows([RunConfig(problem="tilted", n=16, strategy=strategy, alpha=alpha)
                for alpha in alphas], tmp_path)


def test_circle_then_horizontal(tmp_path):
    _same_rows([RunConfig(problem="circle", n=16),
                RunConfig(problem="horizontal", n=16, eps=0.3),
                RunConfig(problem="circle", n=16, strategy=3)], tmp_path)


def test_adapted_then_baseline(tmp_path):
    _same_rows([RunConfig(problem="circle", n=16),
                RunConfig(problem="circle", n=16, mode="baseline"),
                RunConfig(problem="horizontal", n=16, eps=0.3, mode="baseline"),
                RunConfig(problem="horizontal", n=16, eps=0.6)], tmp_path)


def test_refinement_retry(tmp_path):
    # The circle needs n = 24 where n = 12 is asked for.
    _same_rows([RunConfig(problem="horizontal", n=12, eps=0.3),
                RunConfig(problem="circle", n=12),
                RunConfig(problem="horizontal", n=24, eps=0.3),
                RunConfig(problem="horizontal", n=12, eps=0.6)], tmp_path)


def test_other_kappas_reassemble_every_row(monkeypatch):
    # Same interface, so no patch changed: only the kappas tell the rows apart.
    run_single(RunConfig(problem="horizontal", n=16, eps=0.3))
    monkeypatch.setattr(runner, "make_problem", lambda name, n, eps, alpha:
                        horizontal_problem(eps, 2.0 / n, kappa1=0.5))
    reused = run_single(RunConfig(problem="horizontal", n=16, eps=0.3))
    runner._workspace = None
    assert reused == run_single(RunConfig(problem="horizontal", n=16, eps=0.3))


def test_failed_solve_keeps_the_last_good_workspace(tmp_path):
    run_single(RunConfig(problem="horizontal", n=12, eps=0.3))
    kept = runner._workspace.assembled
    with pytest.raises(RefinementRequired):
        runner._solve_once(RunConfig(problem="circle", n=12), 12)
    assert runner._workspace.assembled is kept
    _same_rows([RunConfig(problem="horizontal", n=12, eps=0.6)], tmp_path)


def test_other_topologies_reassemble_every_row():
    """Same edge parameters, other topologies: the coupling graph moves, so
    the last matrix is not reused, and is let go of."""
    problem = make_problem("tilted", 16, alpha=0.3)
    mesh = build_structured_mesh(16, problem.domain)
    configs, classification, _ = adapt(mesh, problem.levelset, 2)
    assert np.any(configs.kind == 2)
    system = assemble(mesh, configs, problem)
    matrix = system.matrix
    data = matrix.data.copy()
    other = build_configs(mesh, Classification.uncut(mesh), problem.levelset)
    fresh = assemble(mesh, other, problem).matrix
    reused = assemble(mesh, other, problem, previous=(
        mesh.edge_param, configs.topology, configs.sides, matrix, system.half_row)).matrix
    for attr in ("indptr", "indices", "data"):
        assert getattr(reused, attr).tobytes() == getattr(fresh, attr).tobytes()
    assert not np.shares_memory(reused.data, matrix.data)
    assert matrix.data.tobytes() == data.tobytes()


@pytest.fixture
def computed(monkeypatch):
    """What each call of ``_stiffness`` did, in order: ("full", rows) for
    every row, ("kept", rows) where it computed ``rows`` rows over the last
    matrix, and ("moved", rows) where a computed row stored other columns
    than the last matrix's, after which the assembly computes every row.
    The rows are those of each block of dof rows whose element rows
    ``_row_order`` finds, summed over the blocks."""
    calls = []
    stiffness, row_order = assembly._stiffness, assembly._row_order

    def counting_assembly(*args):
        calls.append(["full" if len(args) == 6 else "kept", 0])
        result = stiffness(*args)
        if result is None:
            calls[-1][0] = "moved"
        return result

    def counting_block(flat, n_dof, rows, spans):
        calls[-1][1] += len(rows)
        return row_order(flat, n_dof, rows, spans)

    monkeypatch.setattr(assembly, "_stiffness", counting_assembly)
    monkeypatch.setattr(assembly, "_row_order", counting_block)
    return calls


def _stored_pattern(problem_name, n, **params):
    problem = make_problem(problem_name, n, **params)
    mesh = build_structured_mesh(n, problem.domain)
    matrix = assemble(mesh, adapt(mesh, problem.levelset, 2)[0], problem).matrix
    return matrix.indptr.tobytes(), matrix.indices.tobytes()


def test_two_edge_sweep_reuses_one_pattern(computed):
    """Two-edge cuts of one cell row, all below its mid-line, leave the
    stored pattern alone: the reused matrices take the first one's index
    arrays, hold the bits of a matrix built from scratch, and only the rows
    around the moved patches are computed."""
    first = None
    for eps in (0.3, 0.1, 0.45, 0.2, 0.3):
        run_single(RunConfig(problem="horizontal", n=16, eps=eps))
        matrix = runner._workspace.assembled[-2]
        problem = make_problem("horizontal", 16, eps=eps)
        mesh = build_structured_mesh(16, problem.domain)
        fresh = assemble(mesh, adapt(mesh, problem.levelset, 2)[0], problem).matrix
        for attr in ("indptr", "indices", "data"):
            assert getattr(matrix, attr).tobytes() == getattr(fresh, attr).tobytes()
        if first is None:
            first = matrix
        else:
            assert np.shares_memory(matrix.indptr, first.indptr)
            assert np.shares_memory(matrix.indices, first.indices)
    # The first solve and each fresh build compute all 1,089 rows (the
    # nodes of 16 x 16 cells). A reused one computes only the nodes of the
    # patches whose edge parameters or sides changed: the cut cell row and
    # the rows across its moved edge nodes, at most three node rows of 65.
    n_dof = 33 * 33
    assert computed[:2] == [["full", n_dof]] * 2
    assert computed[3::2] == [["full", n_dof]] * 4
    assert all(kind == "kept" and 0 < rows <= 3 * 65 for kind, rows in computed[2::2])


def test_side_labels_alone_trigger_reuse(tmp_path, computed):
    """The interface on one grid line, then on the next: every edge
    parameter stays at 1/2 and the topology stays the same, but the 32
    patches between the two lines change sides. The rows of their nodes are
    computed again, with the bits of a matrix built from scratch."""
    configs = [RunConfig(problem="horizontal", n=16, eps=eps) for eps in (0.0, 1.0)]
    run_single(configs[0])
    first = runner._workspace.assembled
    run_single(configs[1])
    _, edge_param, topology, sides, matrix, _ = runner._workspace.assembled
    assert np.all(first[1] == 0.5) and np.all(edge_param == 0.5)
    assert np.array_equal(first[2], topology)
    assert np.count_nonzero((first[3] != sides).any(axis=1)) == 32
    assert computed[0] == ["full", 33 * 33]
    assert computed[1][0] == "kept" and 0 < computed[1][1] <= 3 * 65
    runner._workspace = None
    run_single(configs[1])
    fresh = runner._workspace.assembled[-2]
    for attr in ("indptr", "indices", "data"):
        assert getattr(matrix, attr).tobytes() == getattr(fresh, attr).tobytes()
    _same_rows(configs, tmp_path)


def test_sweep_through_cut_and_uncut_offsets(monkeypatch, computed):
    """A serial sweep whose cut set comes and goes: offsets on grid lines (0
    and 1) and through the mid-line nodes (0.5) cut nothing or leave right
    angles, and those beside them cut the cell row. Its rows are those of
    solves from scratch. A solve reuses the last matrix on its grid exactly
    where the stored pattern stays the same, and otherwise computes every
    row after the reuse finds a moved row."""
    monkeypatch.setattr(runner.solver, "_cpus", lambda: 1)
    offsets, ns = [0.0, 0.025, 0.3, 0.5, 0.525, 0.75, 1.0], [8, 16]
    expected = []
    for n in sorted(ns, reverse=True):  # the run order, largest n first
        patterns = [_stored_pattern("horizontal", n, eps=eps) for eps in offsets]
        expected += [["full"]] + [["kept"] if same else ["moved", "full"] for same in
                                  (a == b for a, b in zip(patterns, patterns[1:]))]
    assert ["kept"] in expected and ["moved", "full"] in expected
    del computed[:]
    rows = runner.run_sweep("horizontal", "eps", offsets, ns, 2)
    assert [kind for kind, _ in computed] == sum(expected, [])
    scratch = []
    for eps in offsets:
        for n in ns:
            runner._workspace = None
            row = run_single(RunConfig(problem="horizontal", n=n, eps=eps))
            scratch.append([eps, n, row.l2, row.h1])
    assert repr(rows) == repr(scratch)
