"""A solve that shares the mesh of the previous solve on its grid gives the
bytes of a solve from scratch."""

import numpy as np
import pytest

from patchfem import runner
from patchfem.adaptation import RefinementRequired, adapt
from patchfem.assembly import assemble
from patchfem.mesh import build_structured_mesh
from patchfem.problems import horizontal_problem
from patchfem.runner import RunConfig, make_problem, run_single, write_csv


def _csv(configs, tmp_path, shared: bool) -> bytes:
    """The rows of ``configs`` solved in order, each after the one before
    it (``shared``) or with no workspace left, as CSV bytes."""
    rows = []
    for config in configs:
        if not shared:
            runner._workspace = None
        rows.append(run_single(config).as_list())
    path = tmp_path / f"shared-{shared}.csv"
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
    shared = run_single(RunConfig(problem="horizontal", n=16, eps=0.3))
    runner._workspace = None
    assert shared == run_single(RunConfig(problem="horizontal", n=16, eps=0.3))


def test_failed_solve_keeps_the_last_good_workspace(tmp_path):
    """A solve that fails on the grid of the last one leaves that grid's
    workspace, and the next solve still shares its mesh."""
    run_single(RunConfig(problem="horizontal", n=12, eps=0.3))
    kept = runner._workspace
    patches = kept.mesh.patches
    with pytest.raises(RefinementRequired):
        runner._solve_once(RunConfig(problem="circle", n=12), 12)
    assert runner._workspace is kept
    run_single(RunConfig(problem="horizontal", n=12, eps=0.6))
    assert runner._workspace is kept and runner._workspace.mesh.patches is patches
    _same_rows([RunConfig(problem="horizontal", n=12, eps=0.6)], tmp_path)
