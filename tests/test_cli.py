"""Tests for the experiment drivers and the command-line interface."""

import csv
import functools
import gc
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import patchfem
from patchfem import runner as runner_module
from patchfem import solver as solver_module
from patchfem.adaptation import CUT_KINDS, VERTEX_EDGE, RefinementRequired, adapt
from patchfem.cli import main
from patchfem.mesh import build_structured_mesh
from patchfem.problems import tilted_problem
from patchfem.runner import (
    ResultRow,
    RunConfig,
    run_angles,
    run_single,
    run_sweep,
    write_csv,
    SOLVE_HEADER,
)


def _package_env():
    """The environment of a child process that imports this checkout's
    package."""
    src = str(Path(patchfem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"strategy": 4},
            {"mode": "turbo"},
            {"problem": "cube"},
            {"eps": 1.5},
            {"alpha": 4.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestRunSingle:
    def test_circle_row(self):
        row = run_single(RunConfig(problem="circle", n=16, strategy=2))
        assert row.n == 16
        assert row.ndofs == 17 * 17 + 3 * 16**2 + 2 * 16
        assert np.isfinite(row.l2) and np.isfinite(row.h1)
        assert row.max_angle_deg <= 162.0 + 1e-9
        assert row.h == pytest.approx(np.sqrt(2) * 2 / 16)

    def test_mesh_dump(self, tmp_path):
        path = tmp_path / "mesh.json"
        run_single(RunConfig(problem="circle", n=8, dump_mesh=str(path)))
        doc = json.loads(path.read_text())
        assert len(doc["subtriangles"]) == 2 * 8 * 8

    def test_horizontal_midpoint_is_clean(self):
        # eps = 1/2 puts every cut on an existing midpoint: smallest errors
        rows = {
            eps: run_single(RunConfig(problem="horizontal", n=16, eps=eps))
            for eps in (0.3, 0.5, 0.7)
        }
        assert rows[0.5].l2 <= rows[0.3].l2
        assert rows[0.5].l2 <= rows[0.7].l2


class TestRefinementRetry:
    def test_retry_doubles_n(self, monkeypatch):
        import patchfem.runner as runner
        from patchfem.adaptation import RefinementRequired

        calls = []
        original = runner._solve_once

        def flaky(config, n):
            calls.append(n)
            if len(calls) < 3:
                raise RefinementRequired(7, "synthetic")
            return original(config, n)

        monkeypatch.setattr(runner, "_solve_once", flaky)
        row = run_single(RunConfig(problem="circle", n=4))
        assert calls == [4, 8, 16]
        assert row.n == 16

    def test_gives_up_after_three_retries(self, monkeypatch):
        import patchfem.runner as runner
        from patchfem.adaptation import RefinementRequired

        def always_fails(config, n):
            raise RefinementRequired(3, "synthetic")

        monkeypatch.setattr(runner, "_solve_once", always_fails)
        with pytest.raises(RuntimeError, match="patch 3"):
            run_single(RunConfig(problem="circle", n=4))

    def test_real_retry_reported_on_stderr(self, capsys):
        # at n = 12 the circle passes through a vertex of patch 59 and also
        # crosses an edge next to it; n = 24 resolves every cut
        row = run_single(RunConfig(problem="circle", n=12))
        assert row.n == 24
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "refining: n=12 -> n=24 (patch 59: vertex cut with crossing on "
            "adjacent edge)"
        ]
        assert captured.out == ""


class TestRunSweep:
    def test_rows_sorted_and_bounded(self):
        rows = run_sweep("horizontal", [0.4, 0.1, 0.25], [8], 2)
        assert [r[0] for r in rows] == [0.1, 0.25, 0.4]
        assert all(np.isfinite(r[2]) and np.isfinite(r[3]) for r in rows)

    def test_problem_without_sweep_parameter(self):
        with pytest.raises(ValueError, match="no sweep parameter"):
            run_sweep("circle", [0.1], [8], 2)


class TestWriteCsv:
    def test_roundtrip_precision(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [[1 / 3, 7], [np.float64(0.1), -2]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b"]
        assert float(rows[1][0]) == 1 / 3  # full round-trip precision
        assert rows[2][0] == "0.1"  # numpy scalars print as plain floats

    def test_reproducible_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = run_sweep("tilted", [0.3, 0.9], [8], 1)
        write_csv(str(p1), ["param_value", "n", "L2", "H1"], rows)
        rows2 = run_sweep("tilted", [0.3, 0.9], [8], 1)
        write_csv(str(p2), ["param_value", "n", "L2", "H1"], rows2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCliExitCodes:
    def test_solve_ok(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(["solve", "--problem", "circle", "--n", "8",
                     "--strategy", "2", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SOLVE_HEADER
        assert len(rows) == 2

    def test_invalid_strategy_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--strategy", "4"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--problem", "horizontal", "--values", "", "--n", "8"],
            ["sweep", "--problem", "horizontal", "--n", ","],
            ["convergence", "--levels", ","],
        ],
        ids=["values", "n", "levels"],
    )
    def test_empty_sweep_grid_usage_error(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    def test_sweep_on_circle_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--problem", "circle"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "1"],
            ["solve", "--n", "two"],
            ["solve", "--eps", "2"],
            ["solve", "--eps", "-0.1"],
            ["solve", "--alpha", "4"],
            ["solve", "--alpha", "nan"],
            ["angles", "--n", "0"],
            ["sweep", "--problem", "horizontal", "--n", "0"],
            ["sweep", "--problem", "horizontal", "--n", "16,1"],
            ["sweep", "--problem", "horizontal", "--values", "0.5,1.5", "--n", "8"],
            ["sweep", "--problem", "tilted", "--values", "4", "--n", "8"],
            ["convergence", "--levels", "8,1"],
            ["convergence", "--levels", "16,16"],
            ["convergence", "--levels", "8,16,8"],
            ["sweep", "--problem", "horizontal", "--n", "16,16"],
            ["sweep", "--problem", "horizontal", "--values", "0.5,0.5", "--n", "8"],
            ["sweep", "--problem", "tilted", "--values", "0,0.3,0.0", "--n", "8"],
        ],
    )
    def test_out_of_range_arguments_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "8", "--out"],
            ["solve", "--n", "8", "--dump-mesh"],
            ["convergence", "--levels", "8,16", "--out"],
            ["sweep", "--problem", "horizontal", "--values", "0.5", "--n", "8", "--out"],
            ["angles", "--n", "8", "--out"],
        ],
    )
    def test_missing_output_directory_usage_error(self, argv, tmp_path, capsys,
                                                  monkeypatch):
        """Refused while the arguments are parsed, before any solve."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        for name in ("run_single", "run_convergence", "run_sweep", "run_angles"):
            monkeypatch.setattr(f"patchfem.cli.{name}", no_solve)
        path = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(argv + [str(path)])
        assert info.value.code == 2
        assert f"no directory {str(path.parent)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--dump-mesh"])
    def test_unwritable_output_exits_1(self, flag, tmp_path):
        # A directory in place of the file: writing it raises
        # IsADirectoryError after the solve. Run as a separate process so an
        # uncaught exception would show.
        proc = subprocess.run(
            [sys.executable, "-m", "patchfem.cli", "solve", "--n", "4", flag,
             str(tmp_path)],
            capture_output=True, text=True, env=_package_env(), check=False,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: [Errno 21] Is a directory: {str(tmp_path)!r}"]

    def test_repeated_entry_named_in_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["convergence", "--levels", "16,16"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--levels" in err and "repeated value 16" in err
        assert "RankWarning" not in err

    def test_range_ends_accepted(self, capsys):
        assert main(["solve", "--problem", "horizontal", "--eps", "1", "--n", "2"]) == 0
        assert main(["solve", "--problem", "tilted", "--alpha", "0", "--n", "2"]) == 0

    def test_convergence_single_level_is_a_usage_error(self, tmp_path, capsys):
        # A rate needs two levels: refused before any solve, as usage.
        out = tmp_path / "conv.csv"
        with pytest.raises(SystemExit) as info:
            main(["convergence", "--problem", "circle", "--levels", "8",
                  "--out", str(out)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert "--levels" in captured.err and "at least two levels" in captured.err

    def test_convergence_rates_row(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--problem", "circle", "--levels", "8,16",
                     "--strategy", "2", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][3] == "rates"
        assert 1.5 < float(rows[-1][6]) < 2.5  # fitted L2 rate

    def test_convergence_levels_refined_onto_one_grid_exit_1(self, tmp_path, capsys):
        # The circle refines n = 12 to 24, the next level's grid: its rows
        # would repeat and a rate be fitted through two equal h.
        out = tmp_path / "conv.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--problem", "circle", "--levels", "12,24",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert not out.exists() and captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: levels 12 and 24 both ran at n=24 (refined): a rate needs "
            "distinct grids"]
        assert [w.category.__name__ for w in caught if "Rank" in w.category.__name__] == []

    def test_sweep_sizes_refined_onto_one_grid_exit_1(self, tmp_path, capsys):
        # The tilted interface refines n = 5 to 10, the next size's grid:
        # the value would get two identical rows.
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", "tilted", "--n", "5,10",
                     "--values", repr(np.pi / 4), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert not out.exists() and captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            f"error: alpha={np.pi / 4!r}: grid sizes 5 and 10 both ran at n=10 "
            "(refined): their rows would repeat"]

    def test_sweep_row_carries_the_refined_grid(self, capsys):
        # The tilted interface at n = 5 crosses one patch's boundary more
        # than twice: the solve runs at n = 10, and its row says so.
        assert main(["sweep", "--problem", "tilted", "--n", "5",
                     "--values", repr(np.pi / 4)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("refining: n=5 -> n=10 ")
        header, row = csv.reader(captured.out.splitlines())
        solved = run_single(RunConfig(problem="tilted", n=10, alpha=np.pi / 4))
        assert row == [repr(np.pi / 4), "10", repr(solved.l2), repr(solved.h1)]

    def test_angles_aligned_interface_ok(self, capsys):
        # alpha=0 aligns the interface with a mesh line: 90 degrees, exit 0
        code = main(["angles", "--problem", "tilted", "--alpha", "0", "--n", "8"])
        assert code == 0
        assert "90" in capsys.readouterr().out

    def test_angles_audit_csv(self, tmp_path):
        out = tmp_path / "angles.csv"
        code = main(["angles", "--problem", "circle", "--n", "16",
                     "--strategy", "2", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["patch_id", "cut_class", "q", "r", "s", "max_angle_deg"]
        assert len(rows) == 1 + 2 * 16 * 16

    def test_angles_refines_unresolvable_cut(self):
        # the circle at n = 12 needs refinement, as in TestRefinementRetry;
        # run as a separate process so an uncaught exception would show
        proc = subprocess.run(
            [sys.executable, "-m", "patchfem.cli", "angles", "--n", "12"],
            capture_output=True, text=True, env=_package_env(), check=False,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "refining: n=12 -> n=24 (patch 59: vertex cut with crossing on "
            "adjacent edge)"
        ]
        assert f"over {2 * 24 * 24} patches" in proc.stdout

    def test_unallocatable_grid_exits_1(self):
        # NumPy refuses the 8 TiB of x coordinates of n = 2**40 before
        # touching memory; the child's address space is capped at 4 GiB
        # so that no host could grant the request.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from patchfem.cli import main\n"
            f"sys.exit(main(['solve', '--n', '{2**40}']))\n"
        )
        env = {**_package_env(), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=False, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate")

    def test_angles_strategy1_circle_reports_violation(self):
        # strategy 1 leaves vertex-cut patches unremedied; the audit must
        # fail truthfully on the circle, whose axis tangencies hit vertices
        code = main(["angles", "--problem", "circle", "--n", "32",
                     "--strategy", "1"])
        assert code == 1


class TestImportCost:
    def test_solve_leaves_scipy_linalg_unimported(self, tmp_path):
        # the dense oracle lives with the tests; a solve needs only
        # scipy.sparse, and importing scipy.linalg costs every process
        script = (
            "import sys\n"
            "from patchfem.cli import main\n"
            f"assert main(['solve', '--n', '8', '--out', {str(tmp_path / 'row.csv')!r}]) == 0\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=_package_env(), check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestBlasThreads:
    def test_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10,000 entries over its
        # threads; n = 64 has 16,129 free dofs.
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = {**_package_env(), "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "patchfem.cli", "solve", "--problem", "circle",
                 "--n", "64", "--out", str(out)],
                capture_output=True, text=True, env=env, check=False)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestNoCyclicGarbage:
    """A solve frees its arrays by reference counting alone: nothing it
    leaves behind waits for the cyclic garbage collector."""

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(problem="circle", n=12),  # refines once, to n = 24
            RunConfig(problem="circle", n=16),
            RunConfig(problem="circle", n=16, mode="baseline"),
            RunConfig(problem="tilted", n=16, alpha=0.3),  # vertex cuts
        ],
        ids=["refining", "adapted", "baseline", "tilted"],
    )
    def test_run_single(self, config):
        gc.collect()
        gc.disable()
        try:
            run_single(config)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_threaded_solve(self, monkeypatch):
        # 961 free dofs at n = 16: two spans, the second on the worker.
        monkeypatch.setattr(solver_module, "ROW_SPLIT", 500)
        monkeypatch.setattr(solver_module, "_cpus", lambda: 2)
        self.test_run_single(RunConfig(problem="circle", n=16))

    def test_tilted_case_has_vertex_cuts(self):
        problem = tilted_problem(0.3)
        mesh = build_structured_mesh(16, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        assert np.any(configs.kind == CUT_KINDS.index(VERTEX_EDGE))


class _CountingProcessPool(runner_module.ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def cpus(monkeypatch):
    """The returned function sets the CPU count this process sees; a worker
    process still reads its own affinity. It gives the pool class, which
    counts the pools started."""
    parent, real = os.getpid(), solver_module._cpus
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _CountingProcessPool)
    monkeypatch.setattr(_CountingProcessPool, "started", 0)

    def set_cpus(n):
        monkeypatch.setattr(solver_module, "_cpus",
                            lambda: n if os.getpid() == parent else real())
        return _CountingProcessPool

    return set_cpus


class TestWorkerPool:
    """Sweeps and convergence studies run their solves on one worker process
    per CPU, with the same output as one after another in this process."""

    def _run(self, argv, tmp_path, capsys, tag):
        out = tmp_path / f"{tag}.csv"
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        return code, out.read_bytes() if out.exists() else None, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--problem", "horizontal", "--values", "0.1,0.35,0.5,0.8",
             "--n", "8,16"],
            ["sweep", "--problem", "tilted", "--values", "0.3,0.9,1.7", "--n", "8,16",
             "--strategy", "3"],
            ["convergence", "--problem", "tilted", "--alpha", "0.3",
             "--levels", "8,16,32", "--strategy", "3"],
            ["convergence", "--problem", "circle", "--levels", "8,16", "--mode",
             "baseline"],
        ],
        ids=["sweep-horizontal", "sweep-tilted", "convergence-tilted",
             "convergence-baseline"],
    )
    def test_output_does_not_depend_on_cpus(self, argv, tmp_path, capsys, cpus):
        cpus(1)
        serial = self._run(argv, tmp_path, capsys, "one")
        pool = cpus(2)
        assert pool.started == 0
        pooled = self._run(argv, tmp_path, capsys, "two")
        assert pool.started == 1
        assert serial[0] == 0 and serial[1] is not None
        assert pooled == serial

    def test_worker_sees_one_cpu(self, monkeypatch, cpus):
        # Each row carries what solver._cpus() read and the process id.
        def probe(config, n):
            return ResultRow(config.problem, config.mode, config.strategy, n, 1.0,
                             0, float(solver_module._cpus()), float(os.getpid()),
                             0, 90.0)

        monkeypatch.setattr(runner_module, "_solve_once", probe)
        cpus(2)
        rows = run_sweep("horizontal", [0.25, 0.75], [8, 16], 2)
        assert [row[2] for row in rows] == [1.0] * 4
        assert os.getpid() not in {row[3] for row in rows}

    def test_worker_nonconvergence_exits_1(self, monkeypatch, tmp_path, capsys, cpus):
        monkeypatch.setattr(runner_module, "cg_solve",
                            functools.partial(solver_module.cg_solve, max_iter=1))
        argv = ["sweep", "--problem", "horizontal", "--values", "0.25,0.75",
                "--n", "8,16"]
        cpus(1)
        serial = self._run(argv, tmp_path, capsys, "one")
        pool = cpus(2)
        pooled = self._run(argv, tmp_path, capsys, "two")
        assert pool.started == 1
        assert pooled == serial
        code, csv_bytes, _, err = pooled
        assert code == 1 and csv_bytes is None
        assert err.startswith("error: CG stalled")
        assert "Traceback" not in err

    def test_refinement_lines_in_run_order(self, monkeypatch, tmp_path, capsys, cpus):
        # Grids below n = 16 need refining: one line per doubling, printed
        # in run order (largest n first, ties in job order) whichever
        # worker finishes first. Every size then runs at n = 16, so the
        # sweep fails at the first solve that lands on the grid of another
        # size of its value, (0.25, 8) after (0.25, 16), on one CPU and on
        # two alike.
        def coarse_fails(mesh, levelset, strategy):
            if mesh.n_patches < 2 * 16 * 16:
                raise RefinementRequired(mesh.n_patches, "synthetic")
            return adapt(mesh, levelset, strategy)

        monkeypatch.setattr(runner_module, "adapt", coarse_fails)
        argv = ["sweep", "--problem", "horizontal", "--values", "0.25,0.75",
                "--n", "4,8,16"]
        cpus(1)
        serial = self._run(argv, tmp_path, capsys, "one")
        pool = cpus(2)
        pooled = self._run(argv, tmp_path, capsys, "two")
        assert pool.started == 1
        assert pooled == serial
        from_8 = "refining: n=8 -> n=16 (patch 128: synthetic)"
        assert serial[:3] == (1, None, "")
        assert serial[3].splitlines() == [
            from_8, "error: eps=0.25: grid sizes 8 and 16 both ran at n=16 (refined): "
            "their rows would repeat"]

    def test_first_failure_cancels_the_jobs_after_it(self, monkeypatch, tmp_path,
                                                     cpus):
        # Run order is (0.05, 16), (0.1, 16), (0.15, 16), ..., then the
        # n = 8 jobs. The second job fails at once while the first still
        # runs. A serial run stops there; of the jobs after it, the pool
        # runs only those its workers have taken or queued.
        def probe(config, n):
            if (config.eps, n) == (0.1, 16):
                raise RuntimeError("synthetic failure")
            time.sleep(0.2)
            (tmp_path / f"{tag} {config.eps} {n}").touch()
            return ResultRow(config.problem, config.mode, config.strategy, n, 1.0,
                             0, 1.0, 1.0, 0, 90.0)

        monkeypatch.setattr(runner_module, "_solve_once", probe)
        values = [round(0.05 * k, 2) for k in range(1, 13)]
        ran = {}
        for tag, n_cpus in (("one", 1), ("two", 2)):
            pool = cpus(n_cpus)
            with pytest.raises(RuntimeError, match="synthetic failure"):
                run_sweep("horizontal", values, [16, 8], 2)
            ran[tag] = {p.name[4:] for p in tmp_path.iterdir() if p.name.startswith(tag)}
        assert pool.started == 1
        assert ran["one"] == {"0.05 16"}
        assert ran["one"] < ran["two"] and len(ran["two"]) < len(values)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_first_failure_in_run_order_is_raised(self, monkeypatch, cpus, n_cpus):
        # Job order is (0.25, 8), (0.25, 16), (0.75, 8), (0.75, 16); both
        # jobs at 0.75 fail, and the n = 16 one runs first.
        def probe(config, n):
            if config.eps == 0.75:
                raise RuntimeError(f"synthetic failure at n={n}")
            return ResultRow(config.problem, config.mode, config.strategy, n, 1.0,
                             0, 1.0, 1.0, 0, 90.0)

        monkeypatch.setattr(runner_module, "_solve_once", probe)
        pool = cpus(n_cpus)
        with pytest.raises(RuntimeError, match="at n=16"):
            run_sweep("horizontal", [0.25, 0.75], [8, 16], 2)
        assert pool.started == (n_cpus > 1)

    def test_solves_here_run_largest_grid_first(self, monkeypatch, capsys, cpus):
        # The rows keep job order, and a solve's stderr is printed before
        # the next solve runs.
        ran, printed = [], []

        def probe(config, n):
            ran.append(n)
            printed.append(capsys.readouterr().err)
            sys.stderr.write(f"{config.eps} {n}\n")
            return ResultRow(config.problem, config.mode, config.strategy, n, 1.0,
                             0, config.eps, 1.0, 0, 90.0)

        monkeypatch.setattr(runner_module, "_solve_once", probe)
        cpus(1)
        rows = run_sweep("horizontal", [0.25, 0.75], [8, 16], 2)
        assert ran == [16, 16, 8, 8]
        assert printed == ["", "0.25 16\n", "0.75 16\n", "0.25 8\n"]
        assert capsys.readouterr().err == "0.75 8\n"
        assert [row[:3] for row in rows] == [[0.25, 8, 0.25], [0.25, 16, 0.25],
                                             [0.75, 8, 0.75], [0.75, 16, 0.75]]

    def test_pool_fits_the_free_memory(self, monkeypatch, cpus):
        pool = cpus(2)
        per_solve = runner_module.SOLVE_BYTES_PER_CELL * 16 * 16
        for free, started in ((2 * per_solve - 1, 0), (2 * per_solve, 1)):
            monkeypatch.setattr(runner_module, "_available_memory", lambda: free)
            run_sweep("horizontal", [0.25, 0.75], [8, 16], 2)
            assert pool.started == started

    def test_wrapped_run_single_keeps_the_solves_here(self, monkeypatch, cpus):
        # A tracer that wraps run_single records every solve in this process.
        calls = []

        @functools.wraps(run_single)
        def traced(config):
            calls.append(os.getpid())
            return run_single(config)

        monkeypatch.setattr(runner_module, "run_single", traced)
        pool = cpus(2)
        run_sweep("horizontal", [0.25, 0.75], [8, 16], 2)
        assert pool.started == 0 and calls == [os.getpid()] * 4

    def test_single_solves_start_no_pool(self, tmp_path, capsys, cpus):
        pool = cpus(2)
        assert main(["solve", "--n", "8"]) == 0
        run_angles("circle", 8, 2)
        with pytest.raises(SystemExit) as info:
            main(["convergence", "--levels", "8"])  # one level: no rate
        assert info.value.code == 2
        assert main(["sweep", "--problem", "horizontal", "--values", "0.3",
                     "--n", "8"]) == 0
        assert pool.started == 0
