"""Experiment drivers: single solves, convergence studies, parameter sweeps,
and angle audits, with CSV emission.

Rows are plain dataclasses so the drivers double as a library API for the
demo scripts and the test suite; the CSV files are deterministic (full
round-trip float formatting, no timestamps).

The solves of a sweep or a convergence study are independent.
``run_sweep`` and ``run_convergence`` hand them to ``_run_all``, which runs
``run_single`` on a pool of forked worker processes, one per CPU (never
more than there are solves, nor than the free memory holds; see
``_workers``). Each worker is pinned to a CPU of its own, so its CG sees
one CPU and runs serially, which gives the same bits as the threaded loop.
The largest grids go out first; rows and stderr lines come back in job
order, so the output does not depend on the number of CPUs. With one
worker the builtin ``map`` runs the solves in this process, as ``solve``
and ``angles`` always do.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import multiprocessing
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .adaptation import (
    Classification,
    CutClass,
    RefinementRequired,
    adapt,
    build_configs,
    max_angle_audit,
)
from .assembly import assemble
from .mesh import build_structured_mesh, mesh_to_json
from .problems import (
    InsufficientData,
    ProblemSpec,
    circle_problem,
    convergence_rate,
    error_norms,
    horizontal_problem,
    tilted_problem,
)
from . import solver
from .solver import cg_solve

__all__ = [
    "RunConfig",
    "ResultRow",
    "make_problem",
    "run_single",
    "run_convergence",
    "run_sweep",
    "run_angles",
    "write_csv",
    "SOLVE_HEADER",
    "SWEEP_HEADER",
    "ANGLES_HEADER",
    "DEFAULT_EPS_GRID",
    "DEFAULT_ALPHA_GRID",
]

MAX_REFINE_RETRIES = 3
MAX_ANGLE_BOUND = 162.0 + 1e-9
# Peak memory of one solve above the imported package, per grid cell (n * n
# cells): the ru_maxrss of run_single measured 1,775-1,795 bytes at
# n = 128, 1,318-1,472 at n = 256 and 1,200-1,275 at n = 512 on the circle,
# horizontal and tilted problems; this is the largest, rounded up.
SOLVE_BYTES_PER_CELL = 1800

SOLVE_HEADER = ["problem", "mode", "strategy", "n", "h", "ndofs", "L2", "H1",
                "cg_iters", "max_angle_deg"]
SWEEP_HEADER = ["param_value", "n", "L2", "H1"]
ANGLES_HEADER = ["patch_id", "cut_class", "q", "r", "s", "max_angle_deg"]

DEFAULT_EPS_GRID = [round(0.025 * i, 6) for i in range(41)]
DEFAULT_ALPHA_GRID = [i * np.pi / 64.0 for i in range(65)]


@dataclass
class RunConfig:
    problem: str = "circle"
    n: int = 16
    strategy: int = 2
    mode: str = "adapted"
    eps: float = 0.5
    alpha: float = np.pi / 4.0
    dump_mesh: str | None = None

    def __post_init__(self):
        if self.problem not in ("circle", "horizontal", "tilted"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.strategy not in (1, 2, 3):
            raise ValueError("strategy must be 1, 2 or 3")
        if self.mode not in ("adapted", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if not 0.0 <= self.alpha <= np.pi:
            raise ValueError("alpha must lie in [0, pi]")


@dataclass
class ResultRow:
    problem: str
    mode: str
    strategy: int
    n: int
    h: float
    ndofs: int
    l2: float
    h1: float
    cg_iters: int
    max_angle_deg: float

    def as_list(self):
        return [self.problem, self.mode, self.strategy, self.n, self.h,
                self.ndofs, self.l2, self.h1, self.cg_iters, self.max_angle_deg]


def make_problem(name: str, n: int, eps: float = 0.5,
                 alpha: float = np.pi / 4.0) -> ProblemSpec:
    """Problem instance for grid resolution n (cell width 2/n)."""
    if name == "circle":
        return circle_problem()
    if name == "horizontal":
        return horizontal_problem(eps, 2.0 / n)
    if name == "tilted":
        return tilted_problem(alpha)
    raise ValueError(f"unknown problem {name!r}")


def _solve_once(config: RunConfig, n: int):
    problem = make_problem(config.problem, n, config.eps, config.alpha)
    mesh = build_structured_mesh(n, problem.domain)
    if config.mode == "baseline":
        # The baseline ignores the interface: uniform splits, pointwise kappa.
        classification = Classification(
            [CutClass("uncut")] * mesh.n_patches, {},
            np.zeros(mesh.n_vertices, dtype=bool), np.empty(0, dtype=np.intp),
        )
        configs = build_configs(mesh, classification, problem.levelset)
    else:
        configs, _, _ = adapt(mesh, problem.levelset, config.strategy)
    system = assemble(mesh, configs, problem, mode=config.mode)
    report = cg_solve(system)
    l2, h1 = error_norms(mesh, configs, problem, report.solution)
    audit = max_angle_audit(mesh, configs)
    if config.dump_mesh:
        with open(config.dump_mesh, "w", encoding="utf-8") as fh:
            fh.write(mesh_to_json(mesh, configs))
    return ResultRow(
        problem=config.problem,
        mode=config.mode,
        strategy=config.strategy,
        n=n,
        h=mesh.h_max,
        ndofs=system.n_dof,
        l2=l2,
        h1=h1,
        cg_iters=report.iterations,
        max_angle_deg=audit.global_max,
    )


def _refining(attempt, n: int):
    """Call ``attempt(n)``; on an unresolvable cut, retry with the grid
    doubled, up to three times. Each retry is reported on stderr with the
    old and new n, the offending patch and the reason."""
    last = None
    for retry in range(MAX_REFINE_RETRIES + 1):
        try:
            return attempt(n)
        except RefinementRequired as exc:
            # Only the message: the exception's traceback would keep the
            # failed attempt's frames (its mesh and arrays) alive in a
            # reference cycle through this frame.
            last = f"patch {exc.patch_id}: {exc.reason}"
            if retry < MAX_REFINE_RETRIES:
                print(f"refining: n={n} -> n={2 * n} ({last})", file=sys.stderr)
            n *= 2
    raise RuntimeError(
        f"cut unresolvable after {MAX_REFINE_RETRIES} refinements "
        f"(last offender: {last})"
    )


def run_single(config: RunConfig) -> ResultRow:
    """Solve one configuration, refining the grid while a cut needs it."""
    return _refining(lambda n: _solve_once(config, n), config.n)


def _job(config: RunConfig):
    """``run_single(config)``, returned as (row, exception, stderr text):
    the row or the exception it raised, and what it wrote to stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            row, exc = run_single(config), None
        except Exception as error:  # re-raised by _run_all, in job order
            row, exc = None, error
    return row, exc, err.getvalue()


def _pin(cpus) -> None:
    """Pool initializer: keep this worker on the CPU it takes from ``cpus``."""
    os.sched_setaffinity(0, {cpus.get()})


def _available_memory() -> int:
    """Bytes of physical memory free now (free pages, page cache not counted)."""
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _workers(configs: list[RunConfig]) -> int:
    """How many worker processes the solves of ``configs`` get: one per CPU,
    never more than there are solves, nor more solves of the largest grid
    than fit in the memory free now (``SOLVE_BYTES_PER_CELL``; a forked
    worker shares the rest with this process).

    One, that is no pool, where ``os.sched_setaffinity`` is missing: the
    workers need it to keep to one CPU each, and forking is only safe on
    Linux. One also where ``run_single`` has been wrapped in this process
    (``functools.wraps`` marks a wrapper with ``__wrapped__``): a tracer or
    profiler that wraps it keeps its records here, and would see nothing of
    the solves run in workers."""
    if (len(configs) <= 1 or not hasattr(os, "sched_setaffinity")
            or hasattr(run_single, "__wrapped__")):
        return 1
    largest = max(config.n for config in configs)
    fit = _available_memory() // (SOLVE_BYTES_PER_CELL * largest * largest)
    return max(1, min(len(configs), solver._cpus(), fit))


@contextlib.contextmanager
def _pool(workers: int):
    """A pool of ``workers`` processes, each pinned to one CPU of this
    process's set (round-robin if the set is smaller), or None for one
    worker.

    Forked, not spawned: a worker inherits the imported package instead of
    importing it again (about half a second). The executor forks every
    worker before it starts its own thread, and no solve is running here
    then (CG's worker thread lives inside one solve). The only other
    threads are OpenBLAS's, idle between BLAS calls; OpenBLAS's own
    ``pthread_atfork`` handler stops them before a fork, and they start
    again at the next threaded BLAS call. ``_workers`` keeps the pool to
    Linux, where this holds."""
    if workers <= 1:
        yield None
        return
    context = multiprocessing.get_context("fork")
    cpus = context.SimpleQueue()
    for cpu in itertools.islice(itertools.cycle(sorted(os.sched_getaffinity(0))),
                                workers):
        cpus.put(cpu)
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_pin,
                               initargs=(cpus,))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _in_job_order(futures: list):
    """The results of ``futures`` (one per job, in job order), each as soon
    as it and the jobs before it are done. Once a job has failed, the jobs
    after it that have not started are cancelled: their results would never
    be read."""
    position = {future: i for i, future in enumerate(futures)}
    pending = set(futures)
    for future in futures:
        while not future.done():
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for finished in done:
                if not finished.cancelled() and finished.result()[1] is not None:
                    for later in futures[position[finished] + 1:]:
                        later.cancel()
        yield future.result()


def _run_all(configs: list[RunConfig]) -> list[ResultRow]:
    """``run_single`` over ``configs``: one row per config, in order.

    The solves run on ``_workers(configs)`` worker processes, largest ``n``
    first. Each solve's stderr lines are printed, and its exception raised,
    in job order, as if the solves had run one after another here.
    """
    with _pool(_workers(configs)) as pool:
        if pool is None:
            results = map(_job, configs)
        else:
            futures = [None] * len(configs)
            for i in sorted(range(len(configs)), key=lambda i: -configs[i].n):
                futures[i] = pool.submit(_job, configs[i])
            results = _in_job_order(futures)
        rows = []
        for row, exc, err in results:
            sys.stderr.write(err)
            if exc is not None:
                raise exc
            rows.append(row)
    return rows


def run_convergence(problem: str, levels, strategy: int, mode: str,
                    eps: float = 0.5, alpha: float = np.pi / 4.0):
    """One ResultRow per level plus fitted (L2, H1) rates (None if < 2 rows)."""
    rows = _run_all([
        RunConfig(problem=problem, n=n, strategy=strategy, mode=mode,
                  eps=eps, alpha=alpha)
        for n in levels
    ])
    try:
        l2_rate = convergence_rate([(r.h, r.l2) for r in rows])
        h1_rate = convergence_rate([(r.h, r.h1) for r in rows])
    except InsufficientData:
        return rows, None, None
    return rows, l2_rate, h1_rate


def run_sweep(problem: str, param: str, values, ns, strategy: int):
    """Cartesian product of sweep values and grid sizes.

    Returns rows [param_value, n, L2, H1] sorted by (value, n).
    """
    if param not in ("eps", "alpha"):
        raise ValueError("sweep parameter must be 'eps' or 'alpha'")
    jobs = [(value, n) for value in values for n in ns]
    results = _run_all([
        RunConfig(problem=problem, n=n, strategy=strategy,
                  eps=value if param == "eps" else 0.5,
                  alpha=value if param == "alpha" else np.pi / 4.0)
        for value, n in jobs
    ])
    rows = [[float(value), n, res.l2, res.h1]
            for (value, n), res in zip(jobs, results)]
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def run_angles(problem: str, n: int, strategy: int, eps: float = 0.5,
               alpha: float = np.pi / 4.0):
    """Angle audit of one adapted mesh, refining the grid while a cut needs
    it, as ``run_single`` does."""

    def audit(n):
        instance = make_problem(problem, n, eps, alpha)
        mesh = build_structured_mesh(n, instance.domain)
        configs, _, _ = adapt(mesh, instance.levelset, strategy)
        return max_angle_audit(mesh, configs)

    return _refining(audit, n)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """UTF-8 CSV with header row; floats keep full round-trip precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
