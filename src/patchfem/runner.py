"""Experiment drivers: single solves, convergence studies, parameter sweeps,
and angle audits, with CSV emission.

Rows are plain dataclasses so the drivers double as a library API for the
demo scripts and the test suite; the CSV files are deterministic (full
round-trip float formatting, no timestamps).
"""

from __future__ import annotations

import csv
import sys
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


def run_convergence(problem: str, levels, strategy: int, mode: str,
                    eps: float = 0.5, alpha: float = np.pi / 4.0):
    """One ResultRow per level plus fitted (L2, H1) rates (None if < 2 rows)."""
    rows = [
        run_single(RunConfig(problem=problem, n=n, strategy=strategy, mode=mode,
                             eps=eps, alpha=alpha))
        for n in levels
    ]
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
    rows = []
    for value in values:
        for n in ns:
            cfg = RunConfig(problem=problem, n=n, strategy=strategy,
                            eps=value if param == "eps" else 0.5,
                            alpha=value if param == "alpha" else np.pi / 4.0)
            res = run_single(cfg)
            rows.append([float(value), n, res.l2, res.h1])
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
