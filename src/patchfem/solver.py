"""Jacobi-preconditioned conjugate gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem

__all__ = ["SolveReport", "NonConvergence", "cg_solve"]


@dataclass
class SolveReport:
    solution: np.ndarray      # full dof vector, Dirichlet values included
    iterations: int
    relative_residual: float
    residual_history: np.ndarray


class NonConvergence(RuntimeError):
    def __init__(self, report: SolveReport, tol: float):
        super().__init__(
            f"CG stalled at relative residual {report.relative_residual:.3e} "
            f"after {report.iterations} iterations (tol {tol:.1e})"
        )
        self.report = report


def cg_solve(system: LinearSystem, tol: float = 1e-10,
             max_iter: int | None = None) -> SolveReport:
    """Solve the reduced SPD system by preconditioned conjugate gradients.

    Diagonal (Jacobi) preconditioner, zero start vector, termination on
    ||r|| / ||b|| <= tol. Deterministic: identical inputs give identical
    iterate sequences. Raises NonConvergence past ``max_iter`` (default
    10 * n).
    """
    a, b, _ = system.reduced()
    n = len(b)
    if n == 0:
        return SolveReport(system.embed(np.empty(0)), 0, 0.0, np.empty(0))
    if max_iter is None:
        max_iter = 10 * n
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveReport(system.embed(np.zeros(n)), 0, 0.0, np.zeros(1))

    inv_diag = 1.0 / a.diagonal()
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    history = [np.linalg.norm(r) / norm_b]
    for it in range(1, max_iter + 1):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rel = np.linalg.norm(r) / norm_b
        history.append(rel)
        if rel <= tol:
            return SolveReport(system.embed(x), it, rel, np.array(history))
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    report = SolveReport(system.embed(x), max_iter, history[-1], np.array(history))
    raise NonConvergence(report, tol)
