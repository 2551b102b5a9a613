"""Jacobi-preconditioned conjugate gradients.

CG runs on the assembled matrix itself, with vectors over all dofs. It
starts from the Dirichlet data, and the lifted load is zero at the
Dirichlet dofs; ``LinearSystem.reduced`` clears the couplings of the
Dirichlet rows, so every product, and with it every residual and search
direction, stays zero there and the Dirichlet values are never moved. The
free entries then follow Jacobi-CG on the free rows and columns, and no
copy of them is made. Each iteration runs in three phases over fixed row
spans of the matrix: the matrix-vector product with ``p.Ap``; the ``x``/``r``
updates, the preconditioned residual, ``r.r`` and ``r.z``; the new
direction. Every dot product is a sum of per-span ``einsum`` partial sums
added in span order, never a BLAS ``ddot``, so the iterates do not depend on
the BLAS thread count. Large systems split into two spans at half the
stored entries, and the second one runs on a worker thread (SciPy's sparse
products and NumPy's loops release the GIL). The spans depend only on the
system, so the serial and the threaded loop give the same bits.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import LinearSystem

__all__ = ["SolveReport", "NonConvergence", "cg_solve"]

# Free dofs from which the rows split into two spans of about equal nnz.
# On a 2-core host the threaded loop was 10% slower than the serial one at
# 65,025 free dofs (n = 128) and 35% faster at 101,761 (n = 160): below
# this size the hand-offs to the worker cost more than they save.
ROW_SPLIT = 2**16


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
        self.tol = tol

    def __reduce__(self):
        # Rebuilt from its own arguments, so that it survives the trip back
        # from a worker process.
        return type(self), (self.report, self.tol)


def row_spans(a: sp.csr_matrix, n_free: int) -> list[slice]:
    """The fixed row spans of the matrix ``a``: one below ``ROW_SPLIT`` free
    dofs, else two split at the first row at which its stored entries reach
    half their count."""
    n = a.shape[0]
    if n_free < ROW_SPLIT:
        return [slice(0, n)]
    half = int(np.searchsorted(a.indptr, a.nnz // 2))
    return [slice(0, half), slice(half, n)]


def row_block(a: sp.csr_matrix, rows: slice) -> sp.csr_matrix:
    """The rows ``rows`` of ``a`` as a CSR matrix sharing its data and
    column indices."""
    lo, hi = a.indptr[rows.start], a.indptr[rows.stop]
    # Built empty and then given the views: SciPy copies a view of less
    # than half its base on construction.
    block = sp.csr_matrix((rows.stop - rows.start, a.shape[1]), dtype=a.dtype)
    block.indptr = a.indptr[rows.start:rows.stop + 1] - lo
    block.data, block.indices = a.data[lo:hi], a.indices[lo:hi]
    return block


def span_dot(us, vs) -> float:
    """Sum over the spans of ``einsum`` dot products, in span order."""
    total = 0.0
    for u, v in zip(us, vs):
        total += np.einsum("i,i->", u, v)
    return total


def cg_solve(system: LinearSystem, tol: float = 1e-10,
             max_iter: int | None = None) -> SolveReport:
    """Solve the SPD system on the free dofs by preconditioned conjugate
    gradients.

    Diagonal (Jacobi) preconditioner, start vector zero at the free dofs,
    termination on ||r|| / ||b|| <= tol. The solution carries the Dirichlet
    values as given (a -0.0 among them comes back as 0.0). Deterministic:
    identical inputs give identical iterate sequences, whatever the number
    of threads. Raises NonConvergence past ``max_iter``
    (default 10 times the free dofs). The residual is the system's own load
    vector, lifted in place (``LinearSystem.reduced``): a system is solved
    once, and a second solve of it raises.
    """
    # r = b, the system's rhs, which CG updates; x = g, the Dirichlet data.
    a, r, x = system.reduced()
    n_free = system.n_dof - len(system.dirichlet_dofs)
    if max_iter is None:
        max_iter = 10 * n_free

    def report(iterations, history):
        return SolveReport(x, iterations, history[-1], np.array(history))

    spans = row_spans(a, n_free)
    rs = [r[s] for s in spans]
    norm_b = math.sqrt(span_dot(rs, rs))
    if norm_b == 0.0:
        return report(0, [0.0])

    blocks = [row_block(a, s) for s in spans]
    inv_diag = a.diagonal()  # kept zero where no diagonal is stored
    np.divide(1.0, inv_diag, out=inv_diag, where=inv_diag != 0)
    p = inv_diag * r  # z = D^-1 r
    ds, xs, ps = ([v[s] for s in spans] for v in (inv_diag, x, p))
    # Each span's A p, whose buffer then holds alpha A p, alpha p and z in
    # turn: the iteration keeps no other vector.
    aps = [None] * len(spans)

    def product(k):
        aps[k] = None  # the old product is freed before the new one is formed
        aps[k] = blocks[k] @ p
        return np.einsum("i,i->", ps[k], aps[k])

    def update(k, alpha):
        buf = aps[k]
        buf *= alpha
        rs[k] -= buf
        np.multiply(ps[k], alpha, out=buf)
        xs[k] += buf
        np.multiply(ds[k], rs[k], out=buf)
        return np.einsum("i,i->", rs[k], rs[k]), np.einsum("i,i->", rs[k], buf)

    def direction(k, beta):
        ps[k] *= beta
        ps[k] += aps[k]

    rz = span_dot(rs, ps)
    history = [1.0]  # r = b
    threaded = len(spans) > 1 and _cpus() > 1
    with ThreadPoolExecutor(1) if threaded else nullcontext() as pool:

        def run(phase, *args):
            """The phase on every span; the last span on the worker."""
            if pool is None:
                return [phase(k, *args) for k in range(len(spans))]
            future = pool.submit(phase, 1, *args)
            try:
                first = phase(0, *args)
            finally:
                last = future.result()
            return [first, last]

        for it in range(1, max_iter + 1):
            alpha = rz / sum(run(product))
            rr, rz_new = map(sum, zip(*run(update, alpha)))
            rel = math.sqrt(rr) / norm_b
            history.append(rel)
            if rel <= tol:
                return report(it, history)
            run(direction, rz_new / rz)
            rz = rz_new
    raise NonConvergence(report(max_iter, history), tol)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
