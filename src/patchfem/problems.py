"""Manufactured two-phase test problems and error measurement.

Each problem ships an analytic solution with matching continuity and flux
conditions across its interface, the right-hand side derived from it, and the
diffusion pair. The solutions are vectorized over (..., 2) point arrays; the
branch is always selected by the sign of the interface level set. The error
norms form their integrands one patch block at a time and add each patch's
terms in one fixed order, so the per-patch sums, and the norms summed from
them, do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ERROR_RULE, gather_triangles, map_rule
from .levelset import Circle, HorizontalLine, TiltedLine
from .mesh import patch_blocks

__all__ = [
    "ProblemSpec",
    "circle_problem",
    "horizontal_problem",
    "tilted_problem",
    "error_norms",
    "convergence_rate",
    "InsufficientData",
]

# The error integrands hold 28 points per patch and several fields at each:
# their blocks are PATCH_BLOCK // 16 patches.
ERROR_BLOCK_WEIGHT = 16


class InsufficientData(ValueError):
    """Fewer data points than a rate fit needs."""


@dataclass(frozen=True)
class ProblemSpec:
    """One manufactured interface problem on an axis-aligned rectangle.

    u1/u2, grad_u1/grad_u2, f1/f2 are the per-side branches; ``u``, ``grad_u``
    and ``f`` select the branch by the level-set sign. A caller evaluating
    several of them at the same points passes the side mask from ``inside``
    once, so the level set is evaluated once per point set.
    """

    name: str
    kappa1: float
    kappa2: float
    levelset: object
    domain: tuple
    u1: Callable
    u2: Callable
    grad_u1: Callable
    grad_u2: Callable
    f1: Callable
    f2: Callable

    def inside(self, points) -> np.ndarray:
        """Side mask: True where the level set is negative (branch 1)."""
        return self.levelset.eval(points) < 0.0

    def _select(self, points, branch1, branch2, mask):
        points = np.asarray(points, dtype=float)
        if mask is None:
            mask = self.inside(points)
        v1 = np.asarray(branch1(points))
        v2 = np.asarray(branch2(points))
        if v1.ndim == mask.ndim + 1:  # gradient-valued
            mask = mask[..., None]
        return np.where(mask, v1, v2)

    def u(self, points, mask=None):
        return self._select(points, self.u1, self.u2, mask)

    def grad_u(self, points, mask=None):
        return self._select(points, self.grad_u1, self.grad_u2, mask)

    def f(self, points, mask=None):
        return self._select(points, self.f1, self.f2, mask)


def circle_problem(kappa1: float = 0.1, kappa2: float = 1.0) -> ProblemSpec:
    """Circular interface centered at the origin on (-1,1)^2.

    u = -2 k2 ||x||^4 inside, -k1 ||x||^2 + k1/4 - k2/8 outside, with the
    interface at radius 1/2, where the jump conditions close.
    """
    k1, k2 = float(kappa1), float(kappa2)

    def rsq(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + x[..., 1] ** 2

    return ProblemSpec(
        name="circle",
        kappa1=k1,
        kappa2=k2,
        levelset=Circle((0.0, 0.0), 0.5),
        domain=((-1.0, -1.0), (1.0, 1.0)),
        u1=lambda x: -2.0 * k2 * rsq(x) ** 2,
        u2=lambda x: -k1 * rsq(x) + 0.25 * k1 - 0.125 * k2,
        grad_u1=lambda x: -8.0 * k2 * rsq(x)[..., None] * np.asarray(x, float),
        grad_u2=lambda x: -2.0 * k1 * np.asarray(x, float),
        f1=lambda x: 32.0 * k1 * k2 * rsq(x),
        f2=lambda x: np.full(np.asarray(x).shape[:-1], 4.0 * k1 * k2),
    )


def horizontal_problem(eps: float, h: float, kappa1: float = 0.1,
                       kappa2: float = 1.0) -> ProblemSpec:
    """Horizontal interface at height eps * h on (-1,1)^2.

    ``h`` is the cell edge length the offset is measured against, so eps in
    [0, 1] slides the interface across one cell row. u is the parabola
    d - d^2 in the signed offset d = x2 - eps h, with the inside branch slope
    scaled by k2/k1 to balance the flux.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    k1, k2 = float(kappa1), float(kappa2)
    y0 = eps * h

    def d(x):
        return np.asarray(x, dtype=float)[..., 1] - y0

    def grad1(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 1] = k2 / k1 - 2.0 * d(x)
        return g

    def grad2(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 1] = 1.0 - 2.0 * d(x)
        return g

    return ProblemSpec(
        name="horizontal",
        kappa1=k1,
        kappa2=k2,
        levelset=HorizontalLine(y0),
        domain=((-1.0, -1.0), (1.0, 1.0)),
        u1=lambda x: (k2 / k1) * d(x) - d(x) ** 2,
        u2=lambda x: d(x) - d(x) ** 2,
        grad_u1=grad1,
        grad_u2=grad2,
        f1=lambda x: np.full(np.asarray(x).shape[:-1], 2.0 * k1),
        f2=lambda x: np.full(np.asarray(x).shape[:-1], 2.0 * k2),
    )


def tilted_problem(alpha: float, kappa1: float = 0.1,
                   kappa2: float = 1.0) -> ProblemSpec:
    """Straight interface through the origin at angle alpha on (-1,1)^2.

    With d(x) = cos(a) x2 - sin(a) x1, u = sin((k2/k1) d) inside and sin(d)
    outside; |grad d| = 1 makes the flux balance exact.
    """
    k1, k2 = float(kappa1), float(kappa2)
    ratio = k2 / k1
    ca, sa = np.cos(alpha), np.sin(alpha)

    def d(x):
        x = np.asarray(x, dtype=float)
        return ca * x[..., 1] - sa * x[..., 0]

    normal = np.array([-sa, ca])

    return ProblemSpec(
        name="tilted",
        kappa1=k1,
        kappa2=k2,
        levelset=TiltedLine(alpha),
        domain=((-1.0, -1.0), (1.0, 1.0)),
        u1=lambda x: np.sin(ratio * d(x)),
        u2=lambda x: np.sin(d(x)),
        grad_u1=lambda x: ratio * np.cos(ratio * d(x))[..., None] * normal,
        grad_u2=lambda x: np.cos(d(x))[..., None] * normal,
        f1=lambda x: (k2**2 / k1) * np.sin(ratio * d(x)),
        f2=lambda x: k2 * np.sin(d(x)),
    )


def error_norms(mesh, configs, problem: ProblemSpec, u_h: np.ndarray):
    """L2 and H1-seminorm errors of a dof vector against the analytic solution.

    Integrated per subtriangle with ``ERROR_RULE``, exact to degree 5; the
    analytic branch at every quadrature point follows the true interface
    sign, while u_h and its gradient come from the linear basis on the
    subtriangle. The integrands are formed one block of patches at a time,
    and each patch's 4 x 7 terms are added in C order (subtriangle, then
    point) into its own sum. Each norm is the root of the ``np.sum`` of its
    per-patch sums, so the result does not depend on the block size and no
    integrand array over the whole mesh is held.
    """
    lam = ERROR_RULE.lambdas  # (nq, 3)
    planes = mesh.node_planes()
    l2_sums, h1_sums = np.empty(mesh.n_patches), np.empty(mesh.n_patches)
    for blk in patch_blocks(mesh.n_patches, ERROR_BLOCK_WEIGHT):
        shape = configs.shape[blk]
        dofs = mesh.subtriangle_nodes(blk, configs.topology(blk))
        qpts, qwts = map_rule(gather_triangles(planes, dofs), configs.table.areas[shape],
                              ERROR_RULE)
        coeffs = u_h[dofs]
        uh_q = np.einsum("pqa,na->pqn", coeffs, lam)
        mask = problem.inside(qpts)
        l2 = qwts * (problem.u(qpts, mask) - uh_q) ** 2
        # Constant gradient per subtriangle from the barycentric gradients.
        grads = configs.table.grads[shape]
        diff = problem.grad_u(qpts, mask)
        for d in range(2):
            diff[..., d] -= (coeffs[..., 0] * grads[..., 0, d] + coeffs[..., 1] * grads[..., 1, d]
                             + coeffs[..., 2] * grads[..., 2, d])[..., None]
        dx, dy = diff[..., 0], diff[..., 1]
        h1 = qwts * (dx * dx + dy * dy)
        for terms, sums in ((l2, l2_sums), (h1, h1_sums)):
            # Term by term across the block, an order of this code's own:
            # NumPy's reductions pick their own grouping of a patch's terms.
            terms = terms.reshape(len(terms), -1)
            acc = sums[blk]
            acc[:] = terms[:, 0]
            for k in range(1, terms.shape[1]):
                acc += terms[:, k]
        # Freed before the next block's arrays are made.
        del qpts, qwts, coeffs, uh_q, mask, l2, grads, diff, dx, dy, h1, terms
    return float(np.sqrt(np.sum(l2_sums))), float(np.sqrt(np.sum(h1_sums)))


def convergence_rate(pairs) -> float:
    """Least-squares slope of log(error) against log(h)."""
    pairs = [(float(h), float(e)) for h, e in pairs]
    if len(pairs) < 2:
        raise InsufficientData("need at least two (h, error) pairs")
    if any(h <= 0 or e <= 0 for h, e in pairs):
        raise ValueError("h and error must be positive")
    hs = np.log([h for h, _ in pairs])
    es = np.log([e for _, e in pairs])
    return float(np.polyfit(hs, es, 1)[0])
