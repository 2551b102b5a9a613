"""Manufactured two-phase test problems and error measurement.

Each problem ships an analytic solution with matching continuity and flux
conditions across its interface, the right-hand side derived from it, and the
diffusion pair. The solutions are vectorized over (..., 2) point arrays; the
branch is always selected by the sign of the interface level set. The error
norms form their integrands for at most one patch block at a time and sum
them in NumPy's pairwise order (``mesh.pairwise_sums``), so they equal one
``np.sum`` over all patches for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import gather_triangles, map_rule, reference_lambdas, reference_quad_rule
from .levelset import Circle, HorizontalLine, TiltedLine
from .mesh import pairwise_sums

__all__ = [
    "ProblemSpec",
    "circle_problem",
    "horizontal_problem",
    "tilted_problem",
    "verify_jump_conditions",
    "JumpReport",
    "pde_residual_defect",
    "error_norms",
    "convergence_rate",
    "InsufficientData",
]


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
        return np.asarray(self.levelset.eval(np.asarray(points, dtype=float))) < 0.0

    def _select(self, points, branch1, branch2, mask):
        points = np.asarray(points, dtype=float)
        if mask is None:
            mask = self.inside(points)
        v1 = np.asarray(branch1(points))
        v2 = np.asarray(branch2(points))
        if v1.ndim == mask.ndim + 1:  # gradient-valued
            mask = mask[..., None]
        out = np.where(mask, v1, v2)
        return out if out.ndim else float(out)

    def u(self, points, mask=None):
        return self._select(points, self.u1, self.u2, mask)

    def grad_u(self, points, mask=None):
        return self._select(points, self.grad_u1, self.grad_u2, mask)

    def f(self, points, mask=None):
        return self._select(points, self.f1, self.f2, mask)


def circle_problem(radius: float = 0.5, kappa1: float = 0.1,
                   kappa2: float = 1.0) -> ProblemSpec:
    """Circular interface centered at the origin on (-1,1)^2.

    u = -2 k2 ||x||^4 inside, -k1 ||x||^2 + k1/4 - k2/8 outside; the jump
    conditions close only for radius 1/2, which is the default. Other radii
    (the 1/4 variant in particular) are valid inputs for negative tests.
    """
    k1, k2 = float(kappa1), float(kappa2)

    def rsq(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + x[..., 1] ** 2

    return ProblemSpec(
        name="circle",
        kappa1=k1,
        kappa2=k2,
        levelset=Circle((0.0, 0.0), radius),
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


@dataclass
class JumpReport:
    max_u_jump: float
    max_flux_jump: float
    n_samples: int

    def ok(self, tol: float = 1e-10) -> bool:
        return self.max_u_jump <= tol and self.max_flux_jump <= tol


def _interface_samples(problem: ProblemSpec, n: int):
    """Points on the interface inside the domain plus unit normals."""
    ls = problem.levelset
    (x0, y0), (x1, y1) = problem.domain
    if isinstance(ls, Circle):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = np.column_stack(
            [
                ls.center[0] + ls.radius * np.cos(theta),
                ls.center[1] + ls.radius * np.sin(theta),
            ]
        )
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        return pts, normals
    if isinstance(ls, HorizontalLine):
        xs = np.linspace(x0, x1, n)
        pts = np.column_stack([xs, np.full(n, ls.y0)])
        normals = np.tile([0.0, 1.0], (n, 1))
        return pts, normals
    if isinstance(ls, TiltedLine):
        ca, sa = np.cos(ls.alpha), np.sin(ls.alpha)
        # Line x = t (cos a, sin a); keep |t| small enough to stay inside.
        tmax = min(
            abs(x1) / abs(ca) if ca != 0.0 else np.inf,
            abs(y1) / abs(sa) if sa != 0.0 else np.inf,
        )
        ts = np.linspace(-tmax, tmax, n)
        pts = np.column_stack([ts * ca, ts * sa])
        normals = np.tile([-sa, ca], (n, 1))
        return pts, normals
    raise TypeError(f"unsupported level set {type(ls).__name__}")


def verify_jump_conditions(problem: ProblemSpec, n_samples: int = 1000) -> JumpReport:
    """Maximum solution jump and flux jump over interface samples.

    A valid manufactured problem reports both below 1e-10; the radius-1/4
    circle variant fails the flux check by construction.
    """
    pts, normals = _interface_samples(problem, n_samples)
    u_jump = np.abs(problem.u2(pts) - problem.u1(pts))
    flux1 = problem.kappa1 * np.sum(np.asarray(problem.grad_u1(pts)) * normals, axis=1)
    flux2 = problem.kappa2 * np.sum(np.asarray(problem.grad_u2(pts)) * normals, axis=1)
    return JumpReport(float(u_jump.max()), float(np.abs(flux2 - flux1).max()),
                      n_samples)


def pde_residual_defect(problem: ProblemSpec, n_per_side: int = 100,
                        step: float = 1e-5, seed: int = 0) -> float:
    """Largest defect of -kappa * laplace(u) - f at random interior points.

    Five-point finite-difference Laplacian at the given step; points closer
    than 10 * step to the interface or the domain boundary are rejected so
    the stencil stays one-sided. The defect is measured relative to
    max(1, max |f|) per subdomain.
    """
    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = problem.domain
    worst = 0.0
    for side in (1, 2):
        u = problem.u1 if side == 1 else problem.u2
        f = problem.f1 if side == 1 else problem.f2
        want = -1.0 if side == 1 else 1.0
        pts = []
        while len(pts) < n_per_side:
            cand = rng.uniform([x0, y0], [x1, y1], size=(4 * n_per_side, 2))
            phi = np.asarray(problem.levelset.eval(cand))
            margin = 10.0 * step
            keep = (np.sign(phi) == want) & (np.abs(phi) > margin)
            keep &= np.all(cand > [x0 + margin, y0 + margin], axis=1)
            keep &= np.all(cand < [x1 - margin, y1 - margin], axis=1)
            pts.extend(cand[keep])
        pts = np.asarray(pts[:n_per_side])
        ex = np.array([step, 0.0])
        ey = np.array([0.0, step])
        lap = (
            u(pts + ex) + u(pts - ex) + u(pts + ey) + u(pts - ey) - 4.0 * u(pts)
        ) / step**2
        kappa = problem.kappa1 if side == 1 else problem.kappa2
        fv = np.asarray(f(pts))
        scale = max(1.0, float(np.abs(fv).max()))
        worst = max(worst, float(np.abs(-kappa * lap - fv).max()) / scale)
    return worst


def error_norms(mesh, configs, problem: ProblemSpec, u_h: np.ndarray,
                degree: int = 5):
    """L2 and H1-seminorm errors of a dof vector against the analytic solution.

    Integrated per subtriangle with the degree-5 rule; the analytic branch at
    every quadrature point follows the true interface sign, while u_h and its
    gradient come from the linear basis on the subtriangle. Each norm is the
    ``np.sum`` of its integrand over all patches (C order, patches
    outermost), but the integrands are only formed for the patches under one
    span of ``pairwise_sums`` at a time, so the result does not depend on the
    block size and no integrand array over the whole mesh is held.
    """
    rule = reference_quad_rule(degree)
    lam = reference_lambdas(rule)  # (nq, 3)
    planes = mesh.node_planes()
    per_patch = 4 * len(rule.weights)

    def leaf(start, stop):
        blk = slice(start // per_patch, -(-stop // per_patch))
        shape = configs.shape[blk]
        dofs = mesh.subtriangle_nodes(blk, configs.topology[blk])
        qpts, qwts = map_rule(gather_triangles(planes, dofs), configs.table.areas[shape],
                              rule)
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
        span = slice(start - blk.start * per_patch, stop - blk.start * per_patch)
        # ravel() reads the integrands in C order, as np.sum of the whole would.
        return np.sum(l2.ravel()[span]), np.sum(h1.ravel()[span])

    l2, h1 = pairwise_sums(leaf, mesh.n_patches, per_patch)
    return float(np.sqrt(l2)), float(np.sqrt(h1))


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
