"""Implicit interface descriptions with closed-form segment crossings.

Each level set evaluates a signed distance phi; phi < 0 marks subdomain 1 and
phi > 0 subdomain 2. Crossings of straight segments are solved exactly (linear
equation for lines, quadratic for circles), so no iterative root finding is
involved. Every query is batched over the leading axes of its points: one
point gives a 0-d array, and ``segment_crossings`` always returns sorted
roots (..., 2), NaN-padded. Values are immutable and all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Circle", "TiltedLine", "HorizontalLine", "SNAP_TOL"]

# Crossings within SNAP_TOL (relative to segment length / supplied scale) of a
# segment endpoint are treated as vertex hits, never as interior crossings.
SNAP_TOL = 1e-10


def _interior(t1, t2):
    """The roots t1, t2 (...) strictly inside (0,1) after endpoint snapping,
    sorted, as (..., 2) with NaN where a root was dropped (NaN sorts last)."""
    roots = np.stack([t1, t2], axis=-1)
    inside = (roots > SNAP_TOL) & (roots < 1.0 - SNAP_TOL)
    roots = np.where(inside, roots, np.nan)
    roots.sort(axis=-1)
    return roots


def _line_segment_crossings(phi_a, phi_b):
    denom = phi_a - phi_b
    # A segment parallel to (or lying on) the line has no isolated crossing.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom == 0.0, np.nan, phi_a / denom)
    return _interior(t, np.full_like(t, np.nan))


def _dot(u, v):
    """Dot products over the last axis of (..., 2) arrays. A stacked
    (1, 2) @ (2, 1) matmul rounds exactly as the BLAS dot of one pair."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Circle:
    """Circular interface: phi(x) = ||x - center|| - radius."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("circle radius must be positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        dx = points[..., 0] - self.center[0]
        dy = points[..., 1] - self.center[1]
        return np.sqrt(dx * dx + dy * dy) - self.radius

    def segment_crossings(self, a, b):
        """Parameters t in (0,1) with ||(1-t)a + t b - center|| = radius.

        At most two, solved from the quadratic in t with the numerically
        stable formula. Double roots (tangency) do not cross and yield none.
        Segments with endpoints ``a``, ``b`` (..., 2) give sorted roots
        (..., 2), NaN-padded.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = b - a
        m = a - np.asarray(self.center)
        qa = _dot(d, d)
        qb = 2.0 * _dot(m, d)
        qc = _dot(m, m) - self.radius**2
        if np.any(qa == 0.0):
            raise ValueError("segment endpoints coincide")
        disc = qb * qb - 4.0 * qa * qc
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(disc)
            # Stable split: q has the sign of qb, avoiding cancellation.
            qq = -0.5 * (qb + np.copysign(sq, qb))
            t1 = qq / qa
            t2 = np.where(qq != 0.0, qc / qq, t1)
        # No sign change without two distinct roots (grazing contact).
        crossing = (disc > 0.0) & ~(np.abs(t1 - t2) <= SNAP_TOL)
        t1, t2 = np.where(crossing, t1, np.nan), np.where(crossing, t2, np.nan)
        return _interior(t1, t2)


@dataclass(frozen=True)
class TiltedLine:
    """Line through the origin: phi(x) = cos(alpha) x2 - sin(alpha) x1."""

    alpha: float

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        return np.cos(self.alpha) * points[..., 1] - np.sin(self.alpha) * points[..., 0]

    def segment_crossings(self, a, b):
        """Parameter t in (0,1) where the segment a -> b crosses the line,
        as (..., 2) roots with NaN in the second slot (and the first where
        it does not cross)."""
        return _line_segment_crossings(self.eval(a), self.eval(b))


@dataclass(frozen=True)
class HorizontalLine:
    """Horizontal line: phi(x) = x2 - y0."""

    y0: float

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        return points[..., 1] - self.y0

    def segment_crossings(self, a, b):
        """Parameter t in (0,1) where the segment a -> b crosses the line,
        as (..., 2) roots with NaN in the second slot (and the first where
        it does not cross)."""
        return _line_segment_crossings(self.eval(a), self.eval(b))
