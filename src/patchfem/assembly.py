"""Degree-of-freedom management, composed patch quadrature, and assembly of
the stiffness matrix and load vector for piecewise-linear elements on the
four-triangle patch splits.

The basis restricted to a subtriangle is linear, so stiffness entries use the
exact constant-gradient formulas and only the load (and the pointwise
diffusion sampling of the unfitted baseline) needs quadrature. Per-patch work
is pure; the global accumulation is a deterministic reduction in patch order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import DegenerateTriangle, QuadRule, reference_quad_rule, triangle_area
from .mesh import PatchMesh

__all__ = [
    "DofMap",
    "LinearSystem",
    "PatchQuadrature",
    "build_dof_map",
    "patch_quadrature",
    "local_stiffness",
    "local_load",
    "kappa_of",
    "assemble",
    "interpolate_nodal",
]


@dataclass
class DofMap:
    """Global numbering: one dof per mesh vertex, then one per edge node.

    ``patch_dofs[p]`` lists the six global dofs of patch p in local node
    order; shared edge nodes resolve to one global index from both sides.
    """

    n_vertices: int
    n_edges: int
    boundary: np.ndarray  # (n_dof,) bool
    patch_dofs: np.ndarray  # (n_patches, 6) int

    @property
    def n_dof(self) -> int:
        return self.n_vertices + self.n_edges


def build_dof_map(mesh: PatchMesh) -> DofMap:
    boundary = np.zeros(mesh.n_vertices + mesh.n_edges, dtype=bool)
    boundary[mesh.edges[mesh.edge_boundary].ravel()] = True
    boundary[mesh.n_vertices + np.nonzero(mesh.edge_boundary)[0]] = True
    patch_dofs = np.concatenate(
        [mesh.patches, mesh.n_vertices + mesh.patch_edges], axis=1
    )
    return DofMap(mesh.n_vertices, mesh.n_edges, boundary, patch_dofs)


@dataclass
class LinearSystem:
    """Sparse symmetric system with Dirichlet data kept alongside.

    ``matrix`` and ``rhs`` are assembled over all dofs; ``dirichlet_dofs``
    carry ``dirichlet_values``. ``reduced()`` eliminates them symmetrically.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.matrix.shape[0]

    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.n_dof, dtype=bool)
        mask[self.dirichlet_dofs] = False
        return mask

    def reduced(self):
        """(A_ff, b_f - A_fb g, free mask): the SPD system on free dofs."""
        free = self.free_mask()
        a_ff = self.matrix[free][:, free].tocsr()
        b = self.rhs[free] - self.matrix[free][:, ~free] @ self.dirichlet_values
        return a_ff, b, free

    def embed(self, x_free: np.ndarray) -> np.ndarray:
        """Full dof vector from free-dof values plus the Dirichlet data."""
        out = np.empty(self.n_dof)
        free = self.free_mask()
        out[free] = x_free
        out[self.dirichlet_dofs] = self.dirichlet_values
        return out


@dataclass
class PatchQuadrature:
    """Base rule mapped to the four physical subtriangles of one patch.

    points[i] are the physical quadrature points on subtriangle i and
    weights[i] the base weights scaled by that subtriangle's Jacobian, so the
    weights of each block sum to the subtriangle area.
    """

    points: np.ndarray  # (4, nq, 2)
    weights: np.ndarray  # (4, nq)
    sides: np.ndarray  # (4,)


def _map_points(tris: np.ndarray, ref_points: np.ndarray) -> np.ndarray:
    """Map reference points into physical triangles.

    tris (..., 3, 2), ref_points (nq, 2) -> (..., nq, 2): the affine map is
    composed implicitly, x = A + xhat (B - A) + yhat (C - A).
    """
    a = tris[..., 0, :][..., None, :]
    e1 = (tris[..., 1, :] - tris[..., 0, :])[..., None, :]
    e2 = (tris[..., 2, :] - tris[..., 0, :])[..., None, :]
    x = ref_points[:, 0][..., None]
    y = ref_points[:, 1][..., None]
    return a + x * e1 + y * e2


def patch_quadrature(nodes, topology, sides, base: QuadRule) -> PatchQuadrature:
    """Compose ``base`` over the four subtriangles of one patch.

    The base points are mapped through the subtriangle's affine image and
    each weight picks up the Jacobian determinant (twice the subtriangle
    area), making constants integrate exactly.
    """
    tris = np.asarray(nodes)[np.asarray(topology)]  # (4, 3, 2)
    areas = triangle_area(tris)
    if np.any(np.abs(areas) < 1e-300) or np.any(areas < 0.0):
        raise DegenerateTriangle("subtriangle collapsed or inverted")
    points = _map_points(tris, base.points)
    weights = base.weights[None, :] * (2.0 * areas)[:, None]
    return PatchQuadrature(points, weights, np.asarray(sides))


def local_stiffness(tri, kappa: float) -> np.ndarray:
    """Exact 3x3 linear-element stiffness: kappa * area * grad(l_a).grad(l_b).

    Rows sum to zero (constants lie in the kernel); symmetric.
    """
    tri = np.asarray(tri, dtype=float)
    area = triangle_area(tri)
    if abs(area) < 1e-300:
        raise DegenerateTriangle("zero-area triangle in stiffness")
    # grad(l_i) = perp(opposite edge) / (2 area), perp (x,y) -> (-y, x)
    edges = tri[[2, 0, 1]] - tri[[1, 2, 0]]  # edge opposite vertex i
    grads = np.column_stack([-edges[:, 1], edges[:, 0]]) / (2.0 * area)
    return kappa * area * (grads @ grads.T)


def barycentric(tri, points) -> np.ndarray:
    """Barycentric coordinates of ``points`` (nq, 2) in ``tri`` (3, 2)."""
    tri = np.asarray(tri, dtype=float)
    points = np.asarray(points, dtype=float)
    area = triangle_area(tri)
    lam = np.empty(points.shape[:-1] + (3,))
    for i in range(3):
        sub = np.broadcast_to(tri, points.shape[:-1] + (3, 2)).copy()
        sub[..., i, :] = points
        lam[..., i] = triangle_area(sub) / area
    return lam


def local_load(tri, points, weights, f) -> np.ndarray:
    """Load vector of one subtriangle from its mapped quadrature.

    ``points`` and ``weights`` come from patch_quadrature (weights scaled to
    the subtriangle); entries are sum_q w_q f(x_q) l_a(x_q).
    """
    lam = barycentric(tri, points)
    return (np.asarray(weights)[:, None] * np.asarray(f(points))[:, None] * lam).sum(
        axis=0
    )


def _ref_lambdas(ref_points: np.ndarray) -> np.ndarray:
    """Barycentric values (nq, 3) of the reference points."""
    x, y = ref_points[:, 0], ref_points[:, 1]
    return np.column_stack([1.0 - x - y, x, y])


def kappa_of(side: int, problem) -> float:
    """Diffusion value for a side label (1 or 2)."""
    return problem.kappa1 if side == 1 else problem.kappa2


def _gather_subtriangles(mesh: PatchMesh, configs):
    nodes = mesh.local_nodes_all()  # (Np, 6, 2)
    topo = configs.topology.astype(np.int64)
    sides = configs.sides
    tris = nodes[np.arange(mesh.n_patches)[:, None, None], topo]  # (Np,4,3,2)
    return nodes, topo, sides, tris


def assemble(mesh: PatchMesh, configs, problem, mode: str = "adapted",
             load_degree: int = 2) -> LinearSystem:
    """Assemble the global stiffness matrix and load vector.

    mode "adapted": the diffusion is constant on every subtriangle, taken
    from its side label. mode "baseline": the same uniform geometry but the
    diffusion is sampled pointwise at the quadrature points from the true
    level-set sign, i.e. the mesh ignores the interface. Dirichlet rows and
    columns are eliminated symmetrically against the problem's boundary data.
    """
    if mode not in ("adapted", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    dof_map = build_dof_map(mesh)
    nodes, topo, sides, tris = _gather_subtriangles(mesh, configs)
    n_p = mesh.n_patches

    areas = triangle_area(tris)  # (Np, 4)
    if np.any(areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")

    # Constant gradients of the three barycentric functions per subtriangle.
    opp = tris[:, :, [2, 0, 1], :] - tris[:, :, [1, 2, 0], :]  # (Np,4,3,2)
    grads = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / (
        2.0 * areas[..., None, None]
    )

    rule = reference_quad_rule(load_degree)
    qpts = _map_points(tris, rule.points)  # (Np, 4, nq, 2)
    qwts = rule.weights[None, None, :] * (2.0 * areas)[..., None]  # (Np,4,nq)

    if mode == "adapted":
        kap = np.where(sides == 1, problem.kappa1, problem.kappa2)  # (Np, 4)
    else:
        # Pointwise diffusion from the true interface, averaged by quadrature.
        phi_q = problem.levelset.eval(qpts)
        kap_q = np.where(phi_q < 0.0, problem.kappa1, problem.kappa2)
        kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)

    cell = np.einsum("pqad,pqbd->pqab", grads, grads)  # (Np, 4, 3, 3)
    cell *= (kap * areas)[..., None, None]

    # Load: f from the true level-set sign at each quadrature point.
    fvals = problem.f(qpts.reshape(-1, 2)).reshape(qpts.shape[:-1])
    lam = _ref_lambdas(rule.points)  # (nq, 3)
    load = np.einsum("pqn,pqn,na->pqa", qwts, fvals, lam)  # (Np, 4, 3)

    sub_dofs = np.take_along_axis(
        dof_map.patch_dofs[:, None, :].repeat(4, axis=1), topo, axis=2
    )  # (Np, 4, 3)

    rows = np.repeat(sub_dofs[..., :, None], 3, axis=-1).ravel()
    cols = np.repeat(sub_dofs[..., None, :], 3, axis=-2).ravel()
    matrix = sp.coo_matrix(
        (cell.ravel(), (rows, cols)), shape=(dof_map.n_dof, dof_map.n_dof)
    ).tocsr()
    rhs = np.zeros(dof_map.n_dof)
    np.add.at(rhs, sub_dofs.ravel(), load.ravel())

    dirichlet = np.nonzero(dof_map.boundary)[0]
    positions = _dof_positions(mesh)
    values = problem.u(positions[dirichlet])
    return LinearSystem(matrix, rhs, dirichlet, values)


def _dof_positions(mesh: PatchMesh) -> np.ndarray:
    return np.concatenate([mesh.vertices, mesh.edge_points()], axis=0)


def matrix_to_triplet_csv(system: LinearSystem, path: str) -> None:
    """Dump the assembled matrix as ``row,col,value`` triplets (debugging)."""
    coo = system.matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,value\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i},{j},{float(v)!r}\n")


def interpolate_nodal(problem, mesh: PatchMesh) -> np.ndarray:
    """Nodal interpolant of the analytic solution on the current mesh.

    Each vertex and edge node takes the branch selected by the level-set
    sign there; nodes on the discrete interface get identical values from
    either branch since the solution is continuous.
    """
    return problem.u(_dof_positions(mesh))
