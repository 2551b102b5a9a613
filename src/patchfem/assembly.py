"""Degree-of-freedom management and assembly of the stiffness matrix and
load vector for piecewise-linear elements on the four-triangle patch splits.

The subtriangles, their areas and barycentric gradients come from
``PatchConfigs``. The basis restricted to a subtriangle is linear, so
stiffness entries use the exact constant-gradient formulas and only the load
(and the pointwise diffusion sampling of the unfitted baseline) needs
quadrature. The global accumulation is a deterministic reduction in patch
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import DegenerateTriangle, map_rule, reference_lambdas, reference_quad_rule
from .mesh import PatchMesh

__all__ = [
    "DofMap",
    "LinearSystem",
    "build_dof_map",
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

    def subtriangle_dofs(self, topology) -> np.ndarray:
        """Global dofs (n_patches, 4, 3) of the subtriangles given by the
        local node triples ``topology`` (n_patches, 4, 3)."""
        return np.take_along_axis(self.patch_dofs[:, None, :], topology, axis=2)


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
    areas, grads = configs.areas, configs.grads
    if np.any(areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")

    rule = reference_quad_rule(load_degree)
    qpts, qwts = map_rule(configs.tris, areas, rule)  # (Np,4,nq,2), (Np,4,nq)

    if mode == "adapted":
        kap = np.where(configs.sides == 1, problem.kappa1, problem.kappa2)  # (Np, 4)
    else:
        # Pointwise diffusion from the true interface, averaged by quadrature.
        phi_q = problem.levelset.eval(qpts)
        kap_q = np.where(phi_q < 0.0, problem.kappa1, problem.kappa2)
        kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)

    cell = np.einsum("pqad,pqbd->pqab", grads, grads)  # (Np, 4, 3, 3)
    cell *= (kap * areas)[..., None, None]

    # Load: f from the true level-set sign at each quadrature point.
    fvals = problem.f(qpts.reshape(-1, 2)).reshape(qpts.shape[:-1])
    lam = reference_lambdas(rule)  # (nq, 3)
    load = np.einsum("pqn,pqn,na->pqa", qwts, fvals, lam)  # (Np, 4, 3)

    sub_dofs = dof_map.subtriangle_dofs(configs.topology)

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


def interpolate_nodal(problem, mesh: PatchMesh) -> np.ndarray:
    """Nodal interpolant of the analytic solution on the current mesh.

    Each vertex and edge node takes the branch selected by the level-set
    sign there; nodes on the discrete interface get identical values from
    either branch since the solution is continuous.
    """
    return problem.u(_dof_positions(mesh))
