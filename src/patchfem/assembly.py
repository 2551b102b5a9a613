"""Degree-of-freedom management and assembly of the stiffness matrix and
load vector for piecewise-linear elements on the four-triangle patch splits.

The subtriangles, their areas and barycentric gradients come from
``PatchConfigs``. The basis restricted to a subtriangle is linear, so
stiffness entries use the exact constant-gradient formulas and only the load
(and the pointwise diffusion sampling of the unfitted baseline) needs
quadrature. The per-patch work runs over fixed-size patch blocks
(``mesh.patch_blocks``), so its temporaries do not grow with the mesh; the
global accumulation is one deterministic reduction in patch order over the
filled arrays, which makes the result independent of the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import DegenerateTriangle, map_rule, reference_lambdas, reference_quad_rule
from .mesh import PatchMesh, patch_blocks

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

    def subtriangle_dofs(self, patches, topology) -> np.ndarray:
        """Global dofs (n, 4, 3) of the subtriangles of the patches selected
        by ``patches``, given by their local node triples ``topology``
        (n, 4, 3)."""
        return np.take_along_axis(self.patch_dofs[patches, None, :], topology, axis=2)


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
        free_rows = self.matrix[free]
        a_ff = free_rows[:, free].tocsr()
        b = self.rhs[free] - free_rows[:, ~free] @ self.dirichlet_values
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

    Element matrices, loads and their global dofs are formed one patch block
    at a time (``patch_blocks``) into arrays over all patches; the sparse
    matrix and the load vector are then reduced once from those arrays in
    patch order, so the result does not depend on the block size.
    """
    if mode not in ("adapted", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    dof_map = build_dof_map(mesh)
    if np.any(configs.areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")

    rule = reference_quad_rule(load_degree)
    lam = reference_lambdas(rule)  # (nq, 3)
    n_dof = dof_map.n_dof
    cell = np.empty((mesh.n_patches, 4, 3, 3))
    load = np.empty((mesh.n_patches, 4, 3))
    sub_dofs = np.empty(load.shape, dtype=np.int32 if n_dof < 2**31 else np.int64)
    for blk in patch_blocks(mesh.n_patches):
        areas, grads = configs.areas[blk], configs.grads[blk]
        qpts, qwts = map_rule(configs.tris[blk], areas, rule)  # (nb,4,nq,2), (nb,4,nq)
        mask = problem.inside(qpts)  # true interface side at each load point
        if mode == "adapted":
            kap = np.where(configs.sides[blk] == 1, problem.kappa1, problem.kappa2)
        else:
            # Pointwise diffusion from the true interface, averaged by quadrature.
            kap_q = np.where(mask, problem.kappa1, problem.kappa2)
            kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)  # (nb, 4)

        # kappa * area * grad(l_a).grad(l_b), symmetric in a and b.
        gx, gy = grads[..., 0], grads[..., 1]
        kap *= areas
        for a in range(3):
            for b in range(a, 3):
                cell[blk, :, a, b] = (gx[..., a] * gx[..., b] + gy[..., a] * gy[..., b]) * kap
                cell[blk, :, b, a] = cell[blk, :, a, b]
        # Load: f from the true level-set sign at each quadrature point.
        np.einsum("pqn,pqn,na->pqa", qwts, problem.f(qpts, mask), lam, out=load[blk])
        sub_dofs[blk] = dof_map.subtriangle_dofs(blk, configs.topology[blk])
    # The last block's quadrature would otherwise stay alive through the
    # COO -> CSR conversion, the peak of the whole solve.
    del qpts, qwts, mask, kap

    rows = np.repeat(sub_dofs[..., :, None], 3, axis=-1).ravel()
    cols = np.repeat(sub_dofs[..., None, :], 3, axis=-2).ravel()
    matrix = sp.coo_matrix((cell.ravel(), (rows, cols)), shape=(n_dof, n_dof)).tocsr()
    rhs = np.zeros(n_dof)
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
