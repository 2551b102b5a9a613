"""Degree-of-freedom management and assembly of the stiffness matrix and
load vector for piecewise-linear elements on the four-triangle patch splits.

The subtriangles, their areas and barycentric gradients come from
``PatchConfigs``. The basis restricted to a subtriangle is linear, so
stiffness entries use the exact constant-gradient formulas and only the load
(and the pointwise diffusion sampling of the unfitted baseline) needs
quadrature. The per-patch work runs over fixed-size patch blocks
(``mesh.patch_blocks``), so its temporaries do not grow with the mesh. The
element matrices go straight into a CSR array with duplicates, laid out as
SciPy's COO -> CSR conversion of all element matrices in patch order would
lay them out, and SciPy sums the duplicates; the loads are added in patch
order. The result is the same for any block size, and no COO over the whole
mesh is held.
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
        a_ff = self.matrix[free][:, free]
        # A_fb g as the free rows of A g_ext, g_ext zero on the free dofs: the
        # zero terms leave the bits of every row sum as they are.
        g_ext = np.zeros(self.n_dof)
        g_ext[self.dirichlet_dofs] = self.dirichlet_values
        b = self.rhs[free] - (self.matrix @ g_ext)[free]
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

    Element matrices and loads are formed one patch block at a time
    (``patch_blocks``). Each element-matrix row goes straight into its slot
    of a row-bucketed CSR array with duplicates, laid out as SciPy's COO ->
    CSR conversion lays out the triplets in patch order; ``sum_duplicates``
    then sorts and sums it, and the loads are added in patch order. So the
    result is the one of a single COO over the whole mesh, for any block size.
    """
    if mode not in ("adapted", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    dof_map = build_dof_map(mesh)
    if np.any(configs.areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")

    rule = reference_quad_rule(load_degree)
    lam = reference_lambdas(rule)  # (nq, 3)
    n_dof = dof_map.n_dof
    # The index type SciPy picks for a COO with 36 entries per patch.
    index = np.int32 if max(36 * mesh.n_patches, n_dof) < 2**31 else np.int64
    sub_dofs = dof_map.subtriangle_dofs(slice(None), configs.topology).astype(index)
    slots, indptr, indices = _row_buckets(sub_dofs, n_dof)
    data = np.empty(indices.shape)
    row_item = np.dtype((np.void, 3 * data.itemsize))
    rhs = np.zeros(n_dof)
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
        cell = np.empty(areas.shape + (3, 3))
        for a in range(3):
            for b in range(a, 3):
                cell[..., a, b] = (gx[..., a] * gx[..., b] + gy[..., a] * gy[..., b]) * kap
                cell[..., b, a] = cell[..., a, b]
        # One element-matrix row is one 24-byte item, so the scatter moves
        # whole rows.
        np.put(data.view(row_item).ravel(), slots[12 * blk.start:12 * blk.stop],
               cell.view(row_item).ravel())
        # Load: f from the true level-set sign at each quadrature point,
        # weighted and summed against each basis function in quadrature-point
        # order, as einsum("pqn,pqn,na->pqa", qwts, f, lam) sums it. The
        # weighted f is coordinate-major, like qwts, so each plane is
        # contiguous.
        wf = np.multiply(qwts, problem.f(qpts, mask), order="F")
        load = np.empty(areas.shape + (3,))
        for a in range(3):
            acc = wf[..., 0] * lam[0, a]
            for q in range(1, len(lam)):
                acc += wf[..., q] * lam[q, a]
            load[..., a] = acc
        np.add.at(rhs, sub_dofs[blk].ravel(), load.ravel())
    # Nothing but the CSR arrays stays alive through ``sum_duplicates``, the
    # peak of the whole solve; its final copy then frees them.
    del qpts, qwts, mask, kap, cell, wf, acc, load, slots, sub_dofs
    matrix = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(n_dof, n_dof))
    del data, indices
    matrix.sum_duplicates()

    dirichlet = np.nonzero(dof_map.boundary)[0]
    positions = _dof_positions(mesh)
    values = problem.u(positions[dirichlet])
    return LinearSystem(matrix, rhs, dirichlet, values)


def _row_buckets(sub_dofs: np.ndarray, n_dof: int):
    """Slots of the element-matrix rows in a row-bucketed CSR with duplicates.

    Row k of the element matrices (subtriangle k // 3, local vertex k % 3)
    couples dof ``sub_dofs.flat[k]`` with the three dofs of its subtriangle.
    In the COO triplets of all element matrices in patch order, its three
    entries are consecutive, and SciPy's COO -> CSR conversion buckets them
    by row in that order. So row k starts at ``indptr[dof] + 3 * rank``,
    where rank counts the earlier rows of the same dof; that is 3 times the
    position of k in a stable sort of the row dofs. Returns the slot (in
    units of 3 entries) of every row, the CSR ``indptr`` and the column
    indices (n_rows, 3).
    """
    rows = sub_dofs.ravel()
    # A stable argsort of the row dofs, as one sort of distinct keys
    # (dof, k) packed into int64.
    shift = rows.size.bit_length()
    order = rows.astype(np.int64) << shift
    order |= np.arange(rows.size)
    order.sort()
    order &= (1 << shift) - 1
    slots = np.empty_like(rows)
    slots[order] = np.arange(rows.size, dtype=rows.dtype)
    indptr = np.zeros(n_dof + 1, dtype=rows.dtype)
    np.cumsum(3 * np.bincount(rows, minlength=n_dof), out=indptr[1:])
    indices = np.take(sub_dofs.reshape(-1, 3), order // 3, axis=0)
    return slots, indptr, indices


def _dof_positions(mesh: PatchMesh) -> np.ndarray:
    return np.concatenate([mesh.vertices, mesh.edge_points()], axis=0)


def interpolate_nodal(problem, mesh: PatchMesh) -> np.ndarray:
    """Nodal interpolant of the analytic solution on the current mesh.

    Each vertex and edge node takes the branch selected by the level-set
    sign there; nodes on the discrete interface get identical values from
    either branch since the solution is continuous.
    """
    return problem.u(_dof_positions(mesh))
