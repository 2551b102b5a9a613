"""Degree-of-freedom management and assembly of the stiffness matrix and
load vector for piecewise-linear elements on the four-triangle patch splits.

The subtriangle areas and barycentric gradients come from the shape table
of ``PatchConfigs``; the subtriangles themselves are gathered per patch
block for the load quadrature. The basis restricted to a subtriangle is
linear, so stiffness entries use the exact constant-gradient formulas and
only the load (and the pointwise diffusion sampling of the unfitted
baseline) needs quadrature. The per-patch work runs over fixed-size patch
blocks (``mesh.patch_blocks``), so its temporaries do not grow with the
mesh. The matrix is built one block of dof rows at a time, its
element-matrix rows in the order SciPy's COO -> CSR conversion of all
element matrices in patch order would bucket them, and SciPy sums each
block's duplicates; the loads are added in patch order. The result is the
same for any block size, and no array with one slot per element-matrix
entry is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import (
    DegenerateTriangle,
    gather_triangles,
    map_rule,
    reference_lambdas,
    reference_quad_rule,
)
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
    order, the node ids of ``PatchMesh.patch_nodes``; shared edge nodes
    resolve to one global index from both sides.
    """

    n_vertices: int
    n_edges: int
    boundary: np.ndarray  # (n_dof,) bool
    patch_dofs: np.ndarray  # (n_patches, 6) int

    @property
    def n_dof(self) -> int:
        return self.n_vertices + self.n_edges


def build_dof_map(mesh: PatchMesh) -> DofMap:
    return DofMap(mesh.n_vertices, mesh.n_edges, mesh.boundary_nodes(), mesh.patch_nodes())


@dataclass
class LinearSystem:
    """Sparse symmetric system with Dirichlet data kept alongside.

    ``matrix`` and ``rhs`` are assembled over all dofs; ``dirichlet_dofs``
    carry ``dirichlet_values``. ``reduced()`` lifts them into the load.
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
        """(matrix, b, free mask): the system CG solves on the free dofs.

        The matrix is ``matrix`` itself; its free rows and columns are the
        SPD system. ``b`` is the lifted load ``rhs - A g`` over all dofs, g
        the Dirichlet data and zero at the free dofs, and ``b`` is zero at
        the Dirichlet dofs. Its free entries have the bits of
        ``b_f - A_fb g``: the zeros of g add nothing to a row sum.
        """
        g = np.zeros(self.n_dof)
        g[self.dirichlet_dofs] = self.dirichlet_values
        b = self.matrix @ g
        np.subtract(self.rhs, b, out=b)
        b[self.dirichlet_dofs] = 0.0
        return self.matrix, b, self.free_mask()


def assemble(mesh: PatchMesh, configs, problem, mode: str = "adapted",
             load_degree: int = 2) -> LinearSystem:
    """Assemble the global stiffness matrix and load vector.

    mode "adapted": the diffusion is constant on every subtriangle, taken
    from its side label. mode "baseline": the same uniform geometry but the
    diffusion is sampled pointwise at the quadrature points from the true
    level-set sign, i.e. the mesh ignores the interface. The Dirichlet dofs
    carry the problem's boundary data; ``LinearSystem.reduced`` lifts it.

    The loads and kappa * area of every subtriangle are formed one patch
    block at a time (``patch_blocks``), and the loads are added in patch
    order. The matrix is then built one block of dof rows at a time
    (``_stiffness``), so the result is the one of a single COO over the whole
    mesh, for any block size.
    """
    if mode not in ("adapted", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    table = configs.table
    if np.any(table.areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")

    rule = reference_quad_rule(load_degree)
    lam = reference_lambdas(rule)  # (nq, 3)
    # The dofs are the nodes of the mesh: vertices, then edge nodes.
    n_dof = mesh.n_vertices + mesh.n_edges
    # The index type SciPy picks for a COO with 36 entries per patch.
    index = np.int32 if max(36 * mesh.n_patches, n_dof) < 2**31 else np.int64
    sub_dofs = mesh.subtriangle_nodes(slice(None), configs.topology).astype(index)
    dirichlet = np.flatnonzero(mesh.boundary_nodes())
    planes = mesh.node_planes()
    kap_area = np.empty((mesh.n_patches, 4), order="F")
    rhs = np.zeros(n_dof)
    for blk in patch_blocks(mesh.n_patches):
        areas = table.areas[configs.shape[blk]]
        qpts, qwts = map_rule(gather_triangles(planes, sub_dofs[blk]), areas,
                              rule)  # (nb,4,nq,2), (nb,4,nq)
        mask = problem.inside(qpts)  # true interface side at each load point
        if mode == "adapted":
            kap = np.where(configs.sides[blk] == 1, problem.kappa1, problem.kappa2)
        else:
            # Pointwise diffusion from the true interface, averaged by quadrature.
            kap_q = np.where(mask, problem.kappa1, problem.kappa2)
            kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)  # (nb, 4)
        np.multiply(kap, areas, out=kap_area[blk])
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
        # Freed before the next block's arrays are made.
        del qpts, qwts, mask, kap, wf, acc, load
    values = problem.u(planes.T[dirichlet])
    del planes
    matrix = _stiffness(sub_dofs, configs.shape, table.grads, kap_area, n_dof)
    return LinearSystem(matrix, rhs, dirichlet, values)


def _stiffness(sub_dofs: np.ndarray, shape: np.ndarray, grads: np.ndarray,
               kap_area: np.ndarray, n_dof: int) -> sp.csr_matrix:
    """The stiffness matrix, one block of ``PATCH_BLOCK`` dof rows at a time.

    Element-matrix row (t, a) of subtriangle t = 4 * patch + j holds
    kappa * area * grad(l_a).grad(l_b) at the dofs ``sub_dofs[t, b]``; the
    gradients are row j of ``grads[shape[patch]]``, the shape table's. In
    the COO triplets of all element matrices in patch order its three
    entries are consecutive, and SciPy's COO -> CSR conversion buckets them
    by row dof in that order, i.e. in a stable sort of the row dofs. For
    each block of dof rows, the element-matrix rows of the block are
    gathered from the geometry in that order and SciPy sorts and sums the
    duplicates of the block, row by row as it would over the whole matrix.
    So every bit is the one of a single COO over the whole mesh, and nothing
    with one slot per element-matrix entry is held.
    """
    order, row_ptr = _row_order(sub_dofs, n_dof)
    n_patches, n_shapes = len(shape), len(grads)
    # Coordinate-major planes over the table's subtriangles
    # j * n_shapes + shape, and kappa * area over the mesh's
    # j * n_patches + patch.
    gx, gy = grads.T.reshape(2, 3, -1)
    ka = kap_area.T.ravel()
    # The three dofs of a subtriangle as one 12- or 24-byte item.
    cols = sub_dofs.reshape(-1, 3)
    col_items = cols.view(np.dtype((np.void, 3 * cols.itemsize))).ravel()
    indptr = np.zeros(n_dof + 1, dtype=sub_dofs.dtype)
    data, indices = np.empty(0), np.empty(0, dtype=sub_dofs.dtype)
    for blk in patch_blocks(n_dof):
        lo, hi = row_ptr[blk.start], row_ptr[blk.stop]
        # Element row 4 * t + a of subtriangle t = 4 * patch + j; k is t in
        # kappa * area, s is its shape's subtriangle in the planes of gx and
        # gy, and at is vertex a of s in their (3, 4 * n_shapes) planes.
        at = order[lo:hi].astype(np.intp)
        tri = at >> 2
        patch = tri >> 2
        k = tri & 3
        s = k * n_shapes
        s += np.take(shape, patch)
        k *= n_patches
        k += patch
        del patch
        at &= 3
        at *= 4 * n_shapes
        at += s
        # (gx_a gx_b + gy_a gy_b) * kappa * area, one plane per b.
        vals = np.empty((hi - lo, 3))
        np.multiply(np.take(gx, s, axis=1), np.take(gx, at), out=vals.T)
        gyy = np.take(gy, s, axis=1)
        gyy *= np.take(gy, at)
        vals.T[...] += gyy
        vals.T[...] *= np.take(ka, k)
        block = sp.csr_matrix(
            (vals.ravel(), np.take(col_items, tri).view(cols.dtype),
             3 * (row_ptr[blk.start:blk.stop + 1] - lo)),
            shape=(blk.stop - blk.start, n_dof))
        del at, tri, k, s, vals, gyy
        block.sum_duplicates()
        indptr[blk.start + 1:blk.stop + 1] = block.indptr[1:] + indptr[blk.start]
        # Grow the matrix arrays in place (a realloc: no view of them
        # exists) and append the block.
        start = indptr[blk.start]
        data.resize(indptr[blk.stop], refcheck=False)
        indices.resize(indptr[blk.stop], refcheck=False)
        data[start:], indices[start:] = block.data, block.indices
        del block
    return sp.csr_matrix((data, indices, indptr), shape=(n_dof, n_dof))


def _row_order(sub_dofs: np.ndarray, n_dof: int):
    """The element-matrix rows in a stable sort of their row dofs, each as
    ``4 * t + a`` (subtriangle t, local vertex a), and the start of each
    dof's run in that order (``n_dof + 1`` offsets)."""
    rows = sub_dofs.ravel()
    # A stable sort of the row dofs, as one sort of distinct keys
    # (dof, 4 * t + a) packed into int64.
    n_sub = len(rows) // 3
    shift = (4 * n_sub).bit_length()
    order = rows.astype(np.int64)
    order <<= shift
    for a, plane in enumerate(order.reshape(-1, 3).T):
        plane |= np.arange(a, 4 * n_sub, 4)
    order.sort()
    row_ptr = np.searchsorted(order, np.arange(n_dof + 1) << shift).astype(rows.dtype)
    order &= (1 << shift) - 1
    return order.astype(rows.dtype), row_ptr


def interpolate_nodal(problem, mesh: PatchMesh) -> np.ndarray:
    """Nodal interpolant of the analytic solution on the current mesh.

    Each vertex and edge node takes the branch selected by the level-set
    sign there; nodes on the discrete interface get identical values from
    either branch since the solution is continuous.
    """
    return problem.u(mesh.node_planes().T)
