"""Assembly of the stiffness matrix and load vector for piecewise-linear
elements on the four-triangle patch splits. The dofs are the nodes of the
mesh (``PatchMesh.node_planes``): the vertices, then the edge nodes.

The subtriangle areas and barycentric gradients come from the shape table
of ``PatchConfigs``, and the stiffness forms the gradient products once per
shape; the subtriangles themselves are gathered per patch block for the
load quadrature. The basis restricted to a subtriangle is linear, so
stiffness entries use the exact constant-gradient formulas and only the
load (and the pointwise diffusion sampling of the unfitted baseline) needs
quadrature. The per-patch work runs over fixed-size patch
blocks (``mesh.patch_blocks``), so its temporaries do not grow with the
mesh. The matrix is built one block of dof rows at a time, its
element-matrix rows in the order SciPy's COO -> CSR conversion of all
element matrices in patch order would bucket them, SciPy sums each
block's duplicates, and the block drops its exact zeros; the loads are
added in patch order. The result is the same for any block size, and no
array with one slot per element-matrix entry is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import LOAD_RULE, DegenerateTriangle, gather_triangles, map_rule
from .mesh import PatchMesh, index_dtype, patch_blocks

__all__ = [
    "LinearSystem",
    "assemble",
]


@dataclass
class LinearSystem:
    """Sparse symmetric system with Dirichlet data kept alongside.

    ``matrix`` and ``rhs`` are assembled over all dofs; ``dirichlet_dofs``
    carry ``dirichlet_values``. ``reduced()`` lifts them into the load in
    ``rhs`` itself, clears the couplings of the Dirichlet rows in
    ``matrix`` and hands both to CG, which updates the load as its
    residual: the load is consumed, and a second ``reduced()`` raises.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    lifted: bool = field(default=False, init=False)

    @property
    def n_dof(self) -> int:
        return self.matrix.shape[0]

    def reduced(self):
        """(matrix, b, g): the system CG solves, and its start vector.

        g is the Dirichlet data over all dofs, zero at the free dofs. ``b``
        is ``rhs`` itself, lifted in place to ``rhs - A g`` over all dofs
        and set to zero at the Dirichlet dofs. Its free entries have the
        bits of ``b_f - A_fb g``: the zeros of g add nothing to a row sum.
        The matrix is ``matrix`` itself, with the off-diagonal entries of
        its Dirichlet rows then set to zero in place, so that its product
        with a vector that is zero at the Dirichlet dofs is zero there too;
        its free rows and columns are the SPD system. CG updates ``b`` as
        its residual, so this consumes the load: a second call raises
        instead of lifting it again.
        """
        if self.lifted:
            raise RuntimeError("the load was lifted and handed to CG already; "
                               "assemble the system again")
        self.lifted = True
        a = self.matrix
        g = np.zeros(self.n_dof)
        g[self.dirichlet_dofs] = self.dirichlet_values
        self.rhs -= a @ g
        self.rhs[self.dirichlet_dofs] = 0.0
        # The positions of the Dirichlet rows' stored entries, row after row:
        # entry k of a row's run sits at its row start plus k.
        starts = a.indptr[self.dirichlet_dofs]
        counts = a.indptr[self.dirichlet_dofs + 1] - starts
        firsts = np.cumsum(counts) - counts  # each run's first entry in that list
        entries = np.arange(counts.sum()) + np.repeat(starts - firsts, counts)
        off_diagonal = a.indices[entries] != np.repeat(self.dirichlet_dofs, counts)
        a.data[entries[off_diagonal]] = 0.0
        return a, self.rhs, g


def assemble(mesh: PatchMesh, configs, problem, mode: str = "adapted") -> LinearSystem:
    """Assemble the global stiffness matrix and load vector.

    mode "adapted": the diffusion is constant on every subtriangle, taken
    from its side label. mode "baseline": the same uniform geometry but the
    diffusion is sampled pointwise at the quadrature points from the true
    level-set sign, i.e. the mesh ignores the interface. The Dirichlet dofs
    carry the problem's boundary data; ``LinearSystem.reduced`` lifts it.

    The loads (and, in mode "baseline", the diffusion of every subtriangle)
    are integrated with ``LOAD_RULE``, exact to degree 2, one patch block at
    a time (``patch_blocks``), and the loads are added in patch order. The
    matrix is then built one block of dof rows at a time (``_stiffness``),
    so the result is the one of a single COO over the whole mesh, for any
    block size, less its exact zeros.
    """
    if mode not in ("adapted", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    table = configs.table
    if np.any(table.areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")
    # The dofs are the nodes of the mesh: vertices, then edge nodes.
    n_dof = mesh.n_vertices + mesh.n_edges
    # The index type SciPy picks for a COO with 36 entries per patch.
    index = index_dtype(36 * mesh.n_patches, n_dof)
    lam = LOAD_RULE.lambdas  # (nq, 3)
    sub_dofs = mesh.subtriangle_nodes(slice(None), configs.topology).astype(index,
                                                                            copy=False)
    dirichlet = np.flatnonzero(mesh.boundary_nodes())
    planes = mesh.node_planes()
    if mode == "adapted":
        def kappa(patch, j):
            return np.where(configs.sides[patch, j] == 1, problem.kappa1, problem.kappa2)
    else:
        kap = np.empty((mesh.n_patches, 4))

        def kappa(patch, j):
            return kap[patch, j]
    rhs = np.zeros(n_dof)
    for blk in patch_blocks(mesh.n_patches):
        areas = table.areas[configs.shape[blk]]
        qpts, qwts = map_rule(gather_triangles(planes, sub_dofs[blk]), areas,
                              LOAD_RULE)  # (nb,4,nq,2), (nb,4,nq)
        mask = problem.inside(qpts)  # true interface side at each load point
        if mode == "baseline":
            # Pointwise diffusion from the true interface, averaged by quadrature.
            kap_q = np.where(mask, problem.kappa1, problem.kappa2)
            kap[blk] = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)
            del kap_q
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
        del qpts, qwts, mask, wf, acc, load
    values = problem.u(planes.T[dirichlet])
    del planes
    # The four subtriangles of a patch tile the hexagon of its vertices and
    # edge nodes, which takes three diagonals whatever the topology, and each
    # mesh edge is two segments: every node couples with itself and each
    # such segment couples two nodes.
    nnz = n_dof + 2 * (3 * mesh.n_patches + 2 * mesh.n_edges)
    matrix = _stiffness(sub_dofs, configs.shape, table, kappa, n_dof, nnz)
    return LinearSystem(matrix, rhs, dirichlet, values)


def _stiffness(sub_dofs: np.ndarray, shape: np.ndarray, table, kappa, n_dof: int,
               nnz: int):
    """The stiffness matrix, one block of ``PATCH_BLOCK`` dof rows at a time,
    without its exact zeros.

    Element-matrix row 3 * t + a (the flat position of ``sub_dofs[t, a]``,
    subtriangle t = 4 * patch + j) holds kappa * area * grad(l_a).grad(l_b)
    at the dofs ``sub_dofs[t, b]``; the area and the gradients are entry j
    of the shape table's ``areas`` and ``grads`` at ``shape[patch]``, and
    kappa is ``kappa(patch, j)``. The products grad(l_a).grad(l_b) are
    formed once per subtriangle of the table, and each element row takes its
    three from there. In the COO triplets of all element matrices in patch
    order its three entries are consecutive, and SciPy's COO -> CSR
    conversion buckets them by row dof in that order, i.e. in a stable sort
    of the row dofs. For each block of dof rows, the element-matrix rows of
    the block are found (``_row_order``) and gathered in that order, and
    SciPy sorts and sums the duplicates of the block, row by row as it would
    over the whole matrix. So every bit is the one of a single COO over the
    whole mesh, and nothing with one slot per element-matrix entry is held.

    The coupling graph has ``nnz`` entries, counted before each block drops
    its exact zeros: the couplings across the right angles of the
    right-isosceles subtriangles, whose cotangent is 0. The blocks are
    written one after another into arrays of ``nnz`` entries, which are then
    shrunk in place to the stored ones: arrays grown block by block are
    copied whenever the allocator cannot extend them in place, and then held
    twice, and SciPy copies a view of less than half its base.
    """
    flat = sub_dofs.ravel()
    # grad(l_a).grad(l_b) of vertex a of subtriangle j of each shape, for
    # all b, as row 12 * shape + 3 * j + a: the x products, then the y
    # products added.
    gx, gy = np.moveaxis(table.grads, -1, 0)  # (n_shapes, 4, 3)
    dots = gx[..., :, None] * gx[..., None, :]
    dots += gy[..., :, None] * gy[..., None, :]
    areas = table.areas.ravel()
    # The three values, and the three dofs, of an element row as one item.
    row_items = dots.reshape(-1, 3).view(np.dtype((np.void, 3 * dots.itemsize))).ravel()
    cols = sub_dofs.reshape(-1, 3)
    col_items = cols.view(np.dtype((np.void, 3 * cols.itemsize))).ravel()
    indptr = np.zeros(n_dof + 1, dtype=sub_dofs.dtype)
    data, indices = np.empty(nnz), np.empty(nnz, dtype=sub_dofs.dtype)
    coupled = 0  # the coupling graph's entries so far
    for blk in patch_blocks(n_dof):
        order, row_ptr = _row_order(flat, blk)
        # Element row 3 * t + a, vertex a of subtriangle t = 4 * patch + j; at
        # is its shape's subtriangle 4 * shape + j in the table, then its row
        # 3 * at + a of the products.
        tri, a = np.divmod(order.astype(flat.dtype), 3)
        del order
        patch, j = tri >> 2, tri & 3
        at = np.take(shape, patch)
        at *= 4
        at += j
        scale = np.take(areas, at)
        scale *= kappa(patch, j)
        del patch, j
        at *= 3
        at += a
        vals = np.take(row_items, at).view(np.float64).reshape(-1, 3)
        vals *= scale[:, None]
        del a, at, scale
        block = sp.csr_matrix((vals.ravel(), np.take(col_items, tri).view(cols.dtype),
                               3 * row_ptr), shape=(blk.stop - blk.start, n_dof))
        del tri, vals
        block.sum_duplicates()
        coupled += block.nnz
        block.eliminate_zeros()
        indptr[blk.start + 1:blk.stop + 1] = block.indptr[1:] + indptr[blk.start]
        start, stop = indptr[blk.start], indptr[blk.stop]
        data[start:stop], indices[start:stop] = block.data, block.indices
        del block
    if coupled != nnz:
        raise RuntimeError(f"the coupling graph has {coupled} entries, not {nnz}")
    stored = int(indptr[-1])
    data.resize(stored, refcheck=False)
    indices.resize(stored, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n_dof, n_dof))


def _row_order(flat: np.ndarray, rows: slice):
    """The element-matrix rows whose row dof is in the range ``rows``, in a
    stable sort of their row dofs, each as its flat position ``3 * t + a``
    in the subtriangle dofs ``flat`` (subtriangle t, local vertex a), and
    the start of each row's run in that order (``rows.stop - rows.start +
    1`` offsets). ``flat`` is scanned one patch block (12 entries per
    patch) at a time."""
    spans = (slice(12 * p.start, 12 * p.stop) for p in patch_blocks(len(flat) // 12))
    order = np.concatenate([np.flatnonzero((flat[span] >= rows.start)
                                           & (flat[span] < rows.stop)) + span.start
                            for span in spans])
    dofs = flat[order]
    sort = np.argsort(dofs, kind="stable")
    order = order[sort]
    row_ptr = np.searchsorted(dofs[sort], np.arange(rows.start, rows.stop + 1,
                                                    dtype=flat.dtype))
    return order, row_ptr.astype(flat.dtype)
