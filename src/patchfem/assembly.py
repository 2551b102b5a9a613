"""Assembly of the stiffness matrix and load vector for piecewise-linear
elements on the four-triangle patch splits. The dofs are the nodes of the
mesh (``PatchMesh.node_planes``): the vertices, then the edge nodes.

The subtriangle areas and barycentric gradients come from the shape table
of ``PatchConfigs``; the subtriangles themselves are gathered per patch
block for the load quadrature. The basis restricted to a subtriangle is
linear, so stiffness entries use the exact constant-gradient formulas and
only the load (and the pointwise diffusion sampling of the unfitted
baseline) needs quadrature. The per-patch work runs over fixed-size patch
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

from .geometry import (
    DegenerateTriangle,
    gather_triangles,
    map_rule,
    reference_lambdas,
    reference_quad_rule,
)
from .mesh import PatchMesh, index_dtype, patch_blocks

__all__ = [
    "LinearSystem",
    "assemble",
]

LOAD_DEGREE = 2  # degree of the load's quadrature rule


@dataclass
class LinearSystem:
    """Sparse symmetric system with Dirichlet data kept alongside.

    ``matrix`` and ``rhs`` are assembled over all dofs; ``dirichlet_dofs``
    carry ``dirichlet_values``. ``reduced()`` lifts them into the load in
    ``rhs`` itself and hands that vector to CG, which updates it as its
    residual: the load is consumed, and a second ``reduced()`` raises.
    ``half_row`` is the first row at which the matrix's coupling graph, its
    stored entries and the exact zeros ``assemble`` leaves out, reaches half
    its entries; CG splits its row spans there.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    half_row: int
    lifted: bool = field(default=False, init=False)

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
        SPD system. ``b`` is ``rhs`` itself, lifted in place to ``rhs - A
        g`` over all dofs, g the Dirichlet data and zero at the free dofs,
        and set to zero at the Dirichlet dofs. Its free entries have the bits
        of ``b_f - A_fb g``: the zeros of g add nothing to a row sum. CG
        updates ``b`` as its residual, so this consumes the load: a second
        call raises instead of lifting it again.
        """
        if self.lifted:
            raise RuntimeError("the load was lifted and handed to CG already; "
                               "assemble the system again")
        self.lifted = True
        g = np.zeros(self.n_dof)
        g[self.dirichlet_dofs] = self.dirichlet_values
        self.rhs -= self.matrix @ g
        self.rhs[self.dirichlet_dofs] = 0.0
        return self.matrix, self.rhs, self.free_mask()


def assemble(mesh: PatchMesh, configs, problem, mode: str = "adapted",
             previous=None) -> LinearSystem:
    """Assemble the global stiffness matrix and load vector.

    mode "adapted": the diffusion is constant on every subtriangle, taken
    from its side label. mode "baseline": the same uniform geometry but the
    diffusion is sampled pointwise at the quadrature points from the true
    level-set sign, i.e. the mesh ignores the interface. The Dirichlet dofs
    carry the problem's boundary data; ``LinearSystem.reduced`` lifts it.

    The loads (and, in mode "baseline", the diffusion of every subtriangle)
    are formed one patch block at a time (``patch_blocks``), and the loads
    are added in patch order. The matrix is then built one block of dof rows
    at a time (``_stiffness``), so the result is the one of a single COO
    over the whole mesh, for any block size, less its exact zeros.

    ``previous``, the (edge parameters, topology, side labels, matrix, half
    row) of an earlier adapted assembly on the same grid with the same
    kappas, spares the stiffness rows that no changed patch touches. A patch
    changed if one of its three edge parameters or one of its side labels
    differs from that assembly's. Equal edge parameters place its nodes at
    the same points, so its areas and gradients have the same bits and so
    do its rows. Only the rows of a changed patch's dofs are computed
    again, written over that matrix's, whose arrays the new matrix takes.
    Every row is computed, with ``previous`` let go of first, without such
    an assembly, in mode "baseline", where a topology differs (the coupling
    graph moves), and where a computed row stores other columns than that
    matrix's row (a patch was cut or uncut, which turns exact zeros into
    couplings or back). The result is bitwise the same.
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
    reuse = None
    if (previous is not None and mode == "adapted"
            and np.array_equal(previous[1], configs.topology)):
        edge_param, _, sides, matrix, half = previous
        # Edge parameters lie in (0, 1), where equal values have equal bits.
        changed = (edge_param != mesh.edge_param)[mesh.patch_edges].any(axis=1)
        changed |= (sides != configs.sides).any(axis=1)
        touched = np.zeros(n_dof, dtype=bool)
        touched[mesh.patch_nodes(np.flatnonzero(changed))] = True
        reuse = np.flatnonzero(touched).astype(index), (matrix, half)
        del edge_param, sides, matrix, changed, touched
    del previous

    rule = reference_quad_rule(LOAD_DEGREE)
    lam = reference_lambdas(rule)  # (nq, 3)
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
                              rule)  # (nb,4,nq,2), (nb,4,nq)
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
    stiffness = None
    if reuse is not None:
        stiffness = _stiffness(sub_dofs, configs.shape, table, kappa, n_dof, nnz, *reuse)
        reuse = None  # let go of, should the stored columns have moved
    if stiffness is None:
        stiffness = _stiffness(sub_dofs, configs.shape, table, kappa, n_dof, nnz)
    matrix, half = stiffness
    return LinearSystem(matrix, rhs, dirichlet, values, half)


def _stiffness(sub_dofs: np.ndarray, shape: np.ndarray, table, kappa, n_dof: int,
               nnz: int, rows=None, previous=None):
    """The stiffness matrix, one block of ``PATCH_BLOCK`` dof rows at a time,
    without its exact zeros, and its half row (``LinearSystem.half_row``).

    Element-matrix row 3 * t + a (the flat position of ``sub_dofs[t, a]``,
    subtriangle t = 4 * patch + j) holds kappa * area * grad(l_a).grad(l_b)
    at the dofs ``sub_dofs[t, b]``; the area and the gradients are entry j
    of the shape table's ``areas`` and ``grads`` at ``shape[patch]``, and
    kappa is ``kappa(patch, j)``. In the COO triplets of all element
    matrices in patch order its three entries are consecutive, and SciPy's
    COO -> CSR conversion buckets them by row dof in that order, i.e. in a
    stable sort of the row dofs. For each block of dof rows, the
    element-matrix rows of the block are found (``_row_order``) and gathered
    from the geometry in that order, and SciPy sorts and sums the duplicates
    of the block, row by row as it would over the whole matrix. So every
    bit is the one of a single COO over the whole mesh, and nothing with one
    slot per element-matrix entry is held.

    The coupling graph has ``nnz`` entries, counted before each block drops
    its exact zeros: the couplings across the right angles of the
    right-isosceles subtriangles, whose cotangent is 0. The blocks are
    written one after another into arrays of ``nnz`` entries, which are then
    shrunk in place to the stored ones: arrays grown block by block are
    copied whenever the allocator cannot extend them in place, and then held
    twice, and SciPy copies a view of less than half its base.

    Given the sorted dofs ``rows`` and ``previous``, the (matrix, half row)
    of an assembly with the same coupling graph, only those rows are
    computed, in the same way, and written over that matrix's: the result
    takes its arrays. None if a computed row stores other columns than that
    matrix's row, by which time that matrix may hold some of the new rows.
    """
    if rows is None:
        rows = np.arange(n_dof, dtype=sub_dofs.dtype)
    flat = sub_dofs.ravel()
    n_shapes = len(table.grads)
    # Coordinate-major planes over the table's subtriangles j * n_shapes + shape.
    gx, gy = table.grads.T.reshape(2, 3, -1)
    areas = table.areas.T.ravel()
    # The three dofs of a subtriangle as one 12- or 24-byte item.
    cols = sub_dofs.reshape(-1, 3)
    col_items = cols.view(np.dtype((np.void, 3 * cols.itemsize))).ravel()
    if previous is None:
        indptr = np.zeros(n_dof + 1, dtype=sub_dofs.dtype)
        data, indices = np.empty(nnz), np.empty(nnz, dtype=sub_dofs.dtype)
        half, coupled = None, 0  # the coupling graph's entries so far
    else:
        matrix, half = previous
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    blocks = list(patch_blocks(len(rows)))
    # The element rows of each patch block (its span of ``flat``) and the
    # blocks of dof rows they reach, so that each row block scans only
    # those: reach[i + 1, c] when patch block c has a dof from the first row
    # of row block i up to the first of row block i + 1 (reach[0]: below
    # the first row).
    spans = [slice(12 * p.start, 12 * p.stop) for p in patch_blocks(len(shape))]
    starts = rows[[blk.start for blk in blocks]]
    reach = np.zeros((len(blocks) + 1, len(spans)), dtype=bool)
    for c, span in enumerate(spans):
        reach[np.searchsorted(starts, flat[span], side="right"), c] = True
    for blk, reached in zip(blocks, reach[1:]):
        order, row_ptr = _row_order(flat, n_dof, rows[blk],
                                    [spans[c] for c in np.flatnonzero(reached)])
        # Element row 3 * t + a, vertex a of subtriangle t = 4 * patch + j;
        # s is its shape's subtriangle in the planes of the table, and at is
        # vertex a of s in their (3, 4 * n_shapes) planes.
        tri, at = np.divmod(order.astype(flat.dtype), 3)
        del order
        s = tri & 3
        s *= n_shapes
        s += np.take(shape, tri >> 2)
        at *= 4 * n_shapes
        at += s
        # (gx_a gx_b + gy_a gy_b) * kappa * area, one plane per b: the x
        # products, then the y products added, then kappa * area.
        vals = np.empty((len(tri), 3))
        a_side, b_side = np.take(gx, at), np.empty(len(tri))
        for b, out in enumerate(vals.T):
            np.multiply(np.take(gx[b], s, out=b_side), a_side, out=out)
        np.take(gy, at, out=a_side)
        for b, out in enumerate(vals.T):
            np.take(gy[b], s, out=b_side)
            b_side *= a_side
            out += b_side
        np.take(areas, s, out=a_side)
        a_side *= kappa(tri >> 2, tri & 3)
        vals.T[...] *= a_side
        del at, s, a_side, b_side, out
        block = sp.csr_matrix((vals.ravel(), np.take(col_items, tri).view(cols.dtype),
                               3 * row_ptr), shape=(blk.stop - blk.start, n_dof))
        del vals, tri
        block.sum_duplicates()
        if previous is None:
            if half is None and coupled + block.nnz >= nnz // 2:
                half = blk.start + int(np.searchsorted(block.indptr, nnz // 2 - coupled))
            coupled += block.nnz
            block.eliminate_zeros()
            indptr[blk.start + 1:blk.stop + 1] = block.indptr[1:] + indptr[blk.start]
            start, stop = indptr[blk.start], indptr[blk.stop]
            data[start:stop], indices[start:stop] = block.data, block.indices
        else:
            # Each row's entries go where the row starts in ``previous``.
            block.eliminate_zeros()
            first = indptr[rows[blk]]
            lengths = np.diff(block.indptr)
            if not np.array_equal(indptr[rows[blk] + 1] - first, lengths):
                return None
            slots = np.repeat(first - block.indptr[:-1], lengths)
            slots += np.arange(len(block.data), dtype=slots.dtype)
            if not np.array_equal(indices[slots], block.indices):
                return None
            data[slots] = block.data
        del block
    if previous is None:
        if coupled != nnz:
            raise RuntimeError(f"the coupling graph has {coupled} entries, not {nnz}")
        stored = int(indptr[-1])
        data.resize(stored, refcheck=False)
        indices.resize(stored, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n_dof, n_dof)), half


def _row_order(flat: np.ndarray, n_dof: int, rows: np.ndarray, spans):
    """The element-matrix rows whose row dof is in the sorted ``rows``, in a
    stable sort of their row dofs, each as its flat position ``3 * t + a``
    in the subtriangle dofs ``flat`` (subtriangle t, local vertex a), and
    the start of each row's run in that order (``len(rows) + 1`` offsets).
    They are looked for in the slices ``spans`` of ``flat``, in order."""
    wanted = np.zeros(n_dof, dtype=bool)
    wanted[rows] = True
    # np.take gathers the mask about twice as fast as fancy indexing.
    order = np.concatenate([np.flatnonzero(np.take(wanted, flat[span])) + span.start
                            for span in spans])
    del wanted
    dofs = flat[order]
    sort = np.argsort(dofs, kind="stable")
    order = order[sort]
    row_ptr = np.empty(len(rows) + 1, dtype=flat.dtype)
    row_ptr[:-1] = np.searchsorted(dofs[sort], rows)
    row_ptr[-1] = len(order)
    return order, row_ptr

