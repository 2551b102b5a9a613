"""Assembly of the stiffness matrix and load vector for piecewise-linear
elements on the four-triangle patch splits. The dofs are the nodes of the
mesh (``PatchMesh.node_planes``): the vertices, then the edge nodes.

The basis restricted to a subtriangle is linear, so stiffness entries use
the exact constant-gradient formulas, from the areas and gradients of the
shape table of ``PatchConfigs``, and only the load (and the pointwise
diffusion sampling of the unfitted baseline) needs quadrature. The
per-patch work runs over fixed-size patch blocks (``mesh.patch_blocks``),
so its temporaries do not grow with the mesh, and adds the loads, the
segment weights of the edge halves and the matrix diagonal in patch order
(``_Weights``): the result is the same for any block size.
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

# The load integrands hold 12 points per patch and several fields at each:
# their blocks, and those of the stiffness terms, are PATCH_BLOCK // 4
# patches. The matrix is written in blocks of PATCH_BLOCK // 4 dof rows:
# the entries and sort keys of blocks of PATCH_BLOCK rows raised the peak
# RSS of the n = 256 circle solve by 4 MiB.
LOAD_BLOCK_WEIGHT = 4
ROW_BLOCK_WEIGHT = 4


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

    One patch block at a time, the loads (and, in mode "baseline", the
    diffusion of every subtriangle) are integrated with ``LOAD_RULE``, exact
    to degree 2. The stiffness terms are summed into segment weights in a
    second pass over the blocks (in mode "baseline", in the loads' pass),
    and the matrix is then written from them (``_Weights``).
    """
    if mode not in ("adapted", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    table = configs.table
    if np.any(table.areas <= 0.0):
        raise DegenerateTriangle("inverted subtriangle during assembly")
    # The dofs are the nodes of the mesh: vertices, then edge nodes.
    n_dof = mesh.n_vertices + mesh.n_edges
    lam = LOAD_RULE.lambdas  # (nq, 3)
    dirichlet = np.flatnonzero(mesh.boundary_nodes())
    planes = mesh.node_planes()
    rhs = np.zeros(n_dof)
    # The baseline's diffusion is averaged at the load points, so its
    # stiffness terms are summed in the loads' pass. The adapted ones take a
    # pass of their own once the loads' pass has freed its temporaries, so
    # that the segment weights, and then the matrix, reuse that memory.
    weights = _Weights(mesh, table) if mode == "baseline" else None
    for blk in patch_blocks(mesh.n_patches, LOAD_BLOCK_WEIGHT):
        topology, shape = configs.topology(blk), configs.shape[blk]
        dofs = mesh.subtriangle_nodes(blk, topology)
        areas = table.areas[shape]
        qpts, qwts = map_rule(gather_triangles(planes, dofs), areas,
                              LOAD_RULE)  # (nb,4,nq,2), (nb,4,nq)
        mask = problem.inside(qpts)  # true interface side at each load point
        if weights is not None:
            # Pointwise diffusion from the true interface, averaged by quadrature.
            kappa = np.where(mask, problem.kappa1, problem.kappa2)
            kappa = (qwts * kappa).sum(axis=-1) / qwts.sum(axis=-1)
        # Load: f from the true level-set sign at each quadrature point,
        # weighted and summed against each basis function in quadrature-point
        # order, as einsum("pqn,pqn,na->pqa", qwts, f, lam) sums it. The
        # weighted f is coordinate-major, like qwts, so each plane is
        # contiguous.
        wf = np.multiply(qwts, problem.f(qpts, mask), order="F")
        load = np.empty(dofs.shape)
        for a in range(3):
            acc = wf[..., 0] * lam[0, a]
            for q in range(1, len(lam)):
                acc += wf[..., q] * lam[q, a]
            load[..., a] = acc
        np.add.at(rhs, dofs.ravel(), load.ravel())
        # Freed before the stiffness terms are formed.
        del qpts, qwts, mask, wf, acc, load
        if weights is not None:
            weights.add(blk, topology, dofs, shape, areas * kappa)
            del kappa
        del dofs, areas
    values = problem.u(planes.T[dirichlet])
    del planes
    if weights is None:
        weights = _Weights(mesh, table)
        for blk in patch_blocks(mesh.n_patches, LOAD_BLOCK_WEIGHT):
            topology, shape = configs.topology(blk), configs.shape[blk]
            kappa = np.where(configs.sides[blk] == 1, problem.kappa1, problem.kappa2)
            weights.add(blk, topology, mesh.subtriangle_nodes(blk, topology), shape,
                        table.areas[shape] * kappa)
    return LinearSystem(weights.matrix(), rhs, dirichlet, values)


# The segments of a patch's split, as pairs of local nodes (the vertices
# 0, 1, 2, then the nodes 3 + k on the local edges k), in the
# counterclockwise order of a subtriangle that runs them. The halves of
# local edge k, from vertex k to its node and on to vertex k + 1, lie in one
# subtriangle each. The diagonal at corner v lies in two, run once each
# way: the middle triangle's side that cuts the corner off, or, in a vertex
# cut at v, the segment from v to the opposite edge's node.
HALVES = np.array([pair for k in range(3) for pair in ((k, 3 + k), (3 + k, (k + 1) % 3))])
MIDDLE_SIDES = np.array([(3 + v, 3 + (v + 2) % 3) for v in range(3)])
CUT_DIAGONALS = np.array([(v, 3 + (v + 1) % 3) for v in range(3)])
DIAGONALS = np.concatenate([MIDDLE_SIDES, CUT_DIAGONALS])
# The slot of each segment in a patch's twelve weights (the halves, the
# middle sides, then the cut diagonals), by the code 6 * p + q of a
# subtriangle edge from local node p to q; -1 for no segment.
SEGMENT_SLOTS = np.full(36, -1)
SEGMENT_SLOTS[HALVES @ (6, 1)] = range(6)
SEGMENT_SLOTS[DIAGONALS @ (6, 1)] = SEGMENT_SLOTS[DIAGONALS @ (1, 6)] = range(6, 12)
# Vertex a + 1 of a subtriangle, for a = 0, 1, 2.
AHEAD = np.array([1, 2, 0])


class _Weights:
    """The segment weights of the stiffness matrix, summed one patch block
    at a time, and the matrix written from them.

    Entry (a, b) of a subtriangle's element matrix is the term
    grad(l_a).grad(l_b) * (area * kappa), the products formed once per
    shape. An off-diagonal entry of the matrix couples the ends of one
    segment of the subtriangle mesh, and its value, the segment's weight,
    sums the terms of the one or two subtriangles that share it. A segment
    is a half of a mesh edge, whose id 2 * edge + half (from the edge's
    lower vertex) the grid fixes, or a diagonal inside one patch.
    """

    def __init__(self, mesh: PatchMesh, table):
        self.mesh = mesh
        # grad(l_a).grad(l_a), and grad(l_a).grad(l_b) along the edge from a to
        # b = a + 1, per subtriangle of each shape: x products, y added.
        gx, gy = np.moveaxis(table.grads, -1, 0)  # (n_shapes, 4, 3)
        self.own = np.ascontiguousarray(gx * gx + gy * gy)
        self.along = np.ascontiguousarray(gx * gx[..., AHEAD] + gy * gy[..., AHEAD])
        self.diagonal = np.zeros(mesh.n_vertices + mesh.n_edges)
        self.halves = np.zeros(2 * mesh.n_edges)
        self.middle = np.empty((mesh.n_patches, 3))  # 0 where a cut diagonal replaces it
        self.cuts = []  # (patch, corner, weight) of the cut diagonals

    def add(self, blk: slice, topology, dofs, shape, scale) -> None:
        """Add the terms of the patches ``blk``: their subtriangles' local
        nodes ``topology`` and dofs ``dofs``, shapes ``shape`` and area *
        kappa ``scale`` (nb, 4)."""
        mesh, scale = self.mesh, scale[..., None]
        np.add.at(self.diagonal, dofs.ravel(), (self.own[shape] * scale).ravel())
        slot = np.take(SEGMENT_SLOTS, 6 * topology + topology[..., AHEAD])
        slot += 12 * np.arange(len(slot))[:, None, None]
        weights = np.bincount(slot.ravel(), (self.along[shape] * scale).ravel(),
                              minlength=slot.size).reshape(-1, 12)
        # Half h of local edge k is half h of the edge, or 1 - h where the
        # patch runs the edge against its direction.
        backward = ~mesh.patch_edge_forward[blk]
        half = 2 * mesh.patch_edges[blk][..., None] + np.stack([backward, ~backward], axis=-1)
        np.add.at(self.halves, half.ravel(), weights[:, :6].ravel())
        self.middle[blk] = weights[:, 6:9]
        p, v = np.nonzero(weights[:, 9:])
        self.cuts.append((blk.start + p, v, weights[p, 9 + v]))

    def matrix(self) -> sp.csr_matrix:
        """The stiffness matrix, without its exact zeros, written one block
        of dof rows at a time into arrays of its stored size: each block's
        entries gathered from the weights, then sorted by row and column.
        A block reads the vertex pairs of ``mesh.edges`` and the edge ids
        of ``mesh.patch_edges`` only within the window of positions that
        holds its rows (``_windows``)."""
        mesh, diagonal, halves = self.mesh, self.diagonal, self.halves
        n_vertices, n_dof = mesh.n_vertices, len(diagonal)
        p, v, cut_weights = (np.concatenate(parts) for parts in zip(*self.cuts))
        cut_ends = (mesh.patches[p, v], n_vertices + mesh.patch_edges[p, (v + 1) % 3])
        edges, patch_edges = mesh.edges.ravel(), mesh.patch_edges.ravel()
        middle = self.middle.ravel()
        blocks = list(patch_blocks(n_dof, ROW_BLOCK_WEIGHT))
        size = blocks[0].stop
        vertex_windows = _windows(edges, size, len(blocks))
        edge_windows = _windows(patch_edges + n_vertices, size, len(blocks))
        stored = (np.count_nonzero(diagonal) + 2 * np.count_nonzero(halves)
                  + 2 * np.count_nonzero(self.middle) + 2 * len(cut_weights))
        index = index_dtype(stored, n_dof)
        indptr = np.zeros(n_dof + 1, dtype=index)
        data, indices = np.empty(stored), np.empty(stored, dtype=index)
        for rows, vertex_window, edge_window in zip(blocks, vertex_windows, edge_windows):
            lo, hi = rows.start, rows.stop
            every = np.arange(lo, hi, dtype=index)
            entries = [(every, every, diagonal[rows])]  # (rows, columns, values)
            if lo < n_vertices:
                # A vertex couples with the node of each of its edges.
                m = vertex_window.start + np.flatnonzero(
                    (edges[vertex_window] >= lo) & (edges[vertex_window] < hi))
                entries.append((edges[m], n_vertices + (m >> 1), halves[m]))
            if hi > n_vertices:
                # An edge node couples with the edge's two vertices, and in
                # each patch of the edge with the nodes of its other edges.
                e = slice(max(lo - n_vertices, 0), hi - n_vertices)
                entries.append((np.repeat(every[max(n_vertices - lo, 0):], 2),
                                edges[2 * e.start:2 * e.stop], halves[2 * e.start:2 * e.stop]))
                window = patch_edges[edge_window]
                m = edge_window.start + np.flatnonzero((window >= e.start) & (window < e.stop))
                k = m % 3
                row = n_vertices + patch_edges[m]
                before, after = m - k + (k + 2) % 3, m - k + (k + 1) % 3
                entries.append((row, n_vertices + patch_edges[before], middle[m]))
                entries.append((row, n_vertices + patch_edges[after], middle[after]))
            for ends in (cut_ends, cut_ends[::-1]):
                m = np.flatnonzero((ends[0] >= lo) & (ends[0] < hi))
                entries.append((ends[0][m], ends[1][m], cut_weights[m]))
            r, c, w = (np.concatenate(parts) for parts in zip(*entries))
            # By row, then column, with the exact zeros after every row.
            r -= lo
            zero = w == 0.0
            np.cumsum(np.bincount(r[~zero], minlength=hi - lo), out=indptr[lo + 1:hi + 1])
            indptr[lo + 1:hi + 1] += indptr[lo]
            key = r.astype(np.int64) * n_dof + c
            key[zero] = (hi - lo) * n_dof
            # Each entry's position in the low digits, so that sorting the keys
            # sorts the entries: (hi - lo) * n_dof * len(key) fits an int64 for
            # any mesh whose node ids fit int32.
            key *= len(key)
            key += np.arange(len(key))
            key.sort()
            start, stop = indptr[lo], indptr[hi]
            order = key[:stop - start] % len(key)
            np.take(c, order, out=indices[start:stop])
            np.take(w, order, out=data[start:stop])
            del entries, every, r, c, w, zero, key, order
        return sp.csr_matrix((data, indices, indptr), shape=(n_dof, n_dof))


def _windows(ids, size: int, n_blocks: int) -> list[slice]:
    """For each of ``n_blocks`` blocks of ``size`` consecutive ids, the
    slice of positions in ``ids`` from the first to the last that holds one
    of them (empty for none), found one block of positions at a time. The
    grid numbers its vertices and edges row by row, so each window spans a
    few grid rows of a block's entries."""
    first = np.full(n_blocks, len(ids))
    stop = np.zeros(n_blocks, dtype=first.dtype)
    for at in patch_blocks(len(ids)):
        block = ids[at] // size
        positions = np.arange(at.start, at.stop)
        np.minimum.at(first, block, positions)
        np.maximum.at(stop, block, positions + 1)
    return [slice(a, max(a, b)) for a, b in zip(first.tolist(), stop.tolist())]
