"""Structured patch triangulation with a per-edge adjustable node registry.

Every patch (macro triangle) carries one adjustable node on each of its three
edges. The node position is stored once per edge, as a parameter t in (0,1)
measured from the edge's lower-indexed vertex, so the two patches sharing an
edge always see the identical physical point; inter-patch continuity is a
storage property, not a convention to maintain.

Within one patch the three edge nodes are addressed through the local
parameters (q, r, s):

    local edge 0 = v0->v1, node P3 at parameter s        -> P3 = (s, 0)
    local edge 1 = v1->v2, node P4 at parameter r        -> P4 = (1-r, r)
    local edge 2 = v2->v0, node P5 at parameter 1-q      -> P5 = (0, q)

where the right-hand column gives the reference coordinates for the unit
patch v0=(0,0), v1=(1,0), v2=(0,1).

The mesh is mutable only while the adaptation pass writes edge parameters;
afterwards it is treated as frozen and may be read concurrently.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "PatchMesh",
    "build_structured_mesh",
    "patch_blocks",
    "pairwise_sums",
    "refine",
    "mesh_to_json",
    "FREE",
    "INTERFACE_LOCKED",
    "STRATEGY_SET",
    "LOCK_NAMES",
]

# Edge lock states: FREE edges may be written by a parameter strategy,
# INTERFACE_LOCKED holds an interface crossing, STRATEGY_SET a strategy value.
FREE = 0
INTERFACE_LOCKED = 1
STRATEGY_SET = 2
LOCK_NAMES = {FREE: "free", INTERFACE_LOCKED: "interface", STRATEGY_SET: "strategy"}

# Patches per block of the per-patch integrals (assembly, error norms, angle
# audit): their quadrature temporaries are sized by a block, not the mesh.
PATCH_BLOCK = 2**14


def patch_blocks(n_patches: int):
    """Consecutive slices of at most ``PATCH_BLOCK`` patches, in patch order.

    Per-patch work is local, so a pass that fills its outputs block by block
    and reduces them once afterwards gives the same bytes for any block size.
    """
    for start in range(0, n_patches, PATCH_BLOCK):
        yield slice(start, min(start + PATCH_BLOCK, n_patches))


# NumPy sums a contiguous float64 array pairwise: a run of at most 128
# elements is summed directly, a longer one is split at half its length
# rounded down to a multiple of 8 and the sums of the two parts are added.
_PAIRWISE_RUN = 128


def pairwise_sums(leaf, n_patches: int, per_patch: int):
    """``np.sum`` of per-patch arrays that are never formed over the mesh.

    The arrays are C-ordered with ``per_patch`` elements per patch, i.e.
    ``n_patches * per_patch`` elements flat. ``leaf(start, stop)`` returns
    the ``np.sum`` of every array over the flat span [start, stop), which
    covers at most ``4 * PATCH_BLOCK`` elements (or NumPy's 128-element
    run). The spans are NumPy's own pairwise split, and their sums are
    combined in its order, so each result equals ``np.sum`` of the whole
    array bit for bit, for any block size.
    """
    # Four elements per patch of a block: about 2,300 patches of the
    # 28-point error integrands, whatever ``per_patch`` is.
    leaf_size = max(4 * PATCH_BLOCK, _PAIRWISE_RUN)
    return _pairwise(leaf, 0, n_patches * per_patch, leaf_size)


def _pairwise(leaf, start: int, stop: int, leaf_size: int):
    if stop - start <= leaf_size:
        return leaf(start, stop)
    half = (stop - start) // 2
    half -= half % 8
    left = _pairwise(leaf, start, start + half, leaf_size)
    right = _pairwise(leaf, start + half, stop, leaf_size)
    return tuple(a + b for a, b in zip(left, right))


class PatchMesh:
    """Triangulation of patches with one adjustable node per edge.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
    edges : (n_edges, 2) int array
        Vertex pairs, lower index first.
    edge_param : (n_edges,) float array
        Node position along the edge, measured from the lower-indexed vertex.
    edge_lock : (n_edges,) int8 array of FREE / INTERFACE_LOCKED / STRATEGY_SET
    edge_boundary : (n_edges,) bool array
    patches : (n_patches, 3) int array
        Vertex ids, counterclockwise.
    patch_edges : (n_patches, 3) int array
        Edge ids in local order (v0->v1, v1->v2, v2->v0).
    patch_edge_forward : (n_patches, 3) bool array
        Whether the local traversal agrees with the stored edge direction.
    h_max : float
        Longest patch edge in the mesh.
    """

    def __init__(self, vertices, edges, edge_boundary, patches, patch_edges, n=None,
                 domain=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.edge_boundary = np.asarray(edge_boundary, dtype=bool)
        self.patches = np.asarray(patches, dtype=np.int64)
        self.patch_edges = np.asarray(patch_edges, dtype=np.int64)
        self.edge_param = np.full(len(self.edges), 0.5)
        self.edge_lock = np.zeros(len(self.edges), dtype=np.int8)
        self.n = n
        self.domain = domain

        pv = self.vertices[self.patches]  # (Np, 3, 2)
        pe = self.edges[self.patch_edges]  # (Np, 3, 2)
        # Local edge k runs from local vertex k to local vertex (k+1)%3.
        first_local = self.patches  # (Np, 3): local start vertex of edge k
        self.patch_edge_forward = pe[:, :, 0] == first_local
        edge_vec = pv[:, [1, 2, 0], :] - pv
        self._edge_lengths = np.linalg.norm(edge_vec, axis=-1)  # (Np, 3)
        self.h_max = float(self._edge_lengths.max())

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    def patch_diameter(self, pid: int) -> float:
        return float(self._edge_lengths[pid].max())

    def patch_diameters(self) -> np.ndarray:
        """Longest edge of every patch, (n_patches,)."""
        return self._edge_lengths.max(axis=1)

    def edge_points(self) -> np.ndarray:
        """Physical position of every edge node, (n_edges, 2)."""
        return self.node_planes()[:, self.n_vertices:].T

    def node_planes(self) -> np.ndarray:
        """Coordinates of every node, (2, n_vertices + n_edges): the x plane
        and the y plane over the vertices, then the edge nodes, in the
        numbering of ``patch_nodes``. An edge node lies at
        (1 - t) * a + t * b between the edge's vertices a and b."""
        planes = np.empty((2, self.n_vertices + self.n_edges))
        planes[:, :self.n_vertices] = self.vertices.T
        t = self.edge_param
        a, b = self.edges.T
        for x, out in zip(self.vertices.T, planes[:, self.n_vertices:]):
            np.multiply(1.0 - t, x[a], out=out)
            out += t * x[b]
        return planes

    def boundary_nodes(self) -> np.ndarray:
        """Mask over the nodes of ``node_planes``: the vertices and edge
        nodes on the domain boundary."""
        boundary = np.zeros(self.n_vertices + self.n_edges, dtype=bool)
        boundary[self.edges[self.edge_boundary].ravel()] = True
        boundary[self.n_vertices + np.nonzero(self.edge_boundary)[0]] = True
        return boundary

    def patch_nodes(self, patches=slice(None)) -> np.ndarray:
        """Node ids (n, 6) of the patches selected by ``patches`` (every
        patch by default): the three vertices, then the nodes on local edges
        0, 1, 2. A node shared by patches has one id."""
        return np.concatenate([self.patches[patches],
                               self.n_vertices + self.patch_edges[patches]], axis=1)

    def subtriangle_nodes(self, patches, topology) -> np.ndarray:
        """Node ids (n, 4, 3) of the subtriangles of the patches selected by
        ``patches``, given by their local node triples ``topology``
        (n, 4, 3)."""
        return np.take_along_axis(self.patch_nodes(patches)[:, None, :], topology, axis=2)

    def local_nodes_all(self) -> np.ndarray:
        """Six node positions of every patch, (n_patches, 6, 2), in the order
        of ``patch_nodes``.

        Edge nodes are computed once from edge storage, so patches sharing an
        edge report bitwise-identical points.
        """
        return self.node_planes()[:, self.patch_nodes()].transpose(1, 2, 0)

    def local_t(self, pid: int, k: int) -> float:
        """Edge-node parameter of local edge k, measured in local direction."""
        eid = self.patch_edges[pid, k]
        t = float(self.edge_param[eid])
        return t if self.patch_edge_forward[pid, k] else 1.0 - t

    def local_params_all(self) -> np.ndarray:
        """(n_patches, 3) array of (q, r, s)."""
        t = self.edge_param[self.patch_edges]  # (Np, 3) storage params
        t = np.where(self.patch_edge_forward, t, 1.0 - t)
        out = np.empty_like(t)
        out[:, 0] = 1.0 - t[:, 2]  # q
        out[:, 1] = t[:, 1]        # r
        out[:, 2] = t[:, 0]        # s
        return out

    def set_local_t(self, pid: int, k: int, t_local: float, lock: int) -> None:
        """Write the edge-node parameter of local edge k (local direction)."""
        if not 0.0 < t_local < 1.0:
            raise ValueError(f"edge parameter {t_local} outside (0,1)")
        eid = self.patch_edges[pid, k]
        t = t_local if self.patch_edge_forward[pid, k] else 1.0 - t_local
        self.edge_param[eid] = t
        self.edge_lock[eid] = lock


def build_structured_mesh(n: int, domain=((-1.0, -1.0), (1.0, 1.0))) -> PatchMesh:
    """Uniform n-by-n grid of squares, each split along its bottom-left to
    top-right diagonal into two counterclockwise patch triangles.

    Parameters
    ----------
    n : int
        Cells per side, n >= 1.
    domain : ((x0, y0), (x1, y1))
        Axis-aligned rectangle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    (x0, y0), (x1, y1) = domain
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # Cell corners, indexed [row j, column i].
    j, i = np.mgrid[0:n, 0:n]
    bl = j * (n + 1) + i
    br, tl = bl + 1, bl + n + 1
    tr = tl + 1

    # Edge ids follow a row-major walk over the cells that numbers each edge
    # when first met: right vertical, diagonal, bottom (new only in row 0),
    # left (new only in column 0), top. Closed form of that walk:
    first_row, first_col = (j == 0).astype(np.int64), (i == 0).astype(np.int64)
    base = j * (3 * n + 1) + n * (j > 0) + i * (3 + first_row) + (i > 0)
    right, diag = base, base + 1
    top = base + 2 + first_row + first_col
    bottom = np.empty_like(base)
    bottom[0] = base[0] + 2
    bottom[1:] = top[:-1]
    left = np.empty_like(base)
    left[:, 0] = base[:, 0] + 2 + first_row[:, 0]
    left[:, 1:] = right[:, :-1]

    edges = np.empty((3 * n * n + 2 * n, 2), dtype=np.int64)
    edges[right] = np.stack([br, tr], axis=-1)
    edges[diag] = np.stack([bl, tr], axis=-1)
    edges[bottom[0]] = np.stack([bl[0], br[0]], axis=-1)
    edges[left[:, 0]] = np.stack([bl[:, 0], tl[:, 0]], axis=-1)
    edges[top] = np.stack([tl, tr], axis=-1)

    # Each square splits along its bottom-left -> top-right diagonal. Patches
    # are rooted at their right-angle corner so the reference map is a
    # similarity and reference-coordinate angle bounds carry over verbatim.
    # Lower triangle: right vertical, diagonal, bottom horizontal; upper
    # triangle: left vertical, diagonal, top horizontal.
    patches = np.stack([np.stack([br, tr, bl], axis=-1),
                        np.stack([tl, bl, tr], axis=-1)], axis=2).reshape(-1, 3)
    patch_edges = np.stack([np.stack([right, diag, bottom], axis=-1),
                            np.stack([left, diag, top], axis=-1)],
                           axis=2).reshape(-1, 3)

    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]
    on_vert = (a[:, 0] == b[:, 0]) & ((a[:, 0] == x0) | (a[:, 0] == x1))
    on_horz = (a[:, 1] == b[:, 1]) & ((a[:, 1] == y0) | (a[:, 1] == y1))
    boundary = on_vert | on_horz

    return PatchMesh(vertices, edges, boundary, patches, patch_edges, n=n,
                     domain=domain)


def refine(mesh: PatchMesh) -> PatchMesh:
    """Globally refined mesh: regenerate the structured grid at 2n.

    Edge parameters are reset to 1/2; adaptation must be re-run.
    """
    if mesh.n is None or mesh.domain is None:
        raise ValueError("can only refine meshes built by build_structured_mesh")
    return build_structured_mesh(2 * mesh.n, mesh.domain)


def mesh_to_json(mesh: PatchMesh, configs=None) -> str:
    """JSON dump of the mesh, optionally including the adapted
    subtriangulations from ``adaptation.PatchConfigs``.

    Schema: {"vertices": [[x, y], ...],
             "edges": [[v0, v1, t, lock], ...],
             "patches": [[v0, v1, v2, e0, e1, e2], ...],
             "subtriangles": [...]}.
    Each subtriangle entry holds the patch id, cut kind, (q, r, s), the six
    node coordinates, four local index triples, and four side labels.
    """
    doc = {
        "vertices": mesh.vertices.tolist(),
        "edges": [
            [a, b, t, LOCK_NAMES[lk]]
            for (a, b), t, lk in zip(mesh.edges.tolist(), mesh.edge_param.tolist(),
                                     mesh.edge_lock.tolist())
        ],
        "patches": np.concatenate([mesh.patches, mesh.patch_edges], axis=1).tolist(),
        "subtriangles": [],
    }
    if configs is not None:
        columns = zip(configs.kind_names(), configs.params.tolist(),
                      mesh.local_nodes_all().tolist(), configs.topology.tolist(),
                      configs.sides.tolist())
        doc["subtriangles"] = [
            {"patch": pid, "cut": kind, "params": params, "nodes": nodes,
             "triangles": triangles, "sides": sides}
            for pid, (kind, params, nodes, triangles, sides) in enumerate(columns)
        ]
    return json.dumps(doc)
