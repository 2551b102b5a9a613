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
    "index_dtype",
    "patch_blocks",
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


def index_dtype(*counts: int) -> type:
    """The integer type of index arrays whose entries stay below the largest
    of ``counts``: int32, or int64 from 2**31 on, as SciPy picks the index
    type of a sparse matrix."""
    return np.int32 if max(counts) < 2**31 else np.int64


# Patches per block of the per-patch integrals (assembly, error norms, angle
# audit): their quadrature temporaries are sized by a block, not the mesh.
PATCH_BLOCK = 2**14


def patch_blocks(n_patches: int, weight: int = 1):
    """Consecutive slices of at most ``PATCH_BLOCK // weight`` patches (at
    least one), in patch order (or dof rows, or edges). Work with larger
    temporaries per patch passes a larger ``weight``.

    Per-patch work is local, so a pass that fills its outputs block by block
    and reduces them once afterwards gives the same bytes for any block size.
    """
    size = max(PATCH_BLOCK // weight, 1)
    for start in range(0, n_patches, size):
        yield slice(start, min(start + size, n_patches))


class PatchMesh:
    """Triangulation of patches with one adjustable node per edge.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
    edges : (n_edges, 2) int array
        Vertex pairs, lower index first. The int arrays are int32, or int64
        where the node count (vertices and edges) reaches 2**31
        (``index_dtype``), so that node ids fit them too.
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

    def __init__(self, vertices, edges, edge_boundary, patches, patch_edges):
        self.vertices = np.asarray(vertices, dtype=float)
        index = index_dtype(len(self.vertices) + len(edges))
        self.edges = np.asarray(edges, dtype=index)
        self.edge_boundary = np.asarray(edge_boundary, dtype=bool)
        self.patches = np.asarray(patches, dtype=index)
        self.patch_edges = np.asarray(patch_edges, dtype=index)
        self.edge_param = np.full(len(self.edges), 0.5)
        self.edge_lock = np.zeros(len(self.edges), dtype=np.int8)

        self.patch_edge_forward = np.empty(self.patches.shape, dtype=bool)
        self._diameters = np.empty(self.n_patches)
        for blk in patch_blocks(self.n_patches):
            # Local edge k runs from local vertex k to local vertex (k+1)%3.
            start = self.edges[self.patch_edges[blk], 0]
            self.patch_edge_forward[blk] = start == self.patches[blk]
            pv = self.vertices[self.patches[blk]]  # (nb, 3, 2)
            lengths = np.linalg.norm(pv[:, [1, 2, 0], :] - pv, axis=-1)
            self._diameters[blk] = lengths.max(axis=1)
        self.h_max = float(self._diameters.max())

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    def patch_diameters(self) -> np.ndarray:
        """Longest edge of every patch, (n_patches,)."""
        return self._diameters

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
        nodes = self.patch_nodes(patches)
        return np.take(nodes, topology + 6 * np.arange(len(nodes))[:, None, None])

    def local_nodes_all(self) -> np.ndarray:
        """Six node positions of every patch, (n_patches, 6, 2), in the order
        of ``patch_nodes``.

        Edge nodes are computed once from edge storage, so patches sharing an
        edge report bitwise-identical points.
        """
        return self.node_planes()[:, self.patch_nodes()].transpose(1, 2, 0)

    def local_params_all(self) -> np.ndarray:
        """(n_patches, 3) array of (q, r, s), formed one patch block at a
        time. Only the angle rows and the mesh dump list them; a solve
        reads the edge parameters themselves."""
        out = np.empty((self.n_patches, 3))
        for blk in patch_blocks(self.n_patches):
            t = self.edge_param[self.patch_edges[blk]]  # (nb, 3) storage params
            t = np.where(self.patch_edge_forward[blk], t, 1.0 - t)
            out[blk, 0] = 1.0 - t[:, 2]  # q
            out[blk, 1] = t[:, 1]        # r
            out[blk, 2] = t[:, 0]        # s
        return out


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

    n_edges = 3 * n * n + 2 * n
    index = index_dtype(len(vertices) + n_edges)
    # Cell corners, indexed [row j, column i].
    j, i = np.indices((n, n), dtype=index)
    bl = j * (n + 1) + i
    br, tl = bl + 1, bl + n + 1
    tr = tl + 1

    # Edge ids follow a row-major walk over the cells that numbers each edge
    # when first met: right vertical, diagonal, bottom (new only in row 0),
    # left (new only in column 0), top. Closed form of that walk:
    first_row, first_col = (j == 0).astype(index), (i == 0).astype(index)
    base = j * (3 * n + 1) + n * (1 - first_row) + i * (3 + first_row) + (1 - first_col)
    right, diag = base, base + 1
    top = base + 2 + first_row + first_col
    bottom = np.empty_like(base)
    bottom[0] = base[0] + 2
    bottom[1:] = top[:-1]
    left = np.empty_like(base)
    left[:, 0] = base[:, 0] + 2 + first_row[:, 0]
    left[:, 1:] = right[:, :-1]

    edges = np.empty((n_edges, 2), dtype=index)
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

    # The boundary: the bottom of row 0, the top of row n - 1, the left of
    # column 0 and the right of column n - 1.
    boundary = np.zeros(n_edges, dtype=bool)
    for side in (bottom[0], top[-1], left[:, 0], right[:, -1]):
        boundary[side] = True

    return PatchMesh(vertices, edges, boundary, patches, patch_edges)


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
        columns = zip(configs.kind_names(), mesh.local_params_all().tolist(),
                      mesh.local_nodes_all().tolist(), configs.topology.tolist(),
                      configs.sides.tolist())
        doc["subtriangles"] = [
            {"patch": pid, "cut": kind, "params": params, "nodes": nodes,
             "triangles": triangles, "sides": sides}
            for pid, (kind, params, nodes, triangles, sides) in enumerate(columns)
        ]
    return json.dumps(doc)
