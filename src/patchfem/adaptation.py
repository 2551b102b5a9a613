"""Cut classification, free-parameter strategies, subtriangle topologies,
and the maximum-angle audit.

A patch is split into four subtriangles whose inner nodes sit on the patch
edges at parameters (q, r, s). When the interface crosses the patch, the
crossing fixes some of the parameters; the rest are free and chosen by one of
three strategies so that no subtriangle angle exceeds 162 degrees (strategies
2 and 3; strategy 1 keeps free parameters at 1/2 and gives no such guarantee
when a vertex is cut).

Every stage works on whole arrays. ``classify_all`` gives each patch a cut
code into ``_CUT_CLASSES``, and ``resolve_edge_params`` writes the edge
parameters of all cut patches at once, each free edge from the lowest
(patch, local edge) on it. The interface is a subtriangle edge and the
diffusion is constant on each side of it, so ``build_configs`` labels each
subtriangle of a cut patch by the level-set sign at its anchor vertex
(``_SIDE_ANCHOR``), and each subtriangle of an uncut patch by the sign at its
centroid (``side_labels``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    barycentric_gradients,
    degenerate,
    gather_triangles,
    interior_angles,
    triangle_area,
)
from .levelset import SNAP_TOL
from .mesh import FREE, INTERFACE_LOCKED, STRATEGY_SET, PatchMesh, patch_blocks

__all__ = [
    "RefinementRequired",
    "CutClass",
    "PatchConfigs",
    "ShapeTable",
    "Classification",
    "CONFLICT",
    "TOPOLOGIES",
    "classify_all",
    "free_params_two_edges",
    "free_params_vertex_edge",
    "resolve_edge_params",
    "side_labels",
    "build_configs",
    "adapt",
    "reference_local_nodes",
    "max_angle_audit",
    "AngleAudit",
]

UNCUT = "uncut"
EDGE_EDGE = "edge_edge"
VERTEX_EDGE = "vertex_edge"

# Cut kinds in the order of their codes in PatchConfigs.kind.
CUT_KINDS = (UNCUT, EDGE_EDGE, VERTEX_EDGE)

# The paper's bound on every subtriangle angle under strategies 2 and 3.
MAX_ANGLE_DEG = 162.0

# The edges of the angle histogram's 10-degree bins over [0, 180].
_ANGLE_BIN_EDGES = np.linspace(0.0, 180.0, 19)


class RefinementRequired(Exception):
    """The interface cuts a patch in a way the four-triangle split cannot
    represent; the caller should refine the mesh and retry."""

    def __init__(self, patch_id: int, reason: str):
        super().__init__(f"patch {patch_id}: {reason}")
        self.patch_id = patch_id
        self.reason = reason

    def __reduce__(self):
        # Rebuilt from its own arguments, so that it survives the trip back
        # from a worker process.
        return type(self), (self.patch_id, self.reason)


@dataclass(frozen=True)
class CutClass:
    """How the interface crosses one patch.

    kind is "uncut", "edge_edge" (``edges`` holds the two cut local edges) or
    "vertex_edge" (``vertex`` is the cut local vertex, ``edges`` the single
    cut opposite edge).
    """

    kind: str
    edges: tuple[int, ...] = ()
    vertex: int | None = None

    @property
    def is_cut(self) -> bool:
        return self.kind != UNCUT


# Every cut class a patch can have, indexed by its cut code: uncut, the
# three edge-edge cuts (the uncrossed edge is 2, 1, 0) and the vertex cuts
# at vertex 0, 1, 2, whose crossing lies on the opposite edge.
_CUT_CLASSES = (
    CutClass(UNCUT),
    CutClass(EDGE_EDGE, (0, 1)),
    CutClass(EDGE_EDGE, (0, 2)),
    CutClass(EDGE_EDGE, (1, 2)),
    CutClass(VERTEX_EDGE, (1,), 0),
    CutClass(VERTEX_EDGE, (2,), 1),
    CutClass(VERTEX_EDGE, (0,), 2),
)

# Subtriangle index triples over the six local nodes, counterclockwise in
# reference coordinates: entry 0 for uncut and edge-edge patches (the cut
# segment between any two of the nodes 3, 4, 5 is an edge of the middle
# triangle), entry 1 + v for a vertex cut at local vertex v, whose split
# diagonal runs through v. Constraints pinning the tables: the four triples
# tile the patch for every (q,r,s) in (0,1)^3, and the segment between the
# two cut nodes is an edge of the triangulation.
TOPOLOGIES = np.array([
    [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]],
    [[0, 4, 5], [0, 3, 4], [3, 1, 4], [5, 4, 2]],
    [[0, 3, 5], [3, 1, 5], [5, 1, 4], [5, 4, 2]],
    [[0, 3, 5], [5, 3, 2], [3, 4, 2], [3, 1, 4]],
], dtype=np.int8)

# Per cut code: its kind (into CUT_KINDS), its topology (into TOPOLOGIES),
# which local edges it crosses, and its cut classes as an object array.
_KIND = np.array([CUT_KINDS.index(c.kind) for c in _CUT_CLASSES], dtype=np.int8)
_TOPOLOGY = np.array([0 if c.vertex is None else 1 + c.vertex for c in _CUT_CLASSES])
_CROSSED = np.array([np.isin(np.arange(3), c.edges) for c in _CUT_CLASSES])
_CUT_CLASS_ARRAY = np.array(_CUT_CLASSES, dtype=object)

# The parameter that the node on local edge k sits at: s, r, and q = 1 - t.
_PARAM_OF_EDGE = ("s", "r", "q")

# The anchor of each subtriangle of a cut patch, by cut code (row 0 unused):
# a patch vertex on the subtriangle's side of the cut segment. A patch's two
# anchors are never hit vertices, and the crossed edge between them has one
# counted root, so they lie on opposite sides of the interface.
_SIDE_ANCHOR = np.array([
    [0, 0, 0, 0],  # uncut (unused)
    [0, 1, 0, 0],  # edge-edge (0, 1)
    [0, 1, 1, 1],  # edge-edge (0, 2)
    [0, 0, 2, 0],  # edge-edge (1, 2)
    [2, 1, 1, 2],  # vertex 0
    [0, 0, 2, 2],  # vertex 1
    [0, 0, 1, 1],  # vertex 2
])

# One edge-parameter conflict: a patch whose strategy value for a local
# edge differs from the value the edge keeps (local direction both).
CONFLICT = np.dtype([("patch", np.intp), ("local_edge", np.int8), ("wanted", float),
                     ("kept", float)])


@dataclass(frozen=True)
class ShapeTable:
    """Each distinct subtriangle geometry of an adapted mesh, stored once.

    Entry i holds the four physical subtriangles of one patch of shape i
    (the lowest patch id), their signed areas and barycentric gradients,
    coordinate-major (Fortran order) like the kernels return them. Patches
    of one shape have bitwise-equal vertex differences, so every area,
    gradient and angle computed here is the one of each of them. Shape ids
    follow the sorted keys of those differences (``_shape_keys``).
    """

    tris: np.ndarray  # (n_shapes, 4, 3, 2) subtriangle vertices, F order
    areas: np.ndarray  # (n_shapes, 4) signed subtriangle areas, F order
    grads: np.ndarray  # (n_shapes, 4, 3, 2) barycentric gradients, F order

    def __len__(self) -> int:
        return len(self.areas)


@dataclass(frozen=True)
class PatchConfigs:
    """Adaptation result of every patch, as arrays indexed by patch id.

    ``kind`` codes index ``CUT_KINDS``. ``shape`` indexes ``table``, the
    subtriangle geometry that assembly, error norms and the angle audit
    share: patches the interface leaves alone share a few shapes, so nothing
    is stored per subtriangle of the mesh; quadrature gathers the physical
    subtriangles of a patch block from ``PatchMesh.node_planes`` where it
    needs their position. The parameters (q, r, s) live on the mesh's
    edges; ``PatchMesh.local_params_all`` forms them for the outputs that
    list them.
    """

    kind: np.ndarray  # (n_patches,) int8
    topology: np.ndarray  # (n_patches, 4, 3) int8
    sides: np.ndarray  # (n_patches, 4) int8
    shape: np.ndarray  # (n_patches,) int32 index into table
    table: ShapeTable

    def __len__(self) -> int:
        return len(self.kind)

    def kind_names(self) -> list[str]:
        """Cut kind of every patch as its name."""
        return np.array(CUT_KINDS)[self.kind].tolist()


@dataclass
class Classification:
    """How the interface crosses every patch.

    ``code`` (int8 per patch) indexes ``_CUT_CLASSES``. ``crossed_edges``
    are the edges a cut patch counted a crossing on, in the order of the
    lowest (patch, local edge) through each, and ``crossing_t`` their
    crossings in the edge storage direction.
    """

    code: np.ndarray  # (n_patches,) int8
    crossed_edges: np.ndarray  # (n_crossed,) of the mesh's index type
    crossing_t: np.ndarray  # (n_crossed,) float

    @classmethod
    def uncut(cls, mesh: PatchMesh) -> Classification:
        """Every patch uncut, as the unfitted baseline splits them."""
        return cls(np.zeros(mesh.n_patches, dtype=np.int8),
                   np.empty(0, dtype=mesh.patch_edges.dtype), np.empty(0))

    @property
    def cut_ids(self) -> np.ndarray:
        """The cut patches, ascending."""
        return np.flatnonzero(self.code)

    @property
    def cuts(self) -> np.ndarray:
        """The ``CutClass`` of every patch, an object array built on each
        access for inspection."""
        return _CUT_CLASS_ARRAY[self.code]


def classify_all(mesh: PatchMesh, levelset) -> Classification:
    """Classify every patch against the interface in whole-array passes.

    A vertex is hit when |phi| <= SNAP_TOL times the patch diameter. Each
    mesh edge's interior crossings are found once and turned to each
    patch's local direction; a crossing within 10 * SNAP_TOL of a hit
    endpoint belongs to that vertex and is dropped. Two crossings on one
    edge, more than two boundary cut points, a crossing on an edge adjacent
    to a cut vertex, or a lone tangential contact point raise
    RefinementRequired for the lowest such patch id. A patch whose interface
    passes through two vertices counts as uncut. The recorded edge crossings
    are the ones classification counted, taken from the lowest cut patch
    through each edge and converted to the edge storage direction.

    The crossings are found one block of edges at a time, and the patches
    are classified one patch block at a time, in patch order.
    """
    phi = levelset.eval(mesh.vertices)
    roots = np.empty((mesh.n_edges, 2))
    for blk in patch_blocks(mesh.n_edges):
        ends = mesh.vertices[mesh.edges[blk]]
        roots[blk] = levelset.segment_crossings(ends[:, 0], ends[:, 1])
    code = np.empty(mesh.n_patches, dtype=np.int8)
    eids, ts = [], []
    for blk in patch_blocks(mesh.n_patches):
        code[blk], block_eids, block_t = _classify_block(mesh, blk, phi, roots)
        eids.append(block_eids)
        ts.append(block_t)
    eids, t = np.concatenate(eids), np.concatenate(ts)
    first = np.sort(np.unique(eids, return_index=True)[1])
    return Classification(code, eids[first], t[first])


def _classify_block(mesh: PatchMesh, blk: slice, phi, roots):
    """The cut codes of the patches ``blk`` and the (edge, crossing) of each
    of their counted crossings, by patch, then local edge, given the level
    set at the vertices ``phi`` and every edge's crossings ``roots``."""
    hits = np.abs(phi[mesh.patches[blk]]) <= SNAP_TOL * mesh.patch_diameters()[blk, None]
    patch_edges, forward = mesh.patch_edges[blk], mesh.patch_edge_forward[blk]
    local = roots[patch_edges]  # (nb, 3, 2) in storage direction
    local = np.where(forward[:, :, None], local, 1.0 - local)
    local.sort(axis=-1)
    # Local edge k runs from local vertex k to k + 1.
    start_hit = hits[:, :, None]
    end_hit = np.roll(hits, -1, axis=1)[:, :, None]
    counted = (~np.isnan(local) & ~(start_hit & (local <= SNAP_TOL * 10))
               & ~(end_hit & (local >= 1.0 - SNAP_TOL * 10)))

    counts = counted.sum(axis=2)
    n_hits = hits.sum(axis=1)
    total = counts.sum(axis=1)
    single = total == 1
    hit_vertex = hits.argmax(axis=1)
    checks = (
        (counts.max(axis=1) >= 2, "interface enters and leaves through one edge"),
        (single & (n_hits == 0), "single boundary contact point"),
        (single & (n_hits > 1), "more than two boundary cut points"),
        (single & (n_hits == 1) & (counts.argmax(axis=1) != (hit_vertex + 1) % 3),
         "vertex cut with crossing on adjacent edge"),
        ((total >= 2) & ((total > 2) | (n_hits > 0)), "more than two boundary cut points"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        pid = int(bad.argmax())
        raise RefinementRequired(blk.start + pid,
                                 next(reason for mask, reason in checks if mask[pid]))

    # Codes into _CUT_CLASSES: an edge-edge cut by its uncrossed edge, a
    # vertex cut by its vertex.
    code = np.where(single, 4 + hit_vertex, 3 - counts.argmin(axis=1)).astype(np.int8)
    code[total == 0] = 0

    cut_ids = np.nonzero(total)[0]
    pid, k = np.nonzero(counts[cut_ids] == 1)  # by patch, then local edge
    pid = cut_ids[pid]
    # A cut edge of a representable patch has one root, sorted first: a
    # dropped root needs a hit endpoint, and a hit with a counted crossing on
    # an adjacent edge has raised above.
    t_local = local[pid, k, 0]
    t = np.where(forward[pid, k], t_local, 1.0 - t_local)
    return code, patch_edges[pid, k], t


def free_params_two_edges(strategy: int, fixed: dict[str, np.ndarray]):
    """Complete (q, r, s) of cut patches whose cut fixed two of them.

    ``fixed`` maps the two fixed names to arrays of one shape; the result
    is three arrays of that shape. Strategy 1 always sets the free parameter
    to 1/2. Strategies 2 and 3 apply their remedy only where the determined
    pair can squeeze the middle subtriangle flat, and fall back to 1/2
    otherwise:

        free r, determined q > 1/2 and s > 1/2:  r = 1-s (S2), (1-s)(1-q) (S3)
        free q, determined s < 1/2 and r > 1/2:  q = s   (S2), (1-r)s     (S3)
        free s, determined q < 1/2 and r < 1/2:  s = 1-r (S2), qr         (S3)

    Under this rule every subtriangle angle stays below 162 degrees for any
    determined values; the unconditional formulas do not have that property.
    """
    if len(fixed) != 2:
        raise ValueError("exactly two parameters must be fixed")
    if strategy not in (1, 2, 3):
        raise ValueError(f"unknown strategy {strategy}")
    (name,) = {"q", "r", "s"} - set(fixed)
    p = {k: np.asarray(v, dtype=float) for k, v in fixed.items()}
    half = np.full(np.broadcast_shapes(*(v.shape for v in p.values())), 0.5)
    if strategy == 1:
        p[name] = half
    elif name == "r":
        opt = 1.0 - p["s"] if strategy == 2 else (1.0 - p["s"]) * (1.0 - p["q"])
        p["r"] = np.where((p["q"] > 0.5) & (p["s"] > 0.5), opt, half)
    elif name == "q":
        opt = p["s"] if strategy == 2 else (1.0 - p["r"]) * p["s"]
        p["q"] = np.where((p["s"] < 0.5) & (p["r"] > 0.5), opt, half)
    else:
        opt = 1.0 - p["r"] if strategy == 2 else p["q"] * p["r"]
        p["s"] = np.where((p["q"] < 0.5) & (p["r"] < 0.5), opt, half)
    return p["q"], p["r"], p["s"]


def free_params_vertex_edge(strategy: int, fixed: dict[str, np.ndarray]):
    """Complete (q, r, s) of vertex-cut patches, whose cut fixed one of
    them.

    ``fixed`` maps the fixed name to an array; the result is three arrays
    of its shape. Strategy 1 sets both free parameters to 1/2. Strategies 2
    and 3 use the case table, evaluated from the one determined value with
    fallback 1/2:

        fixed r: q = r if r > 1/2 else 1/2;   s = 1-r if r < 1/2 else 1/2
        fixed q: r = q if q > 1/2 else 1/2;   s = q   if q < 1/2 else 1/2
        fixed s: r = 1-s if s > 1/2 else 1/2; q = s   if s < 1/2 else 1/2
    """
    if len(fixed) != 1:
        raise ValueError("exactly one parameter must be fixed")
    if strategy not in (1, 2, 3):
        raise ValueError(f"unknown strategy {strategy}")
    ((name, value),) = fixed.items()
    v = np.asarray(value, dtype=float)
    half = np.full(v.shape, 0.5)
    if strategy == 1:
        p = {"q": half, "r": half, "s": half, name: v}
    elif name == "r":
        p = {"r": v,
             "q": np.where(v > 0.5, v, half),
             "s": np.where(v < 0.5, 1.0 - v, half)}
    elif name == "q":
        p = {"q": v,
             "r": np.where(v > 0.5, v, half),
             "s": np.where(v < 0.5, v, half)}
    else:
        p = {"s": v,
             "r": np.where(v > 0.5, 1.0 - v, half),
             "q": np.where(v < 0.5, v, half)}
    return p["q"], p["r"], p["s"]


def resolve_edge_params(mesh: PatchMesh, classification: Classification,
                        strategy: int) -> np.ndarray:
    """Write interface crossings and strategy values into the edge registry.

    Every crossed edge is locked at its crossing first. Each other edge of a
    cut patch that is still free then takes the value that the strategy
    gives the lowest (patch, local edge) on it (first writer wins); an edge
    that is already locked or set is never overwritten. Every later
    (patch, local edge) on an edge, and every one on an edge that was not
    free, whose value differs from the one the edge keeps is a conflict.
    Untouched edges stay at 1/2. Running the pass again changes nothing.

    Strategy 3 bounds the angles of the cut patch that sets an edge, not
    those of the patch on the other side, which may be uncut or cut
    elsewhere. So where its value would leave a patch on either side of
    such an edge with an angle above 162 degrees or a collinear or inverted
    subtriangle, or cannot be stored at all, the edge keeps strategy 2's
    value instead (``_keep_angle_bound``).

    Returns the conflicts as a ``CONFLICT`` array, by patch, then local
    edge; its values are in the patch's local direction.
    """
    mesh.edge_param[classification.crossed_edges] = classification.crossing_t
    mesh.edge_lock[classification.crossed_edges] = INTERFACE_LOCKED

    cut_ids = classification.cut_ids
    code = classification.code[cut_ids]
    forward = mesh.patch_edge_forward[cut_ids]
    t = mesh.edge_param[mesh.patch_edges[cut_ids]]
    t = np.where(forward, t, 1.0 - t)
    wanted = _strategy_values(strategy, code, t)
    plain = _strategy_values(2, code, t) if strategy == 3 else wanted
    # Every uncrossed edge of a cut patch, by patch, then local edge.
    row, k = np.nonzero(~_CROSSED[code])
    eids = mesh.patch_edges[cut_ids[row], k]
    forward, wanted, plain = forward[row, k], wanted[row, k], plain[row, k]

    free = np.flatnonzero(mesh.edge_lock[eids] == FREE)
    writer = free[np.sort(np.unique(eids[free], return_index=True)[1])]
    # A strategy-3 value rounded onto a vertex of the edge cannot be stored.
    value = wanted[writer]
    value = np.where((value > 0.0) & (value < 1.0), value, plain[writer])
    _store(mesh, eids[writer], forward[writer], value)
    fallback = writer[value != plain[writer]]
    if len(fallback):
        _keep_angle_bound(mesh, classification.code, eids[fallback], forward[fallback],
                          plain[fallback])

    loser = np.ones(len(eids), dtype=bool)
    loser[writer] = False
    loser = np.flatnonzero(loser)
    kept = mesh.edge_param[eids[loser]]
    kept = np.where(forward[loser], kept, 1.0 - kept)
    differs = np.abs(kept - wanted[loser]) > 1e-12
    loser = loser[differs]
    conflicts = np.empty(len(loser), dtype=CONFLICT)
    conflicts["patch"] = cut_ids[row[loser]]
    conflicts["local_edge"] = k[loser]
    conflicts["wanted"] = wanted[loser]
    conflicts["kept"] = kept[differs]
    return conflicts


def _strategy_values(strategy: int, code: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The local node parameters (n, 3) that ``strategy`` gives cut patches
    of codes ``code`` (n,) whose edge parameters in local direction are
    ``t`` (n, 3); only the entries of uncrossed edges are meant.

    A crossing fixes the parameter of its edge: local edge 0 fixes s, edge
    1 fixes r and edge 2 fixes q = 1 - t (the node on edge 2 sits at
    parameter 1-q from vertex 2). The patches of one code share the
    function that completes (q, r, s).
    """
    determined = {"s": t[:, 0], "r": t[:, 1], "q": 1.0 - t[:, 2]}
    out = np.empty_like(t)
    for c in np.unique(code).tolist():
        rows = code == c
        names = [_PARAM_OF_EDGE[k] for k in _CUT_CLASSES[c].edges]
        complete = free_params_two_edges if len(names) == 2 else free_params_vertex_edge
        q, r, s = complete(strategy, {name: determined[name][rows] for name in names})
        out[rows, 0], out[rows, 1], out[rows, 2] = s, r, 1.0 - q
    return out


def _store(mesh: PatchMesh, eids, forward, t) -> None:
    """Write the local-direction parameters ``t`` of the edges ``eids`` as
    strategy values; ``forward`` tells whether each local direction is the
    stored one."""
    outside = ~((t > 0.0) & (t < 1.0))
    if outside.any():
        raise ValueError(f"edge parameter {float(t[outside.argmax()])} outside (0,1)")
    mesh.edge_param[eids] = np.where(forward, t, 1.0 - t)
    mesh.edge_lock[eids] = STRATEGY_SET


def _keep_angle_bound(mesh: PatchMesh, code: np.ndarray, eids, forward, plain) -> None:
    """Give strategy 2's value back to every strategy-3 edge of a patch that
    breaks the 162-degree bound or has a degenerate subtriangle.

    ``eids`` are the edges that hold a strategy-3 value other than strategy
    2's local value ``plain``, and ``forward`` their local directions;
    ``code`` is every patch's cut code. The patches on both sides of those
    edges are checked, and the edges of the offending ones reverted, until
    none offends. If the offenders have no strategy-3 edge left, the lowest
    one raises RefinementRequired.
    """
    watched = np.flatnonzero(np.isin(mesh.patch_edges, eids).any(axis=1))
    topology = TOPOLOGIES[_TOPOLOGY[code[watched]]]
    pending = np.ones(len(eids), dtype=bool)
    while True:
        tris = gather_triangles(mesh.node_planes(),
                                mesh.subtriangle_nodes(watched, topology))
        bad = degenerate(tris).any(axis=1)
        fine = ~bad
        bad[fine] = interior_angles(tris[fine]).max(axis=(1, 2)) > MAX_ANGLE_DEG
        if not bad.any():
            return
        offenders = watched[bad]
        revert = pending & np.isin(eids, mesh.patch_edges[offenders])
        if not revert.any():
            raise RefinementRequired(
                int(offenders[0]),
                f"a subtriangle angle exceeds {MAX_ANGLE_DEG:g} degrees under strategy 2")
        _store(mesh, eids[revert], forward[revert], plain[revert])
        pending &= ~revert


def side_labels(tris, levelset, scale=1.0) -> np.ndarray:
    """Side label (1 or 2) per subtriangle from the level-set sign at its
    centroid; ties break toward side 2.

    Batched over leading axes: subtriangles ``tris`` (..., 4, 3, 2) and
    ``scale`` (...) give labels (..., 4), int8. The sign threshold is
    ``-SNAP_TOL * scale``.
    """
    centroids = np.empty(tris.shape[:-2] + (2,), order="F")
    for c in range(2):
        x = tris[..., c]
        centroids[..., c] = (x[..., 0] + x[..., 1] + x[..., 2]) / 3.0
    phi = levelset.eval(centroids)
    threshold = -SNAP_TOL * np.asarray(scale)[..., None]
    return np.where(phi < threshold, 1, 2).astype(np.int8)


def _shape_keys(tris) -> np.ndarray:
    """One item per patch: the raw bytes of the vertex differences
    x1 - x0, x2 - x0, x2 - x1 (and in y) of its four subtriangles ``tris``
    (n, 4, 3, 2). The area, gradient and angle kernels read the vertices
    only through these differences (or their negations, which rounding
    keeps exact), so equal keys give bitwise-equal results."""
    diffs = np.empty((len(tris), 4, 2, 3))
    for c in range(2):
        x = tris[..., c]
        np.subtract(x[..., 1], x[..., 0], out=diffs[:, :, c, 0])
        np.subtract(x[..., 2], x[..., 0], out=diffs[:, :, c, 1])
        np.subtract(x[..., 2], x[..., 1], out=diffs[:, :, c, 2])
    return diffs.reshape(len(tris), -1).view(np.dtype((np.void, 24 * 8))).ravel()


def build_configs(mesh: PatchMesh, classification: Classification,
                  levelset) -> PatchConfigs:
    """Configurations of all patches after the edge parameters are resolved.

    Topologies come from the fixed tables. The physical subtriangles are
    gathered one patch block at a time: side labels come from a level-set
    evaluation at their centroids, and their vertex differences key the
    patch's shape. A cut patch's subtriangles then take the side of their
    anchor vertex (``_SIDE_ANCHOR``) instead: 1 where the level set is
    negative there, else 2. The distinct keys of each block, merged over the
    blocks, give the same shape ids as one ``np.unique`` over the whole mesh;
    areas and gradients are computed once per shape, on the subtriangles of
    its lowest patch.
    """
    code = classification.code
    topology = TOPOLOGIES[_TOPOLOGY[code]]

    planes = mesh.node_planes()
    diameters = mesh.patch_diameters()
    sides = np.empty((mesh.n_patches, 4), dtype=np.int8)
    shape = np.empty(mesh.n_patches, dtype=np.int32)
    keys, firsts, n_keys = [], [], 0
    for blk in patch_blocks(mesh.n_patches):
        tris = gather_triangles(planes, mesh.subtriangle_nodes(blk, topology[blk]))
        sides[blk] = side_labels(tris, levelset, diameters[blk])
        block_keys, first, inverse = np.unique(_shape_keys(tris), return_index=True,
                                               return_inverse=True)
        shape[blk] = inverse + n_keys  # into the concatenated block keys
        n_keys += len(block_keys)
        keys.append(block_keys)
        firsts.append(first + blk.start)
    del tris
    cut_ids = classification.cut_ids
    phi = levelset.eval(mesh.vertices[mesh.patches[cut_ids]])
    anchors = np.take_along_axis(phi, _SIDE_ANCHOR[code[cut_ids]], axis=1)
    sides[cut_ids] = np.where(anchors < 0, 1, 2)
    # Block order is patch order, so the first occurrence of a merged key is
    # its lowest patch.
    _, first, merged = np.unique(np.concatenate(keys), return_index=True,
                                 return_inverse=True)
    shape = merged.astype(np.int32)[shape]
    representatives = np.concatenate(firsts)[first]
    tris = gather_triangles(planes, mesh.subtriangle_nodes(representatives,
                                                           topology[representatives]))
    areas = triangle_area(tris)
    # A zero-area shape gets infinite gradients; assemble rejects it first.
    with np.errstate(divide="ignore", invalid="ignore"):
        grads = barycentric_gradients(tris, areas)
    return PatchConfigs(_KIND[code], topology, sides, shape, ShapeTable(tris, areas, grads))


def adapt(mesh: PatchMesh, levelset, strategy: int):
    """Classify, resolve edge parameters, and build patch configurations.

    Returns (configs, classification, conflicts). Raises RefinementRequired
    when some patch cannot be represented.
    """
    classification = classify_all(mesh, levelset)
    conflicts = resolve_edge_params(mesh, classification, strategy)
    configs = build_configs(mesh, classification, levelset)
    return configs, classification, conflicts


# -- angle bookkeeping -------------------------------------------------------

def reference_local_nodes(q, r, s) -> np.ndarray:
    """Six local nodes on the unit reference patch for given parameters.

    Broadcasts: scalar inputs give (6, 2); array inputs of shape (...,) give
    (..., 6, 2).
    """
    q, r, s = np.broadcast_arrays(
        np.asarray(q, float), np.asarray(r, float), np.asarray(s, float)
    )
    zeros = np.zeros_like(q)
    ones = np.ones_like(q)
    nodes = np.stack(
        [
            np.stack([zeros, zeros], axis=-1),
            np.stack([ones, zeros], axis=-1),
            np.stack([zeros, ones], axis=-1),
            np.stack([s, zeros], axis=-1),
            np.stack([1.0 - r, r], axis=-1),
            np.stack([zeros, q], axis=-1),
        ],
        axis=-2,
    )
    return nodes


@dataclass
class AngleAudit:
    """Per-patch maxima of the physical subtriangle interior angles of the
    adapted ``mesh``."""

    mesh: PatchMesh
    configs: PatchConfigs
    per_patch: np.ndarray  # (n_patches,) max angle in degrees
    global_max: float
    histogram: np.ndarray  # counts in 10-degree bins over [0, 180)
    bin_edges: np.ndarray = field(default_factory=_ANGLE_BIN_EDGES.copy)

    @property
    def rows(self) -> list:
        """One (patch_id, cut kind, q, r, s, max_angle_deg) row per patch,
        built on each access; (q, r, s) come from the mesh's edge
        parameters."""
        q, r, s = self.mesh.local_params_all().T.tolist()
        return list(zip(range(len(self.per_patch)), self.configs.kind_names(),
                        q, r, s, self.per_patch.tolist()))


def max_angle_audit(mesh: PatchMesh, configs: PatchConfigs) -> AngleAudit:
    """All interior angles of all physical subtriangles, reduced per patch.

    Angles are computed once per shape of ``configs.table``. A patch's
    maximum is its shape's; the histogram counts each shape's angles once
    per patch of that shape, in integers.
    """
    edges = _ANGLE_BIN_EDGES
    angles = interior_angles(configs.table.tris)  # (n_shapes, 4, 3)
    per_patch = angles.max(axis=(1, 2))[configs.shape]
    # np.histogram's bins: [e_i, e_i+1), the last one closed at 180.
    bins = np.minimum(np.searchsorted(edges, angles, side="right") - 1, len(edges) - 2)
    n_shapes, n_bins = len(angles), len(edges) - 1
    bins += n_bins * np.arange(n_shapes)[:, None, None]
    per_shape = np.bincount(bins.ravel(), minlength=n_shapes * n_bins)
    patches = np.bincount(configs.shape, minlength=n_shapes)
    hist = patches @ per_shape.reshape(n_shapes, n_bins)
    return AngleAudit(mesh, configs, per_patch, float(per_patch.max()), hist)
