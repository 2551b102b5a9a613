"""Cut classification, free-parameter strategies, subtriangle topologies,
and the maximum-angle audit.

A patch is split into four subtriangles whose inner nodes sit on the patch
edges at parameters (q, r, s). When the interface crosses the patch, the
crossing fixes some of the parameters; the rest are free and chosen by one of
three strategies so that no subtriangle angle exceeds 162 degrees (strategies
2 and 3; strategy 1 keeps free parameters at 1/2 and gives no such guarantee
when a vertex is cut).

Classification and the audits are pure per patch; ``resolve_edge_params`` is
the single sequential pass that writes edge parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import barycentric_gradients, gather_triangles, interior_angles, triangle_area
from .levelset import SNAP_TOL
from .mesh import FREE, INTERFACE_LOCKED, STRATEGY_SET, PatchMesh, patch_blocks

__all__ = [
    "RefinementRequired",
    "CutClass",
    "PatchConfig",
    "PatchConfigs",
    "ShapeTable",
    "Classification",
    "classify_all",
    "determined_params",
    "free_params_two_edges",
    "free_params_vertex_edge",
    "resolve_edge_params",
    "subtriangle_topology",
    "side_labels",
    "build_configs",
    "adapt",
    "angle_cosines_two_edges",
    "angle_cosines_vertex_edge",
    "reference_local_nodes",
    "max_angle_audit",
    "AngleAudit",
]

UNCUT = "uncut"
EDGE_EDGE = "edge_edge"
VERTEX_EDGE = "vertex_edge"

# Subtriangle index triples over the six local nodes, counterclockwise in
# reference coordinates, one table per cut situation. Constraints pinning the
# tables: the four triples tile the patch for every (q,r,s) in (0,1)^3, and
# the segment between the two cut nodes is an edge of the triangulation.
_TOPOLOGY_UNCUT = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]], dtype=np.int8)
_TOPOLOGY_VERTEX = {
    0: np.array([[0, 4, 5], [0, 3, 4], [3, 1, 4], [5, 4, 2]], dtype=np.int8),
    1: np.array([[0, 3, 5], [3, 1, 5], [5, 1, 4], [5, 4, 2]], dtype=np.int8),
    2: np.array([[0, 3, 5], [5, 3, 2], [3, 4, 2], [3, 1, 4]], dtype=np.int8),
}

# All four tables, indexed by 0 (uncut or edge-edge) or 1 + the cut vertex.
_TOPOLOGIES = np.stack([_TOPOLOGY_UNCUT] + [_TOPOLOGY_VERTEX[v] for v in range(3)])

# For each cut situation: (subtriangles on the side of the cut segment away
# from it, their anchor vertex) and the complementary group. The anchor is a
# patch vertex not lying on the cut, used to resolve side labels robustly.
_SIDE_GROUPS = {
    (EDGE_EDGE, (0, 1)): (((0, 2, 3), 0), ((1,), 1)),
    (EDGE_EDGE, (1, 2)): (((0, 1, 3), 0), ((2,), 2)),
    (EDGE_EDGE, (0, 2)): (((1, 2, 3), 1), ((0,), 0)),
    (VERTEX_EDGE, 0): (((0, 3), 2), ((1, 2), 1)),
    (VERTEX_EDGE, 1): (((0, 1), 0), ((2, 3), 2)),
    (VERTEX_EDGE, 2): (((0, 1), 0), ((2, 3), 1)),
}
# The same table as arrays over the situation index: group membership masks
# (6, 4) and anchor vertices (6,) for the groups a and b.
_SITUATION = {key: idx for idx, key in enumerate(_SIDE_GROUPS)}
_GROUP_A = np.array([np.isin(np.arange(4), a) for (a, _), _ in _SIDE_GROUPS.values()])
_GROUP_B = ~_GROUP_A  # the two groups tile the patch
_ANCHOR_A = np.array([anchor for (_, anchor), _ in _SIDE_GROUPS.values()])
_ANCHOR_B = np.array([anchor for _, (_, anchor) in _SIDE_GROUPS.values()])

# Cut kinds in the order of their codes in PatchConfigs.kind.
CUT_KINDS = (UNCUT, EDGE_EDGE, VERTEX_EDGE)


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


# Every cut class a patch can have: uncut, the three edge-edge cuts (the
# uncrossed edge is 2, 1, 0) and the vertex cuts at vertex 0, 1, 2, whose
# crossing lies on the opposite edge.
_CUT_CLASSES = (
    CutClass(UNCUT),
    CutClass(EDGE_EDGE, (0, 1)),
    CutClass(EDGE_EDGE, (0, 2)),
    CutClass(EDGE_EDGE, (1, 2)),
    CutClass(VERTEX_EDGE, (1,), 0),
    CutClass(VERTEX_EDGE, (2,), 1),
    CutClass(VERTEX_EDGE, (0,), 2),
)


@dataclass(frozen=True)
class PatchConfig:
    """One patch's adaptation result: cut class, parameters (q, r, s),
    subtriangle topology (4 triples of local node ids) and side labels
    (1 or 2 per subtriangle)."""

    cut: CutClass
    params: tuple[float, float, float]
    topology: np.ndarray
    sides: np.ndarray


@dataclass(frozen=True)
class ShapeTable:
    """Each distinct subtriangle geometry of an adapted mesh, stored once.

    Entry i holds the four physical subtriangles of one patch of shape i
    (the lowest patch id), their signed areas and barycentric gradients,
    coordinate-major (Fortran order) like the kernels return them. Patches
    of one shape have bitwise-equal vertex differences, so every area,
    gradient and angle computed here is the one of each of them.
    """

    tris: np.ndarray  # (n_shapes, 4, 3, 2) subtriangle vertices, F order
    areas: np.ndarray  # (n_shapes, 4) signed subtriangle areas, F order
    grads: np.ndarray  # (n_shapes, 4, 3, 2) barycentric gradients, F order

    def __len__(self) -> int:
        return len(self.areas)


@dataclass(frozen=True)
class PatchConfigs:
    """Adaptation result of every patch, as arrays indexed by patch id.

    ``kind`` codes index ``CUT_KINDS``; ``cuts`` is the classification's list
    of cut classes. ``shape`` indexes ``table``, the subtriangle geometry
    that assembly, error norms and the angle audit share: patches the
    interface leaves alone share a few shapes, so nothing is stored per
    subtriangle of the mesh; quadrature gathers the physical subtriangles of
    a patch block from ``PatchMesh.node_planes`` where it needs their
    position. Indexing gives one patch's ``PatchConfig`` for inspection; the
    pipeline reads the arrays.
    """

    cuts: list[CutClass]
    kind: np.ndarray  # (n_patches,) int8
    params: np.ndarray  # (n_patches, 3) float: q, r, s
    topology: np.ndarray  # (n_patches, 4, 3) int8
    sides: np.ndarray  # (n_patches, 4) int8
    shape: np.ndarray  # (n_patches,) int32 index into table
    table: ShapeTable

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, pid: int) -> PatchConfig:
        q, r, s = self.params[pid].tolist()
        return PatchConfig(self.cuts[pid], (q, r, s), self.topology[pid],
                           self.sides[pid])

    def __iter__(self):
        return (self[pid] for pid in range(len(self)))

    def kind_names(self) -> list[str]:
        """Cut kind of every patch as its name."""
        return np.array(CUT_KINDS)[self.kind].tolist()


@dataclass
class Classification:
    """Cut classes for every patch plus the interface crossings found on each
    edge (storage parameters, keyed by edge id). ``cut_ids`` lists the cut
    patches in ascending order; it is derived from ``cuts`` when not given."""

    cuts: list[CutClass]
    edge_crossings: dict[int, float]
    vertex_hits: np.ndarray  # bool per mesh vertex
    cut_ids: np.ndarray | None = None

    def __post_init__(self):
        if self.cut_ids is None:
            self.cut_ids = np.array(
                [pid for pid, c in enumerate(self.cuts) if c.is_cut], dtype=np.intp
            )

    @property
    def n_cut(self) -> int:
        return len(self.cut_ids)


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
    """
    phi = levelset.eval(mesh.vertices)
    vhit = np.abs(phi) <= SNAP_TOL * mesh.h_max
    hits = np.abs(phi[mesh.patches]) <= SNAP_TOL * mesh.patch_diameters()[:, None]

    roots = levelset.segment_crossings(mesh.vertices[mesh.edges[:, 0]],
                                       mesh.vertices[mesh.edges[:, 1]])
    local = roots[mesh.patch_edges]  # (Np, 3, 2) in storage direction
    local = np.where(mesh.patch_edge_forward[:, :, None], local, 1.0 - local)
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
        raise RefinementRequired(pid, next(reason for mask, reason in checks if mask[pid]))

    # Codes into _CUT_CLASSES: an edge-edge cut by its uncrossed edge, a
    # vertex cut by its vertex.
    code = np.where(single, 4 + hit_vertex, 3 - counts.argmin(axis=1))
    code[total == 0] = 0
    cuts = np.array(_CUT_CLASSES, dtype=object)[code].tolist()

    cut_ids = np.nonzero(total)[0]
    pid, k = np.nonzero(counts[cut_ids] == 1)  # by patch, then local edge
    pid = cut_ids[pid]
    # A cut edge of a representable patch has one root, sorted first: a
    # dropped root needs a hit endpoint, and a hit with a counted crossing on
    # an adjacent edge has raised above.
    t_local = local[pid, k, 0]
    t = np.where(mesh.patch_edge_forward[pid, k], t_local, 1.0 - t_local)
    eids = mesh.patch_edges[pid, k]
    first = np.sort(np.unique(eids, return_index=True)[1])
    edge_crossings = dict(zip(eids[first].tolist(), t[first].tolist()))
    return Classification(cuts, edge_crossings, vhit, cut_ids)


def determined_params(cut: CutClass, crossings: dict[int, float]) -> dict[str, float]:
    """Translate local-edge crossings into fixed (q, r, s) components.

    ``crossings`` maps the cut local edge index to the crossing parameter in
    local direction. Local edge 0 fixes s, edge 1 fixes r and edge 2 fixes
    q = 1 - t (the node on edge 2 sits at parameter 1-q from vertex 2).
    """
    if not cut.is_cut:
        raise ValueError("uncut patches determine no parameters")
    fixed = {}
    for k in cut.edges:
        t = crossings[k]
        if k == 0:
            fixed["s"] = t
        elif k == 1:
            fixed["r"] = t
        else:
            fixed["q"] = 1.0 - t
    return fixed


def free_params_two_edges(strategy: int, fixed: dict[str, float]):
    """Complete (q, r, s) when the cut fixed two of them.

    Strategy 1 always sets the free parameter to 1/2. Strategies 2 and 3
    apply their remedy only where the determined pair can squeeze the middle
    subtriangle flat, and fall back to 1/2 otherwise:

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
    scalar = all(np.ndim(v) == 0 for v in fixed.values())
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
    if scalar:
        return float(p["q"]), float(p["r"]), float(p["s"])
    return p["q"], p["r"], p["s"]


def free_params_vertex_edge(strategy: int, fixed: dict[str, float]):
    """Complete (q, r, s) when a vertex cut fixed a single parameter.

    Strategy 1 sets both free parameters to 1/2. Strategies 2 and 3 use the
    case table, evaluated from the one determined value with fallback 1/2:

        fixed r: q = r if r > 1/2 else 1/2;   s = 1-r if r < 1/2 else 1/2
        fixed q: r = q if q > 1/2 else 1/2;   s = q   if q < 1/2 else 1/2
        fixed s: r = 1-s if s > 1/2 else 1/2; q = s   if s < 1/2 else 1/2
    """
    if len(fixed) != 1:
        raise ValueError("exactly one parameter must be fixed")
    if strategy not in (1, 2, 3):
        raise ValueError(f"unknown strategy {strategy}")
    ((name, value),) = fixed.items()
    scalar = np.ndim(value) == 0
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
    if scalar:
        return float(p["q"]), float(p["r"]), float(p["s"])
    return p["q"], p["r"], p["s"]


@dataclass
class Conflict:
    patch_id: int
    local_edge: int
    wanted: float
    kept: float


def resolve_edge_params(mesh: PatchMesh, classification: Classification,
                        strategy: int) -> list[Conflict]:
    """Write interface crossings and strategy values into the edge registry.

    Pass 1 locks every crossed edge at its crossing. Pass 2 walks cut patches
    in ascending id order and writes each patch's free parameters to still
    free edges; an edge that is already locked or set is never overwritten
    (first writer wins) and a conflict is recorded when the values disagree.
    Untouched edges stay at 1/2. Running the pass again changes nothing.
    """
    for eid, t in classification.edge_crossings.items():
        mesh.edge_param[eid] = t
        mesh.edge_lock[eid] = INTERFACE_LOCKED

    conflicts: list[Conflict] = []
    for pid in classification.cut_ids.tolist():
        cut = classification.cuts[pid]
        local_ts = {k: mesh.local_t(pid, k) for k in cut.edges}
        fixed = determined_params(cut, local_ts)
        if cut.kind == EDGE_EDGE:
            q, r, s = free_params_two_edges(strategy, fixed)
        else:
            q, r, s = free_params_vertex_edge(strategy, fixed)
        wanted = {0: s, 1: r, 2: 1.0 - q}  # local edge -> local t
        for k in range(3):
            if k in cut.edges:
                continue
            eid = mesh.patch_edges[pid, k]
            if mesh.edge_lock[eid] == FREE:
                mesh.set_local_t(pid, k, wanted[k], STRATEGY_SET)
            else:
                kept = mesh.local_t(pid, k)
                if abs(kept - wanted[k]) > 1e-12:
                    conflicts.append(Conflict(pid, k, wanted[k], kept))
    return conflicts


def subtriangle_topology(cut: CutClass) -> np.ndarray:
    """Four local-node index triples tiling the patch, counterclockwise.

    Uncut and edge-edge patches share one table (the cut segment between any
    two of the nodes 3, 4, 5 is an edge of the middle triangle); a vertex cut
    routes the split diagonal through the cut vertex.
    """
    if cut.kind == VERTEX_EDGE:
        return _TOPOLOGY_VERTEX[cut.vertex]
    return _TOPOLOGY_UNCUT


def _group_key(cut: CutClass):
    if cut.kind == EDGE_EDGE:
        return (EDGE_EDGE, tuple(sorted(cut.edges)))
    return (VERTEX_EDGE, cut.vertex)


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


def _anchor_labels(labels, nodes, situation, levelset) -> np.ndarray:
    """Make the side labels of cut patches consistent along the cut segment.

    ``labels`` (Nc, 4), ``nodes`` (Nc, 6, 2) and ``situation`` (Nc,) index
    into ``_SIDE_GROUPS``. A subtriangle group whose labels disagree (a sliver
    centroid across a curved interface) takes the label of its anchor vertex,
    off the interface. If both groups then carry the same label, each falls
    back to its anchor.
    """
    rows = np.arange(len(situation))
    group_a, group_b = _GROUP_A[situation], _GROUP_B[situation]  # (Nc, 4)
    label_a = np.where(levelset.eval(nodes[rows, _ANCHOR_A[situation]]) < 0, 1, 2)
    label_b = np.where(levelset.eval(nodes[rows, _ANCHOR_B[situation]]) < 0, 1, 2)
    label_a, label_b = label_a[:, None], label_b[:, None]
    for group, anchor in ((group_a, label_a), (group_b, label_b)):
        lowest = np.where(group, labels, 2).min(axis=1)
        highest = np.where(group, labels, 1).max(axis=1)
        labels = np.where(group & (lowest != highest)[:, None], anchor, labels)
    # Both groups are uniform now; compare their first members.
    first_a, first_b = group_a.argmax(axis=1), group_b.argmax(axis=1)
    same = labels[rows, first_a] == labels[rows, first_b]
    labels = np.where(same[:, None], np.where(group_a, label_a, label_b), labels)
    return labels.astype(np.int8)


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
    patch's shape. The distinct keys of each block, merged over the blocks,
    give the same shape ids as one ``np.unique`` over the whole mesh; areas
    and gradients are computed once per shape, on the subtriangles of its
    lowest patch. Only the cut patches are visited one by one, to look up
    their cut situation.
    """
    cut_ids = classification.cut_ids
    cut = [classification.cuts[pid] for pid in cut_ids]
    kind = np.zeros(mesh.n_patches, dtype=np.int8)
    kind[cut_ids] = [CUT_KINDS.index(c.kind) for c in cut]
    topology_id = np.zeros(mesh.n_patches, dtype=np.intp)
    topology_id[cut_ids] = [1 + c.vertex if c.kind == VERTEX_EDGE else 0 for c in cut]
    topology = _TOPOLOGIES[topology_id]

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
    if len(cut_ids):
        situation = np.array([_SITUATION[_group_key(c)] for c in cut])
        nodes = planes[:, mesh.patch_nodes(cut_ids)].transpose(1, 2, 0)
        sides[cut_ids] = _anchor_labels(sides[cut_ids], nodes, situation, levelset)
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
    return PatchConfigs(classification.cuts, kind, mesh.local_params_all(),
                        topology, sides, shape, ShapeTable(tris, areas, grads))


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

def angle_cosines_two_edges(q, r, s):
    """Cosines (cos a, cos b, cos g) of the middle subtriangle
    ((s,0), (1-r,r), (0,q)) in reference coordinates: a at the node on the
    slanted edge, b at the node on the left edge, g at the node on the bottom
    edge. Inputs broadcast."""
    q, r, s = np.asarray(q, float), np.asarray(r, float), np.asarray(s, float)
    len_45 = np.sqrt((q - r) ** 2 + (r - 1.0) ** 2)  # node4-node5 distance
    len_34 = np.sqrt((1.0 - r - s) ** 2 + r**2)
    len_35 = np.sqrt(s**2 + q**2)
    cos_a = ((1.0 - r) * (1.0 - r - s) + r * (r - q)) / (len_45 * len_34)
    cos_b = (s * (1.0 - r) + q * (q - r)) / (len_45 * len_35)
    cos_g = (s * (s - 1.0 + r) + r * q) / (len_34 * len_35)
    return cos_a, cos_b, cos_g


def angle_cosines_vertex_edge(case: str, q, r, s):
    """Six cosines for the two subtriangles along the split diagonal of a
    vertex cut, in reference coordinates.

    case "lower-left": diagonal from (0,0) to the slanted-edge node; returns
    the angles of triangles ((0,0),(1-r,r),(0,q)) and ((0,0),(s,0),(1-r,r)),
    each ordered (angle at the left-edge or bottom node, at the corner, at
    the slanted-edge node).

    case "lower-right": diagonal from (1,0) to the left-edge node; returns
    the angles of ((s,0),(1,0),(0,q)) and ((0,q),(1,0),(1-r,r)).
    """
    q, r, s = np.asarray(q, float), np.asarray(r, float), np.asarray(s, float)
    if case == "lower-left":
        len_04 = np.sqrt((1.0 - r) ** 2 + r**2)
        len_45 = np.sqrt((1.0 - r) ** 2 + (r - q) ** 2)
        len_34 = np.sqrt(r**2 + (s - 1.0 + r) ** 2)
        cos_a1 = (q - r) / len_45
        cos_b1 = r / len_04
        cos_g1 = ((1.0 - r) ** 2 + r * (r - q)) / (len_04 * len_45)
        cos_a2 = (1.0 - r) / len_04
        cos_b2 = (s - 1.0 + r) / len_34
        cos_g2 = ((1.0 - r) * (1.0 - r - s) + r**2) / (len_04 * len_34)
        return cos_a1, cos_b1, cos_g1, cos_a2, cos_b2, cos_g2
    if case == "lower-right":
        len_15 = np.sqrt(1.0 + q**2)
        len_35 = np.sqrt(s**2 + q**2)
        len_45 = np.sqrt((1.0 - r) ** 2 + (r - q) ** 2)
        cos_a3 = -s / len_35
        cos_b3 = 1.0 / len_15
        cos_g3 = (s + q**2) / (len_15 * len_35)
        cos_a4 = (1.0 + q) / (np.sqrt(2.0) * len_15)
        cos_b4 = ((1.0 - r) + q * (q - r)) / (len_15 * len_45)
        cos_g4 = (2.0 * r - 1.0 - q) / (np.sqrt(2.0) * len_45)
        return cos_a3, cos_b3, cos_g3, cos_a4, cos_b4, cos_g4
    raise ValueError(f"unknown case {case!r}")


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
    """Per-patch maxima of the physical subtriangle interior angles."""

    configs: PatchConfigs
    per_patch: np.ndarray  # (n_patches,) max angle in degrees
    global_max: float
    histogram: np.ndarray  # counts in 10-degree bins over [0, 180)
    bin_edges: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 180.0, 19)
    )

    @property
    def rows(self) -> list:
        """One (patch_id, cut kind, q, r, s, max_angle_deg) row per patch,
        built on each access."""
        q, r, s = self.configs.params.T.tolist()
        return list(zip(range(len(self.per_patch)), self.configs.kind_names(),
                        q, r, s, self.per_patch.tolist()))


def max_angle_audit(mesh: PatchMesh, configs: PatchConfigs) -> AngleAudit:
    """All interior angles of all physical subtriangles, reduced per patch.

    Angles are computed once per shape of ``configs.table``. A patch's
    maximum is its shape's; the histogram counts each shape's angles once
    per patch of that shape, in integers.
    """
    edges = np.linspace(0.0, 180.0, 19)
    angles = interior_angles(configs.table.tris)  # (n_shapes, 4, 3)
    per_patch = angles.max(axis=(1, 2))[configs.shape]
    # np.histogram's bins: [e_i, e_i+1), the last one closed at 180.
    bins = np.minimum(np.searchsorted(edges, angles, side="right") - 1, len(edges) - 2)
    n_shapes, n_bins = len(angles), len(edges) - 1
    bins += n_bins * np.arange(n_shapes)[:, None, None]
    per_shape = np.bincount(bins.ravel(), minlength=n_shapes * n_bins)
    patches = np.bincount(configs.shape, minlength=n_shapes)
    hist = patches @ per_shape.reshape(n_shapes, n_bins)
    return AngleAudit(configs, per_patch, float(per_patch.max()), hist, edges)
