"""Reference oracles: straightforward per-patch versions of the array code.

``classify_patch`` classifies one patch with the scalar level-set queries
(``segment_crossings_reference``, ``levelset_eval_reference``) and
``classify_all_reference`` loops it over every patch. The ``*_reference``
geometry kernels are the patch-major versions, which compute on (..., 2)
coordinate pairs; ``patch_major_geometry``, ``assemble_reference`` and
``error_norms_reference`` rebuild the per-patch integrals from them. The
package's coordinate-major kernels must give exactly the same bytes, and
its shape table, looked up per patch, must equal ``patch_major_geometry``,
the whole-mesh geometry with one entry per subtriangle that it replaced.
``assemble_buckets_reference`` is the whole-mesh path that the row-block
assembly replaced: every element-matrix row written into its slot of one
row-bucketed CSR array with duplicates (``row_buckets_reference``), then
one ``sum_duplicates``. Both drop the exact zeros, as ``assemble`` does,
unless asked for the coupling graph with them (``zeros=True``).
``assert_same_matrix`` compares ``assemble``'s matrix with theirs: the
stored pattern and the off-diagonal values bit for bit, the diagonal
within ``DIAGONAL_RTOL``.
``reduced_reference`` eliminates the Dirichlet dofs
(those off ``free_mask``) by slicing the matrix into a separate free-dof
system, and ``embed`` puts the Dirichlet data back around its solution.

``build_structured_mesh_reference`` numbers the edges with a dictionary while
walking the cells, and ``build_configs_reference`` builds one configuration
per patch, with ``side_labels_reference`` evaluating the level set patch by
patch and voting over the subtriangle groups of ``SIDE_GROUPS``.
``mesh_to_json_reference`` dumps from that list. The package computes the
same results with whole-array NumPy passes; the tests require them to be
exactly equal.

``local_nodes`` and ``local_params`` read one patch from the edge registry,
``local_t`` and ``set_local_t`` read and write one local edge parameter,
``patch_diameter``, ``edge_points`` and ``vertex_hit`` answer the other
per-patch and per-point queries the tests make, and ``local_stiffness``,
``local_load`` and ``barycentric`` are the textbook per-element formulas;
the tests scatter them element by element to check the vectorised
assembly. ``dense_solve_oracle`` solves a small system by a
dense factorization, and ``jacobi_cg_reference`` runs textbook Jacobi-CG on
the sliced free-dof system; the tests check the in-place CG solver against
both.

``resolve_edge_params_reference`` is the scalar edge-parameter pass that
``resolve_edge_params`` replaced: it walks the cut patches one by one with
``determined_params`` and the free-parameter strategies, and returns a list
of ``Conflict``. ``PatchConfig`` and ``subtriangle_topology`` give one
patch's configuration, ``DofMap`` the dof numbering with one row of dofs per
patch, and ``angle_cosines_two_edges`` / ``angle_cosines_vertex_edge`` the
closed-form subtriangle angles in reference coordinates.

``verify_jump_conditions`` samples a manufactured problem's interface
(``_interface_samples``) and returns its largest solution and flux jumps as a
``JumpReport``; ``pde_residual_defect`` checks -kappa laplace(u) = f on each
side with a five-point finite-difference stencil. They check the problems of
``patchfem.problems``, which the solver takes as given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from patchfem.adaptation import (
    _CUT_CLASSES,
    EDGE_EDGE,
    MAX_ANGLE_DEG,
    TOPOLOGIES,
    UNCUT,
    VERTEX_EDGE,
    Classification,
    CutClass,
    RefinementRequired,
    free_params_two_edges,
    free_params_vertex_edge,
)
from patchfem.geometry import (
    DEGENERACY_TOL,
    ERROR_RULE,
    LOAD_RULE,
    DegenerateTriangle,
    degenerate,
    gather_triangles,
    interior_angles,
    map_rule,
    triangle_area,
)
from patchfem.levelset import SNAP_TOL, Circle, HorizontalLine, TiltedLine
from patchfem.mesh import FREE, INTERFACE_LOCKED, LOCK_NAMES, STRATEGY_SET, PatchMesh


def local_nodes(mesh: PatchMesh, pid: int) -> np.ndarray:
    """Six node positions of one patch, (6, 2)."""
    out = np.empty((6, 2))
    out[:3] = mesh.vertices[mesh.patches[pid]]
    for k in range(3):
        eid = mesh.patch_edges[pid, k]
        a, b = mesh.edges[eid]
        t = mesh.edge_param[eid]
        out[3 + k] = (1.0 - t) * mesh.vertices[a] + t * mesh.vertices[b]
    return out


def local_params(mesh: PatchMesh, pid: int) -> tuple[float, float, float]:
    """Local (q, r, s) of one patch derived from the edge registry."""
    s = local_t(mesh, pid, 0)
    r = local_t(mesh, pid, 1)
    q = 1.0 - local_t(mesh, pid, 2)
    return q, r, s


def local_t(mesh: PatchMesh, pid: int, k: int) -> float:
    """Edge-node parameter of local edge k, measured in local direction."""
    eid = mesh.patch_edges[pid, k]
    t = float(mesh.edge_param[eid])
    return t if mesh.patch_edge_forward[pid, k] else 1.0 - t


def set_local_t(mesh: PatchMesh, pid: int, k: int, t_local: float, lock: int) -> None:
    """Write the edge-node parameter of local edge k (local direction)."""
    if not 0.0 < t_local < 1.0:
        raise ValueError(f"edge parameter {t_local} outside (0,1)")
    eid = mesh.patch_edges[pid, k]
    t = t_local if mesh.patch_edge_forward[pid, k] else 1.0 - t_local
    mesh.edge_param[eid] = t
    mesh.edge_lock[eid] = lock


def patch_diameter(mesh: PatchMesh, pid: int) -> float:
    """Longest edge of one patch."""
    return float(mesh.patch_diameters()[pid])


def edge_points(mesh: PatchMesh) -> np.ndarray:
    """Physical position of every edge node, (n_edges, 2)."""
    return mesh.node_planes()[:, mesh.n_vertices:].T


def vertex_hit(levelset, point, scale: float) -> bool:
    """True iff the interface passes through ``point`` up to snapping.

    ``scale`` is the local length scale (patch diameter) the tolerance is
    relative to.
    """
    return abs(levelset.eval(point)) <= SNAP_TOL * scale


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


def local_stiffness(tri, kappa: float) -> np.ndarray:
    """Exact 3x3 linear-element stiffness: kappa * area * grad(l_a).grad(l_b).

    Rows sum to zero (constants lie in the kernel); symmetric.
    """
    tri = np.asarray(tri, dtype=float)
    area = triangle_area(tri)
    if abs(area) < 1e-300:
        raise DegenerateTriangle("zero-area triangle in stiffness")
    # grad(l_i) = perp(opposite edge) / (2 area), perp (x,y) -> (-y, x)
    edges = tri[[2, 0, 1]] - tri[[1, 2, 0]]  # edge opposite vertex i
    grads = np.column_stack([-edges[:, 1], edges[:, 0]]) / (2.0 * area)
    return kappa * area * (grads @ grads.T)


def barycentric(tri, points) -> np.ndarray:
    """Barycentric coordinates of ``points`` (nq, 2) in ``tri`` (3, 2)."""
    tri = np.asarray(tri, dtype=float)
    points = np.asarray(points, dtype=float)
    area = triangle_area(tri)
    lam = np.empty(points.shape[:-1] + (3,))
    for i in range(3):
        sub = np.broadcast_to(tri, points.shape[:-1] + (3, 2)).copy()
        sub[..., i, :] = points
        lam[..., i] = triangle_area(sub) / area
    return lam


def local_load(tri, points, weights, f) -> np.ndarray:
    """Load vector of one subtriangle from its mapped quadrature.

    ``points`` and ``weights`` are a rule mapped onto ``tri`` (weights
    scaled to its area); entries are sum_q w_q f(x_q) l_a(x_q).
    """
    lam = barycentric(tri, points)
    return (np.asarray(weights)[:, None] * np.asarray(f(points))[:, None] * lam).sum(
        axis=0
    )


def build_structured_mesh_reference(n: int,
                                    domain=((-1.0, -1.0), (1.0, 1.0))) -> PatchMesh:
    """Structured mesh with edges numbered by a dictionary, in first-met order."""
    (x0, y0), (x1, y1) = domain
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)

    def vid(i, j):
        return j * (n + 1) + i

    vertices = np.array([[xs[i], ys[j]] for j in range(n + 1) for i in range(n + 1)])

    edge_ids: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []

    def edge(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append(key)
        return edge_ids[key]

    patches = []
    patch_edges = []
    for j in range(n):
        for i in range(n):
            bl, br = vid(i, j), vid(i + 1, j)
            tr, tl = vid(i + 1, j + 1), vid(i, j + 1)
            patches.append((br, tr, bl))
            patch_edges.append((edge(br, tr), edge(tr, bl), edge(bl, br)))
            patches.append((tl, bl, tr))
            patch_edges.append((edge(tl, bl), edge(bl, tr), edge(tr, tl)))

    boundary = np.zeros(len(edges), dtype=bool)
    for eid, (a, b) in enumerate(edges):
        ax, ay = vertices[a]
        bx, by = vertices[b]
        on_vert = (ax == bx) and (ax in (x0, x1))
        on_horz = (ay == by) and (ay in (y0, y1))
        boundary[eid] = on_vert or on_horz

    return PatchMesh(vertices, edges, boundary, patches, patch_edges)


# For each cut code 1..6 (row code - 1): (subtriangles on the side of the
# cut segment away from it, their anchor vertex) and the complementary
# group. The anchor is a patch vertex not lying on the cut.
SIDE_GROUPS = (
    (((0, 2, 3), 0), ((1,), 1)),  # edge-edge (0, 1)
    (((1, 2, 3), 1), ((0,), 0)),  # edge-edge (0, 2)
    (((0, 1, 3), 0), ((2,), 2)),  # edge-edge (1, 2)
    (((0, 3), 2), ((1, 2), 1)),  # vertex 0
    (((0, 1), 0), ((2, 3), 2)),  # vertex 1
    (((0, 1), 0), ((2, 3), 1)),  # vertex 2
)


def side_labels_reference(nodes, topology, levelset, cut=None, scale=1.0) -> np.ndarray:
    """Side labels of one patch by a vote over centroid signs: a group of
    ``SIDE_GROUPS`` whose labels disagree (a sliver centroid across a curved
    interface) takes the label of its anchor vertex, and if both groups then
    carry one label, each falls back to its anchor."""
    tris = nodes[topology]  # (4, 3, 2)
    centroids = tris.mean(axis=1)
    phi = levelset.eval(centroids)
    labels = np.where(phi < -SNAP_TOL * scale, 1, 2).astype(np.int8)

    if cut is not None and cut.is_cut:
        (group_a, anchor_a), (group_b, anchor_b) = SIDE_GROUPS[_CUT_CLASSES.index(cut) - 1]
        for group, anchor in ((group_a, anchor_a), (group_b, anchor_b)):
            group = list(group)
            if len(set(labels[group])) > 1:
                lab = 1 if levelset.eval(nodes[anchor]) < 0 else 2
                labels[group] = lab
        if labels[list(group_a)][0] == labels[list(group_b)][0]:
            labels[list(group_a)] = 1 if levelset.eval(nodes[anchor_a]) < 0 else 2
            labels[list(group_b)] = 1 if levelset.eval(nodes[anchor_b]) < 0 else 2
    return labels


@dataclass(frozen=True)
class PatchConfig:
    """One patch's adaptation result: cut class, parameters (q, r, s),
    subtriangle topology (4 triples of local node ids) and side labels
    (1 or 2 per subtriangle)."""

    cut: CutClass
    params: tuple[float, float, float]
    topology: np.ndarray
    sides: np.ndarray


def subtriangle_topology(cut: CutClass) -> np.ndarray:
    """Four local-node index triples tiling the patch, counterclockwise.

    Uncut and edge-edge patches share one table (the cut segment between any
    two of the nodes 3, 4, 5 is an edge of the middle triangle); a vertex cut
    routes the split diagonal through the cut vertex.
    """
    if cut.kind == VERTEX_EDGE:
        return TOPOLOGIES[1 + cut.vertex]
    return TOPOLOGIES[0]


def build_configs_reference(mesh: PatchMesh, classification,
                            levelset) -> list[PatchConfig]:
    """One PatchConfig per patch, built patch by patch."""
    nodes_all = mesh.local_nodes_all()
    configs = []
    for pid, cut in enumerate(classification.cuts):
        topo = subtriangle_topology(cut)
        sides = side_labels_reference(nodes_all[pid], topo, levelset, cut,
                                      scale=patch_diameter(mesh, pid))
        configs.append(PatchConfig(cut, local_params(mesh, pid), topo, sides))
    return configs


def mesh_to_json_reference(mesh: PatchMesh, configs: list[PatchConfig]) -> str:
    """JSON dump with the subtriangles taken from a list of PatchConfig."""
    doc = {
        "vertices": mesh.vertices.tolist(),
        "edges": [
            [int(a), int(b), float(t), LOCK_NAMES[int(lk)]]
            for (a, b), t, lk in zip(mesh.edges, mesh.edge_param, mesh.edge_lock)
        ],
        "patches": [
            [int(v) for v in pv] + [int(e) for e in pe]
            for pv, pe in zip(mesh.patches, mesh.patch_edges)
        ],
        "subtriangles": [],
    }
    nodes = mesh.local_nodes_all()
    for pid, cfg in enumerate(configs):
        doc["subtriangles"].append(
            {
                "patch": pid,
                "cut": cfg.cut.kind,
                "params": [float(p) for p in cfg.params],
                "nodes": nodes[pid].tolist(),
                "triangles": cfg.topology.tolist(),
                "sides": [int(s) for s in cfg.sides],
            }
        )
    return json.dumps(doc)


# -- patch-major geometry kernels ----------------------------------------------

def triangle_area_reference(tri):
    """Signed areas of (..., 3, 2) triangles from coordinate pairs."""
    tri = np.asarray(tri, dtype=float)
    d1 = tri[..., 1, :] - tri[..., 0, :]
    d2 = tri[..., 2, :] - tri[..., 0, :]
    return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def _edge_lengths_sq_reference(tri):
    e0 = tri[..., 1, :] - tri[..., 0, :]
    e1 = tri[..., 2, :] - tri[..., 1, :]
    e2 = tri[..., 0, :] - tri[..., 2, :]
    return np.stack(
        [np.sum(e0 * e0, axis=-1), np.sum(e1 * e1, axis=-1), np.sum(e2 * e2, axis=-1)],
        axis=-1,
    )


def interior_angles_reference(tri):
    """Interior angles (..., 3) in degrees from normalised dot products."""
    tri = np.asarray(tri, dtype=float)
    area = triangle_area_reference(tri)
    longest_sq = _edge_lengths_sq_reference(tri).max(axis=-1)
    if np.any(np.abs(2.0 * area) < DEGENERACY_TOL * longest_sq):
        raise DegenerateTriangle("triangle vertices are (numerically) collinear")
    angles = np.empty(tri.shape[:-1])
    for i in range(3):
        a = tri[..., (i + 1) % 3, :] - tri[..., i, :]
        b = tri[..., (i + 2) % 3, :] - tri[..., i, :]
        cosang = np.sum(a * b, axis=-1) / (
            np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        )
        angles[..., i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles


def barycentric_gradients_reference(tris, areas):
    """Barycentric gradients (..., 3, 2): opposite edges turned by +90 degrees."""
    opp = tris[..., [2, 0, 1], :] - tris[..., [1, 2, 0], :]
    return np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / (2.0 * areas[..., None, None])


def map_rule_reference(tris, areas, rule):
    """Rule points (..., nq, 2) and weights (..., nq) on the triangles."""
    a = tris[..., 0, :][..., None, :]
    e1 = (tris[..., 1, :] - tris[..., 0, :])[..., None, :]
    e2 = (tris[..., 2, :] - tris[..., 0, :])[..., None, :]
    x = rule.points[:, 0][..., None]
    y = rule.points[:, 1][..., None]
    return a + x * e1 + y * e2, rule.weights * (2.0 * np.asarray(areas))[..., None]


def centroids_reference(tris):
    """Subtriangle centroids (..., 2) as the mean of the vertices."""
    return tris.mean(axis=-2)


def patch_major_geometry(mesh: PatchMesh, topology):
    """C-ordered subtriangles (Np, 4, 3, 2), areas and gradients."""
    nodes = mesh.local_nodes_all()
    tris = nodes[np.arange(mesh.n_patches)[:, None, None], topology]
    areas = triangle_area_reference(tris)
    return tris, areas, barycentric_gradients_reference(tris, areas)


def assemble_reference(mesh: PatchMesh, configs, problem, mode="adapted", zeros=False):
    """Stiffness matrix and load vector over the whole mesh at once, from the
    patch-major geometry, with one COO over all element matrices; without
    its exact zeros unless ``zeros``."""
    tris, areas, grads = patch_major_geometry(mesh, configs.topology)
    qpts, qwts = map_rule_reference(tris, areas, LOAD_RULE)
    inside = problem.inside(qpts)
    if mode == "adapted":
        kap = np.where(configs.sides == 1, problem.kappa1, problem.kappa2)
    else:
        kap_q = np.where(inside, problem.kappa1, problem.kappa2)
        kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)
    cell = np.einsum("pqad,pqbd->pqab", grads, grads) * (kap * areas)[..., None, None]
    f = problem.f(qpts, inside)
    load = np.einsum("pqn,pqn,na->pqa", qwts, f, LOAD_RULE.lambdas)
    dof_map = build_dof_map(mesh)
    sub_dofs = mesh.subtriangle_nodes(slice(None), configs.topology)
    rows = np.repeat(sub_dofs[..., :, None], 3, axis=-1).ravel()
    cols = np.repeat(sub_dofs[..., None, :], 3, axis=-2).ravel()
    matrix = sp.coo_matrix((cell.ravel(), (rows, cols)),
                           shape=(dof_map.n_dof, dof_map.n_dof)).tocsr()
    if not zeros:
        matrix.eliminate_zeros()
    rhs = np.zeros(dof_map.n_dof)
    np.add.at(rhs, sub_dofs.ravel(), load.ravel())
    return matrix, rhs


def row_buckets_reference(sub_dofs: np.ndarray, n_dof: int):
    """Slots of the element-matrix rows in a row-bucketed CSR with duplicates.

    Row k of the element matrices (subtriangle k // 3, local vertex k % 3)
    couples dof ``sub_dofs.flat[k]`` with the three dofs of its subtriangle.
    In the COO triplets of all element matrices in patch order, its three
    entries are consecutive, and SciPy's COO -> CSR conversion buckets them
    by row in that order. So row k starts at ``indptr[dof] + 3 * rank``,
    where rank counts the earlier rows of the same dof: 3 times the position
    of k in a stable sort of the row dofs. Returns the slot (in units of 3
    entries) of every row, the CSR ``indptr`` and the column indices
    (n_rows, 3).
    """
    rows = sub_dofs.ravel()
    order = np.argsort(rows, kind="stable")
    slots = np.empty_like(rows)
    slots[order] = np.arange(rows.size, dtype=rows.dtype)
    indptr = np.zeros(n_dof + 1, dtype=rows.dtype)
    np.cumsum(3 * np.bincount(rows, minlength=n_dof), out=indptr[1:])
    indices = np.take(sub_dofs.reshape(-1, 3), order // 3, axis=0)
    return slots, indptr, indices


def assemble_buckets_reference(mesh: PatchMesh, configs, problem, mode="adapted",
                               zeros=False):
    """Stiffness matrix and load vector as the whole-mesh bucketed path
    builds them: the element matrices of all patches at once from the
    whole-mesh geometry of ``patch_major_geometry`` and the coordinate-major
    kernels, each row put into its slot of one CSR array
    with duplicates, one ``sum_duplicates``, then the exact zeros dropped
    unless ``zeros``; the loads added in patch order."""
    lam = LOAD_RULE.lambdas
    dof_map = build_dof_map(mesh)
    n_dof = dof_map.n_dof
    index = np.int32 if max(36 * mesh.n_patches, n_dof) < 2**31 else np.int64
    sub_dofs = mesh.subtriangle_nodes(slice(None), configs.topology).astype(index)
    slots, indptr, indices = row_buckets_reference(sub_dofs, n_dof)
    tris, areas, grads = patch_major_geometry(mesh, configs.topology)
    qpts, qwts = map_rule(tris, areas, LOAD_RULE)
    mask = problem.inside(qpts)
    if mode == "adapted":
        kap = np.where(configs.sides == 1, problem.kappa1, problem.kappa2)
    else:
        kap_q = np.where(mask, problem.kappa1, problem.kappa2)
        kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)
    gx, gy = grads[..., 0], grads[..., 1]
    kap *= areas
    cell = np.empty(areas.shape + (3, 3))
    for a in range(3):
        for b in range(a, 3):
            cell[..., a, b] = (gx[..., a] * gx[..., b] + gy[..., a] * gy[..., b]) * kap
            cell[..., b, a] = cell[..., a, b]
    data = np.empty(indices.shape)
    row_item = np.dtype((np.void, 3 * data.itemsize))
    np.put(data.view(row_item).ravel(), slots, cell.view(row_item).ravel())
    matrix = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(n_dof, n_dof))
    matrix.sum_duplicates()
    if not zeros:
        matrix.eliminate_zeros()
    wf = np.multiply(qwts, problem.f(qpts, mask), order="F")
    load = np.empty(areas.shape + (3,))
    for a in range(3):
        acc = wf[..., 0] * lam[0, a]
        for q in range(1, len(lam)):
            acc += wf[..., q] * lam[q, a]
        load[..., a] = acc
    rhs = np.zeros(n_dof)
    np.add.at(rhs, sub_dofs.ravel(), load.ravel())
    return matrix, rhs


# An off-diagonal entry sums the terms of at most two subtriangles, so
# every summation order gives its bits. A diagonal entry sums the terms of
# all the subtriangles at its dof: ``assemble`` adds them in patch order,
# SciPy's duplicate sum of the references in an order of its own.
DIAGONAL_RTOL = 1e-15


def assert_same_matrix(actual, expected) -> None:
    """The stored pattern, the dtypes and the off-diagonal values of two
    CSR matrices are equal bit for bit, and their diagonals within
    ``DIAGONAL_RTOL`` of each other."""
    for attr in ("indptr", "indices", "data"):
        assert getattr(actual, attr).dtype == getattr(expected, attr).dtype, attr
    assert actual.indptr.tobytes() == expected.indptr.tobytes()
    assert actual.indices.tobytes() == expected.indices.tobytes()
    rows = np.repeat(np.arange(actual.shape[0]), np.diff(actual.indptr))
    diagonal = rows == actual.indices
    assert actual.data[~diagonal].tobytes() == expected.data[~diagonal].tobytes()
    np.testing.assert_allclose(actual.data[diagonal], expected.data[diagonal],
                               rtol=DIAGONAL_RTOL, atol=0.0)


def free_mask(system) -> np.ndarray:
    """Mask of the free dofs: True but at the system's Dirichlet dofs."""
    mask = np.ones(system.n_dof, dtype=bool)
    mask[system.dirichlet_dofs] = False
    return mask


def reduced_reference(system):
    """(A_ff, b_f - A_fb g) by slicing: the free rows of the matrix, then
    their free columns; b from the free rows of A g_ext."""
    free = free_mask(system)
    a_ff = system.matrix[free][:, free]
    g_ext = np.zeros(system.n_dof)
    g_ext[system.dirichlet_dofs] = system.dirichlet_values
    return a_ff, system.rhs[free] - (system.matrix @ g_ext)[free]


def embed(system, x_free: np.ndarray) -> np.ndarray:
    """Full dof vector from free-dof values plus the Dirichlet data."""
    out = np.empty(system.n_dof)
    out[free_mask(system)] = x_free
    out[system.dirichlet_dofs] = system.dirichlet_values
    return out


def jacobi_cg_reference(system, tol: float = 1e-10):
    """Jacobi-CG on ``reduced_reference``'s A_ff with BLAS dot products:
    zero start, stop at ||r|| / ||b|| <= tol. The full dof vector and the
    iteration count."""
    a, b = reduced_reference(system)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return embed(system, np.zeros(len(b))), 0
    inv_diag = 1.0 / a.diagonal()
    x = np.zeros(len(b))
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, 10 * len(b) + 1):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * norm_b:
            return embed(system, x), it
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError("reference Jacobi-CG did not converge")


def error_norms_reference(mesh: PatchMesh, configs, problem, u_h):
    """L2 and H1-seminorm errors over the whole mesh at once, from the
    patch-major geometry. Each patch's 4 x 7 terms are added in C order, one
    term at a time, before the ``np.sum`` over the patches."""
    tris, areas, grads = patch_major_geometry(mesh, configs.topology)
    qpts, qwts = map_rule_reference(tris, areas, ERROR_RULE)
    coeffs = u_h[mesh.subtriangle_nodes(slice(None), configs.topology)]
    uh_q = np.einsum("pqa,na->pqn", coeffs, ERROR_RULE.lambdas)
    guh = np.einsum("pqa,pqad->pqd", coeffs, grads)
    mask = problem.inside(qpts)
    l2_terms = qwts * (problem.u(qpts, mask) - uh_q) ** 2
    diff = problem.grad_u(qpts, mask) - guh[..., None, :]
    h1_terms = qwts * np.sum(diff**2, axis=-1)
    norms = []
    for terms in (l2_terms, h1_terms):
        terms = terms.reshape(mesh.n_patches, -1)
        sums = terms[:, 0].copy()
        for k in range(1, terms.shape[1]):
            sums += terms[:, k]
        norms.append(float(np.sqrt(np.sum(sums))))
    return tuple(norms)


# -- scalar level-set queries and per-patch classification --------------------

def levelset_eval_reference(levelset, points):
    """Level-set values; a circle's distance comes from ``np.linalg.norm``."""
    if isinstance(levelset, Circle):
        d = np.asarray(points, dtype=float) - np.asarray(levelset.center)
        out = np.linalg.norm(d, axis=-1) - levelset.radius
        return out if out.ndim else float(out)
    return levelset.eval(points)


def _interior(roots):
    kept = [float(t) for t in roots if SNAP_TOL < t < 1.0 - SNAP_TOL]
    kept.sort()
    return kept


def segment_crossings_reference(levelset, a, b) -> list[float]:
    """Sorted interior crossings of one segment, from scalar arithmetic (a
    circle's quadratic takes its coefficients from BLAS dot products)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not isinstance(levelset, Circle):
        phi_a, phi_b = levelset.eval(a), levelset.eval(b)
        denom = phi_a - phi_b
        return [] if denom == 0.0 else _interior([phi_a / denom])
    d = b - a
    m = a - np.asarray(levelset.center)
    qa = float(d @ d)
    qb = 2.0 * float(m @ d)
    qc = float(m @ m) - levelset.radius**2
    if qa == 0.0:
        raise ValueError("segment endpoints coincide")
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        return []
    sq = np.sqrt(disc)
    qq = -0.5 * (qb + np.copysign(sq, qb))
    t1 = qq / qa
    t2 = qc / qq if qq != 0.0 else t1
    if abs(t1 - t2) <= SNAP_TOL:
        return []
    return _interior([t1, t2])


def _patch_edge_crossings(mesh, pid, levelset):
    """Interior crossing parameters per local edge, in local direction."""
    out = []
    for k in range(3):
        eid = mesh.patch_edges[pid, k]
        a, b = mesh.edges[eid]
        ts = segment_crossings_reference(levelset, mesh.vertices[a], mesh.vertices[b])
        if not mesh.patch_edge_forward[pid, k]:
            ts = sorted(1.0 - t for t in ts)
        out.append(ts)
    return out


def _classify(mesh: PatchMesh, pid: int, levelset):
    """Cut class of one patch plus its filtered per-edge crossings."""
    scale = patch_diameter(mesh, pid)
    verts = mesh.vertices[mesh.patches[pid]]
    hits = [abs(levelset_eval_reference(levelset, v)) <= SNAP_TOL * scale for v in verts]
    per_edge = _patch_edge_crossings(mesh, pid, levelset)
    # Crossings on an edge whose endpoint is hit belong to the vertex.
    for k in range(3):
        if hits[k] or hits[(k + 1) % 3]:
            per_edge[k] = [
                t
                for t in per_edge[k]
                if not (hits[k] and t <= SNAP_TOL * 10)
                and not (hits[(k + 1) % 3] and t >= 1.0 - SNAP_TOL * 10)
            ]
    counts = [len(ts) for ts in per_edge]
    n_hits = sum(hits)
    total = sum(counts)

    if max(counts) >= 2:
        raise RefinementRequired(pid, "interface enters and leaves through one edge")
    if total == 0:
        return CutClass(UNCUT), per_edge
    if total == 1:
        (k,) = [k for k in range(3) if counts[k] == 1]
        if n_hits == 0:
            raise RefinementRequired(pid, "single boundary contact point")
        if n_hits > 1:
            raise RefinementRequired(pid, "more than two boundary cut points")
        v = hits.index(True)
        if (v + 1) % 3 != k:  # the edge opposite vertex v
            raise RefinementRequired(pid, "vertex cut with crossing on adjacent edge")
        return CutClass(VERTEX_EDGE, edges=(k,), vertex=v), per_edge
    if total == 2 and n_hits == 0:
        cut_edges = tuple(k for k in range(3) if counts[k] == 1)
        return CutClass(EDGE_EDGE, edges=cut_edges), per_edge
    raise RefinementRequired(pid, "more than two boundary cut points")


def classify_patch(mesh: PatchMesh, pid: int, levelset) -> CutClass:
    """Classify one patch against the interface."""
    return _classify(mesh, pid, levelset)[0]


def classify_all_reference(mesh: PatchMesh, levelset) -> Classification:
    """Classify patch by patch in ascending id; the first crossing recorded
    on an edge wins."""
    cuts = []
    edge_crossings: dict[int, float] = {}
    for pid in range(mesh.n_patches):
        cls, per_edge = _classify(mesh, pid, levelset)
        cuts.append(cls)
        for k in cls.edges:
            eid = int(mesh.patch_edges[pid, k])
            if eid not in edge_crossings:
                (t_local,) = per_edge[k]
                t = t_local if mesh.patch_edge_forward[pid, k] else 1.0 - t_local
                edge_crossings[eid] = t
    code = np.array([_CUT_CLASSES.index(c) for c in cuts], dtype=np.int8)
    return Classification(code, np.array(list(edge_crossings), dtype=np.int64),
                          np.array(list(edge_crossings.values()), dtype=float))


# -- the scalar edge-parameter pass ---------------------------------------------

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


@dataclass
class Conflict:
    patch_id: int
    local_edge: int
    wanted: float
    kept: float


def resolve_edge_params_reference(mesh: PatchMesh, classification: Classification,
                                  strategy: int) -> list[Conflict]:
    """Write interface crossings and strategy values into the edge registry.

    Pass 1 locks every crossed edge at its crossing. Pass 2 walks cut patches
    in ascending id order and writes each patch's free parameters to still
    free edges; an edge that is already locked or set is never overwritten
    (first writer wins). A conflict is recorded for each later patch whose
    value differs from the one the edge keeps. Untouched edges stay at 1/2.
    Under strategy 3, ``_keep_angle_bound_reference`` gives strategy 2's
    value back to the edges of patches that break the angle bound.
    """
    for eid, t in zip(classification.crossed_edges.tolist(),
                      classification.crossing_t.tolist()):
        mesh.edge_param[eid] = t
        mesh.edge_lock[eid] = INTERFACE_LOCKED

    cuts = classification.cuts
    losers = []  # (patch, local edge, wanted local t) of edges kept by others
    fallback = {}  # edge -> (patch, local edge, strategy 2's local t)
    for pid in classification.cut_ids.tolist():
        cut = cuts[pid]
        local_ts = {k: local_t(mesh, pid, k) for k in cut.edges}
        fixed = determined_params(cut, local_ts)
        if cut.kind == EDGE_EDGE:
            wanted = plain = _local_ts(free_params_two_edges(strategy, fixed))
            if strategy == 3:
                plain = _local_ts(free_params_two_edges(2, fixed))
        else:
            wanted = plain = _local_ts(free_params_vertex_edge(strategy, fixed))
        for k in range(3):
            if k in cut.edges:
                continue
            eid = mesh.patch_edges[pid, k]
            if mesh.edge_lock[eid] != FREE:
                losers.append((pid, k, wanted[k]))
                continue
            # A strategy-3 value rounded onto a vertex of the edge cannot be stored.
            t = wanted[k] if 0.0 < wanted[k] < 1.0 else plain[k]
            set_local_t(mesh, pid, k, t, STRATEGY_SET)
            if t != plain[k]:
                fallback[eid] = (pid, k, plain[k])
    if fallback:
        _keep_angle_bound_reference(mesh, cuts, fallback)
    conflicts = []
    for pid, k, wanted in losers:
        kept = local_t(mesh, pid, k)
        if abs(kept - wanted) > 1e-12:
            conflicts.append(Conflict(pid, k, wanted, kept))
    return conflicts


def _local_ts(params) -> dict[int, float]:
    """Local edge -> local node parameter t of (q, r, s), as floats (the
    strategies return arrays)."""
    q, r, s = (float(v) for v in params)
    return {0: s, 1: r, 2: 1.0 - q}


def _keep_angle_bound_reference(mesh: PatchMesh, cuts, fallback: dict) -> None:
    """Give strategy 2's value back to every strategy-3 edge of a patch that
    breaks the 162-degree bound or has a degenerate subtriangle.

    ``fallback`` maps each edge that holds a strategy-3 value other than
    strategy 2's to (writer patch, its local edge, strategy 2's local t).
    The patches on both sides of those edges are checked, and the edges of
    the offending ones reverted in ascending order, until none offends. If
    the offenders have no strategy-3 edge left, the lowest one raises
    RefinementRequired.
    """
    watched = np.flatnonzero(np.isin(mesh.patch_edges, list(fallback)).any(axis=1))
    topology = np.stack([subtriangle_topology(cuts[pid]) for pid in watched.tolist()])
    while True:
        tris = gather_triangles(mesh.node_planes(),
                                mesh.subtriangle_nodes(watched, topology))
        bad = degenerate(tris).any(axis=1)
        fine = ~bad
        bad[fine] = interior_angles(tris[fine]).max(axis=(1, 2)) > MAX_ANGLE_DEG
        if not bad.any():
            return
        offenders = watched[bad]
        edges = set(mesh.patch_edges[offenders].ravel().tolist()) & fallback.keys()
        if not edges:
            raise RefinementRequired(
                int(offenders[0]),
                f"a subtriangle angle exceeds {MAX_ANGLE_DEG:g} degrees under strategy 2")
        for eid in sorted(edges):
            set_local_t(mesh, *fallback.pop(eid), STRATEGY_SET)


# -- closed-form angles -------------------------------------------------------

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


# -- dense direct solve -------------------------------------------------------

DENSE_GUARD = 5000


class SingularSystem(np.linalg.LinAlgError):
    pass


def dense_solve_oracle(system) -> np.ndarray:
    """Direct factorization of the densified free-dof system of a
    ``LinearSystem``; the full dof vector, Dirichlet values included."""
    a, b = reduced_reference(system)
    if a.shape[0] > DENSE_GUARD:
        raise ValueError(f"dense oracle limited to {DENSE_GUARD} dofs")
    if a.shape[0] == 0:
        return embed(system, np.empty(0))
    dense = a.toarray()
    try:
        x = scipy.linalg.solve(dense, b, assume_a="sym")
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("non-finite solution from dense factorization")
    return embed(system, x)


@dataclass
class JumpReport:
    max_u_jump: float
    max_flux_jump: float


def _interface_samples(problem, n: int):
    """Points on the interface inside the domain plus unit normals."""
    ls = problem.levelset
    (x0, y0), (x1, y1) = problem.domain
    if isinstance(ls, Circle):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = np.column_stack(
            [
                ls.center[0] + ls.radius * np.cos(theta),
                ls.center[1] + ls.radius * np.sin(theta),
            ]
        )
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        return pts, normals
    if isinstance(ls, HorizontalLine):
        xs = np.linspace(x0, x1, n)
        pts = np.column_stack([xs, np.full(n, ls.y0)])
        normals = np.tile([0.0, 1.0], (n, 1))
        return pts, normals
    if isinstance(ls, TiltedLine):
        ca, sa = np.cos(ls.alpha), np.sin(ls.alpha)
        # Line x = t (cos a, sin a); keep |t| small enough to stay inside.
        tmax = min(
            abs(x1) / abs(ca) if ca != 0.0 else np.inf,
            abs(y1) / abs(sa) if sa != 0.0 else np.inf,
        )
        ts = np.linspace(-tmax, tmax, n)
        pts = np.column_stack([ts * ca, ts * sa])
        normals = np.tile([-sa, ca], (n, 1))
        return pts, normals
    raise TypeError(f"unsupported level set {type(ls).__name__}")


def verify_jump_conditions(problem, n_samples: int = 1000) -> JumpReport:
    """Maximum solution jump and flux jump over interface samples.

    A valid manufactured problem reports both below 1e-10; the circle
    problem with its level set moved to radius 1/4 fails the flux check by
    construction.
    """
    pts, normals = _interface_samples(problem, n_samples)
    u_jump = np.abs(problem.u2(pts) - problem.u1(pts))
    flux1 = problem.kappa1 * np.sum(np.asarray(problem.grad_u1(pts)) * normals, axis=1)
    flux2 = problem.kappa2 * np.sum(np.asarray(problem.grad_u2(pts)) * normals, axis=1)
    return JumpReport(float(u_jump.max()), float(np.abs(flux2 - flux1).max()))


def pde_residual_defect(problem, n_per_side: int = 100,
                        step: float = 1e-5, seed: int = 0) -> float:
    """Largest defect of -kappa * laplace(u) - f at random interior points.

    Five-point finite-difference Laplacian at the given step; points closer
    than 10 * step to the interface or the domain boundary are rejected so
    the stencil stays one-sided. The defect is measured relative to
    max(1, max |f|) per subdomain.
    """
    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = problem.domain
    worst = 0.0
    for side in (1, 2):
        u = problem.u1 if side == 1 else problem.u2
        f = problem.f1 if side == 1 else problem.f2
        want = -1.0 if side == 1 else 1.0
        pts = []
        while len(pts) < n_per_side:
            cand = rng.uniform([x0, y0], [x1, y1], size=(4 * n_per_side, 2))
            phi = problem.levelset.eval(cand)
            margin = 10.0 * step
            keep = (np.sign(phi) == want) & (np.abs(phi) > margin)
            keep &= np.all(cand > [x0 + margin, y0 + margin], axis=1)
            keep &= np.all(cand < [x1 - margin, y1 - margin], axis=1)
            pts.extend(cand[keep])
        pts = np.asarray(pts[:n_per_side])
        ex = np.array([step, 0.0])
        ey = np.array([0.0, step])
        lap = (
            u(pts + ex) + u(pts - ex) + u(pts + ey) + u(pts - ey) - 4.0 * u(pts)
        ) / step**2
        kappa = problem.kappa1 if side == 1 else problem.kappa2
        fv = np.asarray(f(pts))
        scale = max(1.0, float(np.abs(fv).max()))
        worst = max(worst, float(np.abs(-kappa * lap - fv).max()) / scale)
    return worst
