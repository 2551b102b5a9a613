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
one ``sum_duplicates``. ``reduced_reference`` eliminates the Dirichlet dofs
by slicing the matrix into a separate free-dof system, and ``embed`` puts
the Dirichlet data back around its solution.

``build_structured_mesh_reference`` numbers the edges with a dictionary while
walking the cells, and ``build_configs_reference`` builds one configuration
per patch, with ``side_labels_reference`` evaluating the level set patch by
patch. ``mesh_to_json_reference`` dumps from that list. The package computes
the same results with whole-array NumPy passes; the tests require them to be
exactly equal.

``local_nodes`` and ``local_params`` read one patch from the edge registry,
and ``local_stiffness``, ``local_load`` and ``barycentric`` are the textbook
per-element formulas; the tests scatter them element by element to check
the vectorised assembly. ``dense_solve_oracle`` solves a small system by a
dense factorization, and ``jacobi_cg_reference`` runs textbook Jacobi-CG on
the sliced free-dof system; the tests check the in-place CG solver against
both.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from patchfem.adaptation import (
    _SIDE_GROUPS,
    EDGE_EDGE,
    UNCUT,
    VERTEX_EDGE,
    Classification,
    CutClass,
    PatchConfig,
    RefinementRequired,
    _group_key,
    subtriangle_topology,
)
from patchfem.assembly import build_dof_map
from patchfem.geometry import (
    DEGENERACY_TOL,
    DegenerateTriangle,
    map_rule,
    reference_lambdas,
    reference_quad_rule,
    triangle_area,
)
from patchfem.levelset import SNAP_TOL, Circle
from patchfem.mesh import LOCK_NAMES, PatchMesh


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
    s = mesh.local_t(pid, 0)
    r = mesh.local_t(pid, 1)
    q = 1.0 - mesh.local_t(pid, 2)
    return q, r, s


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

    return PatchMesh(vertices, edges, boundary, patches, patch_edges, n=n,
                     domain=domain)


def side_labels_reference(nodes, topology, levelset, cut=None, scale=1.0) -> np.ndarray:
    """Side labels of one patch, re-anchoring the groups of a cut patch."""
    tris = nodes[topology]  # (4, 3, 2)
    centroids = tris.mean(axis=1)
    phi = levelset.eval(centroids)
    labels = np.where(phi < -SNAP_TOL * scale, 1, 2).astype(np.int8)

    if cut is not None and cut.is_cut:
        (group_a, anchor_a), (group_b, anchor_b) = _SIDE_GROUPS[_group_key(cut)]
        for group, anchor in ((group_a, anchor_a), (group_b, anchor_b)):
            group = list(group)
            if len(set(labels[group])) > 1:
                lab = 1 if levelset.eval(nodes[anchor]) < 0 else 2
                labels[group] = lab
        if labels[list(group_a)][0] == labels[list(group_b)][0]:
            labels[list(group_a)] = 1 if levelset.eval(nodes[anchor_a]) < 0 else 2
            labels[list(group_b)] = 1 if levelset.eval(nodes[anchor_b]) < 0 else 2
    return labels


def build_configs_reference(mesh: PatchMesh, classification,
                            levelset) -> list[PatchConfig]:
    """One PatchConfig per patch, built patch by patch."""
    nodes_all = mesh.local_nodes_all()
    params_all = mesh.local_params_all()
    configs = []
    for pid, cut in enumerate(classification.cuts):
        topo = subtriangle_topology(cut)
        sides = side_labels_reference(nodes_all[pid], topo, levelset, cut,
                                      scale=mesh.patch_diameter(pid))
        q, r, s = params_all[pid]
        configs.append(PatchConfig(cut, (float(q), float(r), float(s)), topo, sides))
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


def assemble_reference(mesh: PatchMesh, configs, problem, mode="adapted"):
    """Stiffness matrix and load vector over the whole mesh at once, from the
    patch-major geometry, with one COO over all element matrices."""
    tris, areas, grads = patch_major_geometry(mesh, configs.topology)
    rule = reference_quad_rule(2)
    qpts, qwts = map_rule_reference(tris, areas, rule)
    inside = problem.inside(qpts)
    if mode == "adapted":
        kap = np.where(configs.sides == 1, problem.kappa1, problem.kappa2)
    else:
        kap_q = np.where(inside, problem.kappa1, problem.kappa2)
        kap = (qwts * kap_q).sum(axis=-1) / qwts.sum(axis=-1)
    cell = np.einsum("pqad,pqbd->pqab", grads, grads) * (kap * areas)[..., None, None]
    f = problem.f(qpts, inside)
    load = np.einsum("pqn,pqn,na->pqa", qwts, f, reference_lambdas(rule))
    dof_map = build_dof_map(mesh)
    sub_dofs = mesh.subtriangle_nodes(slice(None), configs.topology)
    rows = np.repeat(sub_dofs[..., :, None], 3, axis=-1).ravel()
    cols = np.repeat(sub_dofs[..., None, :], 3, axis=-2).ravel()
    matrix = sp.coo_matrix((cell.ravel(), (rows, cols)),
                           shape=(dof_map.n_dof, dof_map.n_dof)).tocsr()
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


def assemble_buckets_reference(mesh: PatchMesh, configs, problem, mode="adapted"):
    """Stiffness matrix and load vector as the whole-mesh bucketed path
    builds them: the element matrices of all patches at once from the
    whole-mesh geometry of ``patch_major_geometry`` and the coordinate-major
    kernels, each row put into its slot of one CSR array
    with duplicates, one ``sum_duplicates``; the loads added in patch
    order."""
    rule = reference_quad_rule(2)
    lam = reference_lambdas(rule)
    dof_map = build_dof_map(mesh)
    n_dof = dof_map.n_dof
    index = np.int32 if max(36 * mesh.n_patches, n_dof) < 2**31 else np.int64
    sub_dofs = mesh.subtriangle_nodes(slice(None), configs.topology).astype(index)
    slots, indptr, indices = row_buckets_reference(sub_dofs, n_dof)
    tris, areas, grads = patch_major_geometry(mesh, configs.topology)
    qpts, qwts = map_rule(tris, areas, rule)
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


def reduced_reference(system):
    """(A_ff, b_f - A_fb g) by slicing: the free rows of the matrix, then
    their free columns; b from the free rows of A g_ext."""
    free = system.free_mask()
    a_ff = system.matrix[free][:, free]
    g_ext = np.zeros(system.n_dof)
    g_ext[system.dirichlet_dofs] = system.dirichlet_values
    return a_ff, system.rhs[free] - (system.matrix @ g_ext)[free]


def embed(system, x_free: np.ndarray) -> np.ndarray:
    """Full dof vector from free-dof values plus the Dirichlet data."""
    out = np.empty(system.n_dof)
    out[system.free_mask()] = x_free
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


def error_norms_reference(mesh: PatchMesh, configs, problem, u_h, degree=5):
    """L2 and H1-seminorm errors over the whole mesh at once, from the
    patch-major geometry."""
    tris, areas, grads = patch_major_geometry(mesh, configs.topology)
    rule = reference_quad_rule(degree)
    qpts, qwts = map_rule_reference(tris, areas, rule)
    coeffs = u_h[mesh.subtriangle_nodes(slice(None), configs.topology)]
    uh_q = np.einsum("pqa,na->pqn", coeffs, reference_lambdas(rule))
    guh = np.einsum("pqa,pqad->pqd", coeffs, grads)
    mask = problem.inside(qpts)
    l2_terms = qwts * (problem.u(qpts, mask) - uh_q) ** 2
    diff = problem.grad_u(qpts, mask) - guh[..., None, :]
    h1_terms = qwts * np.sum(diff**2, axis=-1)
    return float(np.sqrt(np.sum(l2_terms))), float(np.sqrt(np.sum(h1_terms)))


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
    scale = mesh.patch_diameter(pid)
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
    phi = levelset_eval_reference(levelset, mesh.vertices)
    vhit = np.abs(phi) <= SNAP_TOL * mesh.h_max
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
    return Classification(cuts, edge_crossings, vhit)


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
