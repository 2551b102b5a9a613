"""Reference oracles: straightforward per-patch versions of the array code.

``build_structured_mesh_reference`` numbers the edges with a dictionary while
walking the cells, and ``build_configs_reference`` builds one configuration
per patch, with ``side_labels_reference`` evaluating the level set patch by
patch. ``mesh_to_json_reference`` dumps from that list. The package computes
the same results with whole-array NumPy passes; the tests require them to be
exactly equal.

``local_nodes`` and ``local_params`` read one patch from the edge registry,
and ``local_stiffness``, ``local_load`` and ``barycentric`` are the textbook
per-element formulas; the tests scatter them element by element to check
the vectorised assembly.
"""

from __future__ import annotations

import json

import numpy as np

from patchfem.adaptation import (
    _SIDE_GROUPS,
    PatchConfig,
    _group_key,
    subtriangle_topology,
)
from patchfem.geometry import DegenerateTriangle, triangle_area
from patchfem.levelset import SNAP_TOL
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
