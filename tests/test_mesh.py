"""Unit tests for the structured patch mesh and its edge-node registry."""

import json

import numpy as np
import pytest

from patchfem.geometry import triangle_area
from patchfem.mesh import build_structured_mesh, mesh_to_json

from .oracles import local_params, set_local_t


class TestBuild:
    def test_n1_counts(self):
        mesh = build_structured_mesh(1)
        assert mesh.n_patches == 2
        assert mesh.n_vertices == 4
        assert mesh.n_edges == 5
        assert mesh.h_max == pytest.approx(2 * np.sqrt(2))

    def test_n2_counts_euler(self):
        mesh = build_structured_mesh(2)
        assert (mesh.n_patches, mesh.n_vertices, mesh.n_edges) == (8, 9, 16)
        # Euler characteristic of a disk: V - E + F = 1
        assert mesh.n_vertices - mesh.n_edges + mesh.n_patches == 1

    def test_h_max_n16(self):
        assert build_structured_mesh(16).h_max == pytest.approx(np.sqrt(2) / 8)

    def test_all_patches_ccw(self):
        mesh = build_structured_mesh(4)
        areas = triangle_area(mesh.vertices[mesh.patches])
        assert np.all(areas > 0)

    def test_interior_edges_shared_by_two_patches(self):
        mesh = build_structured_mesh(3)
        counts = np.zeros(mesh.n_edges, dtype=int)
        for pe in mesh.patch_edges:
            counts[pe] += 1
        assert np.all(counts[mesh.edge_boundary] == 1)
        assert np.all(counts[~mesh.edge_boundary] == 2)

    def test_default_params_are_midpoints(self):
        mesh = build_structured_mesh(2)
        assert np.all(mesh.edge_param == 0.5)

    def test_deterministic_rebuild(self):
        a = build_structured_mesh(5)
        b = build_structured_mesh(5)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.patches, b.patches)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            build_structured_mesh(0)

    def test_rectangular_domain(self):
        mesh = build_structured_mesh(4, domain=((0.0, 0.0), (2.0, 1.0)))
        assert mesh.n_patches == 32
        assert np.all(triangle_area(mesh.vertices[mesh.patches]) > 0)
        assert mesh.h_max == pytest.approx(np.hypot(0.5, 0.25))


class TestRefine:
    def test_h_max_halves(self):
        mesh = build_structured_mesh(4)
        assert build_structured_mesh(8).h_max == pytest.approx(mesh.h_max / 2)

    def test_patch_count_quadruples(self):
        mesh = build_structured_mesh(3)
        assert build_structured_mesh(6).n_patches == 4 * mesh.n_patches


class TestLocalNodes:
    def test_midpoints_by_default(self):
        mesh = build_structured_mesh(2)
        for pid in range(mesh.n_patches):
            nodes = mesh.local_nodes_all()[pid]
            v = nodes[:3]
            assert np.allclose(nodes[3], 0.5 * (v[0] + v[1]))
            assert np.allclose(nodes[4], 0.5 * (v[1] + v[2]))
            assert np.allclose(nodes[5], 0.5 * (v[2] + v[0]))

    def test_worked_parameter_positions(self):
        # s=1/2, r=11/16, q=9/16 must place the edge nodes at the positions
        # the LocalNodes formulas prescribe, in the patch's own frame.
        mesh = build_structured_mesh(1, domain=((0.0, 0.0), (1.0, 1.0)))
        pid = 0
        set_local_t(mesh, pid, 0, 0.5, 2)
        set_local_t(mesh, pid, 1, 11 / 16, 2)
        set_local_t(mesh, pid, 2, 1 - 9 / 16, 2)
        nodes = mesh.local_nodes_all()[pid]
        v0, v1, v2 = nodes[:3]
        assert np.allclose(nodes[3], v0 + 0.5 * (v1 - v0))
        assert np.allclose(nodes[4], v1 + 11 / 16 * (v2 - v1))
        assert np.allclose(nodes[5], v2 + (1 - 9 / 16) * (v0 - v2))
        q, r, s = mesh.local_params_all()[pid]
        assert (q, r, s) == pytest.approx((9 / 16, 11 / 16, 1 / 2))

    def test_shared_edge_node_is_bitwise_identical(self):
        mesh = build_structured_mesh(2)
        # find an interior edge and its two adjacent patches
        counts = {}
        for pid, pe in enumerate(mesh.patch_edges):
            for k, eid in enumerate(pe):
                counts.setdefault(eid, []).append((pid, k))
        eid, owners = next(
            (e, o) for e, o in counts.items() if len(o) == 2
        )
        mesh.edge_param[eid] = 0.37
        (p1, k1), (p2, k2) = owners
        n1 = mesh.local_nodes_all()[p1, 3 + k1]
        n2 = mesh.local_nodes_all()[p2, 3 + k2]
        assert np.array_equal(n1, n2)

    def test_positive_subtriangle_areas_any_params(self):
        from patchfem.adaptation import TOPOLOGIES

        rng = np.random.default_rng(17)
        mesh = build_structured_mesh(2)
        mesh.edge_param[:] = rng.uniform(0.01, 0.99, mesh.n_edges)
        topo = TOPOLOGIES[0]
        nodes = mesh.local_nodes_all()
        tris = nodes[np.arange(mesh.n_patches)[:, None, None], topo]
        assert np.all(triangle_area(tris) > 0)

    def test_local_params_roundtrip(self):
        mesh = build_structured_mesh(3)
        rng = np.random.default_rng(23)
        for pid in rng.integers(0, mesh.n_patches, 10):
            q, r, s = rng.uniform(0.05, 0.95, 3)
            set_local_t(mesh, pid, 0, s, 2)
            set_local_t(mesh, pid, 1, r, 2)
            set_local_t(mesh, pid, 2, 1 - q, 2)
            assert local_params(mesh, pid) == pytest.approx((q, r, s))
        assert np.allclose(
            mesh.local_params_all(),
            [local_params(mesh, p) for p in range(mesh.n_patches)],
        )


class TestJsonDump:
    def test_schema_roundtrip(self):
        mesh = build_structured_mesh(2)
        doc = json.loads(mesh_to_json(mesh))
        assert set(doc) == {"vertices", "edges", "patches", "subtriangles"}
        assert len(doc["vertices"]) == mesh.n_vertices
        assert len(doc["edges"]) == mesh.n_edges
        assert len(doc["patches"]) == mesh.n_patches
        v0, v1, t, lock = doc["edges"][0]
        assert isinstance(v0, int) and isinstance(v1, int)
        assert t == 0.5 and lock == "free"
        assert len(doc["patches"][0]) == 6

    def test_subtriangles_after_adaptation(self):
        from patchfem.adaptation import adapt
        from patchfem.levelset import Circle

        mesh = build_structured_mesh(4)
        configs, _, _ = adapt(mesh, Circle((0, 0), 0.5), 2)
        doc = json.loads(mesh_to_json(mesh, configs))
        assert len(doc["subtriangles"]) == mesh.n_patches
        entry = doc["subtriangles"][0]
        assert set(entry) == {"patch", "cut", "params", "nodes", "triangles", "sides"}
        assert len(entry["triangles"]) == 4
        assert set(entry["sides"]) <= {1, 2}
