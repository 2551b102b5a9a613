"""Tests for cut classification, parameter strategies, topologies, side
labels, and the angle machinery."""

import pickle

import numpy as np
import pytest

from patchfem.adaptation import (
    Classification,
    CutClass,
    RefinementRequired,
    adapt,
    angle_cosines_two_edges,
    angle_cosines_vertex_edge,
    build_configs,
    classify_all,
    determined_params,
    free_params_two_edges,
    free_params_vertex_edge,
    max_angle_audit,
    reference_local_nodes,
    resolve_edge_params,
    side_labels,
    subtriangle_topology,
)
from patchfem.assembly import assemble
from patchfem.geometry import DegenerateTriangle, interior_angles, triangle_area
from patchfem.levelset import Circle, HorizontalLine
from patchfem.mesh import FREE, INTERFACE_LOCKED, STRATEGY_SET, PatchMesh, build_structured_mesh
from patchfem.problems import circle_problem, horizontal_problem
from patchfem.runner import make_problem
from patchfem.solver import cg_solve

from .oracles import local_params


def single_patch(v0, v1, v2):
    """One-triangle mesh for classification tests."""
    vertices = np.array([v0, v1, v2], dtype=float)
    edges = [(0, 1), (1, 2), (0, 2)]
    return PatchMesh(vertices, edges, [True] * 3, [(0, 1, 2)], [(0, 1, 2)])


def classify_patch(mesh, pid, levelset):
    """Cut class of one patch, from classifying the whole mesh."""
    return classify_all(mesh, levelset).cuts[pid]


class TestClassifyPatch:
    def test_far_patch_uncut(self):
        mesh = single_patch([0.8, 0.8], [0.9, 0.8], [0.8, 0.9])
        assert classify_patch(mesh, 0, Circle((0, 0), 0.5)).kind == "uncut"

    def test_two_edge_cut(self):
        mesh = single_patch([0.4, 0.0], [0.6, 0.0], [0.4, 0.2])
        cls = classify_patch(mesh, 0, Circle((0, 0), 0.5))
        assert cls.kind == "edge_edge"
        assert cls.edges == (0, 1)

    def test_vertex_edge_cut(self):
        mesh = single_patch([0.5, 0.0], [0.7, 0.1], [0.3, 0.2])
        cls = classify_patch(mesh, 0, Circle((0, 0), 0.5))
        assert cls.kind == "vertex_edge"
        assert cls.vertex == 0
        assert cls.edges == (1,)

    def test_two_vertex_hits_is_uncut(self):
        # interface along the bottom edge
        mesh = single_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        assert classify_patch(mesh, 0, HorizontalLine(0.0)).kind == "uncut"

    def test_double_crossing_one_edge_requires_refinement(self):
        mesh = single_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(RefinementRequired):
            classify_patch(mesh, 0, Circle((0.5, 0.02), 0.03))

    def test_refinement_required_survives_pickling(self):
        # A worker process of a sweep sends it back to the parent.
        exc = pickle.loads(pickle.dumps(RefinementRequired(7, "synthetic")))
        assert type(exc) is RefinementRequired
        assert str(exc) == "patch 7: synthetic"
        assert (exc.patch_id, exc.reason) == (7, "synthetic")

    def test_vertex_hit_with_adjacent_edge_crossing(self):
        # line through vertex 0 leaving through the adjacent bottom edge
        mesh = single_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        ls = Circle((0.25, -0.1939), np.hypot(0.25, 0.1939))
        assert abs(ls.eval([0.0, 0.0])) < 1e-12
        with pytest.raises(RefinementRequired):
            classify_patch(mesh, 0, ls)


class TestDeterminedParams:
    def test_midpoint_bottom_edge(self):
        fixed = determined_params(CutClass("edge_edge", (0, 1)), {0: 0.5, 1: 0.7})
        assert fixed == {"s": 0.5, "r": 0.7}

    def test_edge2_converts_to_q(self):
        # crossing at local t on edge 2 (run v2->v0) sits at parameter 1-q
        fixed = determined_params(CutClass("vertex_edge", (2,), 1), {2: 0.25})
        assert fixed == {"q": 0.75}

    def test_crossing_matches_node_position(self):
        # the derived q must reproduce the worked-example node (0, 9/16)
        mesh = single_patch([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        t = 1.0 - 9.0 / 16.0
        mesh.set_local_t(0, 2, t, INTERFACE_LOCKED)
        fixed = determined_params(CutClass("vertex_edge", (2,), 1), {2: t})
        assert fixed["q"] == pytest.approx(9 / 16)
        assert np.allclose(mesh.local_nodes_all()[0, 5], [0.0, 9 / 16])

    def test_edge_bookkeeping(self):
        fixed = determined_params(CutClass("edge_edge", (1, 2)), {1: 0.3, 2: 0.8})
        assert set(fixed) == {"r", "q"}

    def test_uncut_rejected(self):
        with pytest.raises(ValueError):
            determined_params(CutClass("uncut"), {})


class TestFreeParamsTwoEdges:
    def test_strategy1_always_half(self):
        assert free_params_two_edges(1, {"q": 0.7, "r": 0.9}) == (0.7, 0.9, 0.5)
        assert free_params_two_edges(1, {"s": 0.1, "r": 0.2}) == (0.5, 0.2, 0.1)

    def test_strategy2_in_regime(self):
        # free s with q, r both below 1/2: s = 1 - r
        assert free_params_two_edges(2, {"q": 0.3, "r": 0.4}) == (0.3, 0.4, 0.6)
        # free q with s < 1/2 < r: q = s
        assert free_params_two_edges(2, {"s": 0.2, "r": 0.9}) == (0.2, 0.9, 0.2)
        # free r with q, s above 1/2: r = 1 - s
        assert free_params_two_edges(2, {"q": 0.8, "s": 0.7}) == pytest.approx(
            (0.8, 0.3, 0.7)
        )

    def test_strategy3_in_regime(self):
        # free r requires q, s > 1/2
        q, r, s = free_params_two_edges(3, {"q": 0.8, "s": 0.7})
        assert r == pytest.approx((1 - 0.7) * (1 - 0.8))
        q, r, s = free_params_two_edges(3, {"s": 0.2, "r": 0.9})
        assert q == pytest.approx((1 - 0.9) * 0.2)
        q, r, s = free_params_two_edges(3, {"q": 0.3, "r": 0.4})
        assert s == pytest.approx(0.3 * 0.4)

    def test_fallback_to_half_outside_regime(self):
        # these determined pairs need no remedy; the free value stays 1/2
        assert free_params_two_edges(2, {"q": 0.7, "r": 0.9}) == (0.7, 0.9, 0.5)
        assert free_params_two_edges(3, {"s": 0.3, "q": 0.8}) == (0.8, 0.5, 0.3)

    def test_outputs_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            strategy = rng.integers(1, 4)
            names = rng.permutation(["q", "r", "s"])[:2]
            fixed = {n: rng.uniform(1e-6, 1 - 1e-6) for n in names}
            q, r, s = free_params_two_edges(int(strategy), fixed)
            assert 0 < q < 1 and 0 < r < 1 and 0 < s < 1


class TestFreeParamsVertexEdge:
    def test_fixed_r_above_half(self):
        assert free_params_vertex_edge(2, {"r": 0.8}) == (0.8, 0.8, 0.5)

    def test_fixed_r_below_half(self):
        assert free_params_vertex_edge(2, {"r": 0.3}) == (0.5, 0.3, 0.7)

    def test_strategy1(self):
        assert free_params_vertex_edge(1, {"q": 0.9}) == (0.9, 0.5, 0.5)

    def test_fixed_q_cases(self):
        assert free_params_vertex_edge(3, {"q": 0.9}) == (0.9, 0.9, 0.5)
        assert free_params_vertex_edge(3, {"q": 0.2}) == (0.2, 0.5, 0.2)

    def test_fixed_s_cases(self):
        assert free_params_vertex_edge(2, {"s": 0.9}) == pytest.approx((0.5, 0.1, 0.9))
        assert free_params_vertex_edge(2, {"s": 0.2}) == (0.2, 0.5, 0.2)


class TestTopologies:
    def test_midpoints_give_uniform_subdivision(self):
        nodes = reference_local_nodes(0.5, 0.5, 0.5)
        topo = subtriangle_topology(CutClass("uncut"))
        areas = triangle_area(nodes[topo])
        assert np.allclose(areas, 0.125)
        angles = interior_angles(nodes[topo])
        assert np.allclose(np.sort(angles, axis=1), [[45.0, 45.0, 90.0]] * 4)

    @pytest.mark.parametrize(
        "cut,separated",
        [
            (CutClass("edge_edge", (0, 1)), ({1}, {0, 2, 3})),
            (CutClass("edge_edge", (1, 2)), ({2}, {0, 1, 3})),
            (CutClass("edge_edge", (0, 2)), ({0}, {1, 2, 3})),
            (CutClass("vertex_edge", (1,), 0), ({0, 3}, {1, 2})),
            (CutClass("vertex_edge", (2,), 1), ({0, 1}, {2, 3})),
            (CutClass("vertex_edge", (0,), 2), ({0, 1}, {2, 3})),
        ],
    )
    def test_cut_segment_is_shared_subtriangle_edge(self, cut, separated):
        """The segment between the two cut nodes is an edge of the split, and
        it separates the expected subtriangle groups."""
        if cut.kind == "edge_edge":
            node_of_edge = {0: 3, 1: 4, 2: 5}
            a, b = (node_of_edge[e] for e in cut.edges)
        else:
            a, b = cut.vertex, {0: 4, 1: 5, 2: 3}[cut.vertex]
        topo = subtriangle_topology(cut)
        with_edge = set()
        for i, tri in enumerate(topo):
            edges = {frozenset((tri[0], tri[1])), frozenset((tri[1], tri[2])),
                     frozenset((tri[2], tri[0]))}
            if frozenset((a, b)) in edges:
                with_edge.add(i)
        assert len(with_edge) == 2  # exactly the two triangles along the cut
        side_a, side_b = separated
        assert len(with_edge & side_a) == 1 and len(with_edge & side_b) == 1

    @pytest.mark.parametrize(
        "cut",
        [
            CutClass("uncut"),
            CutClass("vertex_edge", (1,), 0),
            CutClass("vertex_edge", (2,), 1),
            CutClass("vertex_edge", (0,), 2),
        ],
    )
    def test_tiling_and_orientation_random_params(self, cut):
        rng = np.random.default_rng(31)
        q, r, s = rng.uniform(1e-3, 1 - 1e-3, size=(3, 20_000))
        nodes = reference_local_nodes(q, r, s)
        tris = nodes[:, subtriangle_topology(cut), :]
        areas = triangle_area(tris)
        assert np.all(areas > 0)
        assert np.abs(areas.sum(axis=1) - 0.5).max() < 1e-12


class TestInterfaceAlignment:
    def test_cut_points_are_subtriangle_vertices(self):
        """The physical cut points coincide with derived edge nodes and the
        cut segment midpoint lies on a subtriangle edge."""
        mesh = build_structured_mesh(8)
        ls = Circle((0, 0), 0.5)
        configs, classification, _ = adapt(mesh, ls, 2)
        nodes_all = mesh.local_nodes_all()
        n_checked = 0
        for pid, cfg in enumerate(configs):
            if not cfg.cut.is_cut:
                continue
            nodes = nodes_all[pid]
            cut_nodes = []
            if cfg.cut.kind == "edge_edge":
                cut_nodes = [3 + e for e in cfg.cut.edges]
            else:
                cut_nodes = [cfg.cut.vertex, 3 + cfg.cut.edges[0]]
            for ln in cut_nodes:
                assert abs(ls.eval(nodes[ln])) < 1e-12
            mid = 0.5 * (nodes[cut_nodes[0]] + nodes[cut_nodes[1]])
            # midpoint must lie on an edge of some subtriangle
            best = np.inf
            for tri in cfg.topology:
                for i in range(3):
                    a, b = nodes[tri[i]], nodes[tri[(i + 1) % 3]]
                    t = np.dot(mid - a, b - a) / np.dot(b - a, b - a)
                    proj = a + np.clip(t, 0, 1) * (b - a)
                    best = min(best, np.linalg.norm(mid - proj))
            assert best < 1e-12
            n_checked += 1
        assert n_checked > 10


class TestResolveEdgeParams:
    def test_no_cut_patches_keeps_midpoints(self):
        mesh = build_structured_mesh(2)
        classification = classify_all(mesh, Circle((5, 5), 0.1))
        resolve_edge_params(mesh, classification, 2)
        assert np.all(mesh.edge_param == 0.5)
        assert np.all(mesh.edge_lock == FREE)

    def test_neighbors_share_strategy_edge(self):
        mesh = build_structured_mesh(4)
        classification = classify_all(mesh, Circle((0, 0), 0.5))
        resolve_edge_params(mesh, classification, 2)
        # every strategy-set edge bordering an uncut patch is simply shared
        for pid, cut in enumerate(classification.cuts):
            for k in range(3):
                eid = mesh.patch_edges[pid, k]
                if mesh.edge_lock[eid] == STRATEGY_SET and not cut.is_cut:
                    t = mesh.edge_param[eid]
                    assert 0.0 < t < 1.0  # inherited, single storage

    def test_first_writer_wins_conflict(self):
        # two patches sharing the diagonal both want to set it: fabricate the
        # classification so patch 0 wants r=0.3 and patch 1 wants r=0.4
        mesh = build_structured_mesh(1, domain=((0.0, 0.0), (1.0, 1.0)))
        # patch 0 = (1,3,0): cut edges 0 (storage (1,3)) and 2 (storage (0,1))
        # patch 1 = (2,0,3): cut edges 0 (storage (0,2)) and 2 (storage (2,3))
        eid = {tuple(e): i for i, e in enumerate(map(tuple, mesh.edges))}
        crossings = {
            eid[(1, 3)]: 0.7,  # patch 0: s = 0.7
            eid[(0, 1)]: 0.2,  # patch 0: q = 1 - t_local = 0.8
            eid[(0, 2)]: 0.4,  # patch 1: s = 1 - 0.4 = 0.6
            eid[(2, 3)]: 0.9,  # patch 1: q = 0.9
        }
        cuts = [CutClass("edge_edge", (0, 2)), CutClass("edge_edge", (0, 2))]
        classification = Classification(cuts, crossings, np.zeros(4, bool))
        conflicts = resolve_edge_params(mesh, classification, 2)
        diag = eid[(0, 3)]
        # patch 0 in regime (q=0.8, s=0.7): wants r = 1 - s = 0.3 and writes
        # first; patch 1 wants r = 1 - 0.6 = 0.4 and must lose
        assert mesh.local_t(0, 1) == pytest.approx(0.3)
        assert mesh.edge_lock[diag] == STRATEGY_SET
        assert len(conflicts) == 1
        assert conflicts[0].patch_id == 1
        assert conflicts[0].wanted == pytest.approx(0.4)

    def test_idempotent(self):
        mesh = build_structured_mesh(8)
        classification = classify_all(mesh, Circle((0, 0), 0.5))
        resolve_edge_params(mesh, classification, 3)
        params = mesh.edge_param.copy()
        locks = mesh.edge_lock.copy()
        resolve_edge_params(mesh, classification, 3)
        assert np.array_equal(params, mesh.edge_param)
        assert np.array_equal(locks, mesh.edge_lock)

    def test_interface_lock_matches_crossing(self):
        mesh = build_structured_mesh(8)
        ls = Circle((0, 0), 0.5)
        classification = classify_all(mesh, ls)
        resolve_edge_params(mesh, classification, 2)
        locked = np.nonzero(mesh.edge_lock == INTERFACE_LOCKED)[0]
        assert len(locked) > 0
        pts = mesh.edge_points()[locked]
        assert np.abs(ls.eval(pts)).max() < 1e-12


class TestSideLabels:
    def test_uncut_inside_circle(self):
        nodes = reference_local_nodes(0.5, 0.5, 0.5) * 0.1
        labels = side_labels(nodes[subtriangle_topology(CutClass("uncut"))],
                             Circle((0, 0), 0.5))
        assert np.all(labels == 1)

    def test_horizontal_line_partition(self):
        mesh = build_structured_mesh(4)
        ls = HorizontalLine(0.125)
        configs, classification, _ = adapt(mesh, ls, 2)
        nodes = mesh.local_nodes_all()
        for pid, cfg in enumerate(configs):
            centroids = nodes[pid][cfg.topology].mean(axis=1)
            expect = np.where(centroids[:, 1] < 0.125, 1, 2)
            assert np.array_equal(cfg.sides, expect)

    def test_cut_patch_sides_differ_across_interface(self):
        mesh = build_structured_mesh(8)
        configs, _, _ = adapt(mesh, Circle((0, 0), 0.5), 2)
        from patchfem.adaptation import _SIDE_GROUPS, _group_key

        n_cut = 0
        for cfg in configs:
            if not cfg.cut.is_cut:
                continue
            (ga, _), (gb, _) = _SIDE_GROUPS[_group_key(cfg.cut)]
            la = {int(cfg.sides[i]) for i in ga}
            lb = {int(cfg.sides[i]) for i in gb}
            assert len(la) == 1 and len(lb) == 1 and la != lb
            n_cut += 1
        assert n_cut > 10


class TestAngleCosines:
    def test_midpoint_values(self):
        ca, cb, cg = angle_cosines_two_edges(0.5, 0.5, 0.5)
        assert ca == pytest.approx(0.0, abs=1e-15)
        assert cb == pytest.approx(1 / np.sqrt(2))
        assert cg == pytest.approx(1 / np.sqrt(2))

    def test_lower_left_beta1_at_half(self):
        # cos(b1) = r / sqrt((1-r)^2 + r^2) = 1/sqrt(2) at r = 1/2
        c = angle_cosines_vertex_edge("lower-left", 0.3, 0.5, 0.8)
        assert c[1] == pytest.approx(1 / np.sqrt(2))

    def test_regime_bound_large_qs(self):
        # q, s large with r = 1-s keeps cos(a) above -1/sqrt(2)
        q = s = 0.9
        _, r, _ = free_params_two_edges(2, {"q": q, "s": s})
        ca, _, _ = angle_cosines_two_edges(q, r, s)
        assert ca >= -1 / np.sqrt(2) - 1e-12

    def test_two_edge_formulas_match_generic_angles(self):
        rng = np.random.default_rng(12)
        q, r, s = rng.uniform(1e-3, 1 - 1e-3, size=(3, 10_000))
        ca, cb, cg = angle_cosines_two_edges(q, r, s)
        nodes = reference_local_nodes(q, r, s)
        angles = interior_angles(nodes[:, [3, 4, 5], :])
        # formula angles sit at: a on the slanted-edge node, b on the left
        # node, g on the bottom node
        assert np.abs(ca - np.cos(np.radians(angles[:, 1]))).max() < 1e-12
        assert np.abs(cb - np.cos(np.radians(angles[:, 2]))).max() < 1e-12
        assert np.abs(cg - np.cos(np.radians(angles[:, 0]))).max() < 1e-12

    def test_lower_left_formulas_match_generic_angles(self):
        rng = np.random.default_rng(13)
        q, r, s = rng.uniform(1e-3, 1 - 1e-3, size=(3, 10_000))
        c = angle_cosines_vertex_edge("lower-left", q, r, s)
        nodes = reference_local_nodes(q, r, s)
        t0 = interior_angles(nodes[:, [0, 4, 5], :])
        t1 = interior_angles(nodes[:, [0, 3, 4], :])
        expected = [t0[:, 2], t0[:, 0], t0[:, 1], t1[:, 0], t1[:, 1], t1[:, 2]]
        for formula, angle in zip(c, expected):
            assert np.abs(formula - np.cos(np.radians(angle))).max() < 1e-12

    def test_lower_right_formulas_match_generic_angles(self):
        rng = np.random.default_rng(14)
        q, r, s = rng.uniform(1e-3, 1 - 1e-3, size=(3, 10_000))
        c = angle_cosines_vertex_edge("lower-right", q, r, s)
        nodes = reference_local_nodes(q, r, s)
        t1 = interior_angles(nodes[:, [3, 1, 5], :])
        t2 = interior_angles(nodes[:, [5, 1, 4], :])
        expected = [t1[:, 0], t1[:, 1], t1[:, 2], t2[:, 1], t2[:, 0], t2[:, 2]]
        for formula, angle in zip(c, expected):
            assert np.abs(formula - np.cos(np.radians(angle))).max() < 1e-12

    def test_lower_right_gamma3_bound(self):
        # bound holds once the free parameters come from the choice table
        rng = np.random.default_rng(15)
        for qdet in rng.uniform(1e-3, 1 - 1e-3, 5000):
            q, r, s = free_params_vertex_edge(2, {"q": qdet})
            cg3 = angle_cosines_vertex_edge("lower-right", q, r, s)[2]
            assert cg3 >= 1 / np.sqrt(2) - 1e-12


class TestMaxAngleAudit:
    def test_uncut_mesh_is_90(self):
        mesh = build_structured_mesh(4)
        configs, _, _ = adapt(mesh, Circle((9, 9), 0.1), 2)
        audit = max_angle_audit(mesh, configs)
        assert audit.global_max == pytest.approx(90.0)
        assert len(audit.rows) == mesh.n_patches

    def test_unremedied_anisotropy_reported(self):
        # q, r -> 0 with s pinned at 1/2 (no strategy applied) degenerates
        nodes = reference_local_nodes(1e-4, 1e-4, 0.5)
        angles = interior_angles(nodes[subtriangle_topology(CutClass("uncut"))])
        assert angles.max() > 179.0

    def test_strategy2_circle_below_bound(self):
        from patchfem.runner import run_angles

        audit = run_angles("circle", 32, 2)
        assert audit.global_max <= 162.0 + 1e-9

    def test_histogram_counts_all_angles(self):
        mesh = build_structured_mesh(4)
        configs, _, _ = adapt(mesh, Circle((0, 0), 0.5), 2)
        audit = max_angle_audit(mesh, configs)
        assert audit.histogram.sum() == mesh.n_patches * 12


class TestAdaptEndToEnd:
    def test_horizontal_alignment_cases_are_uncut(self):
        # interface exactly on a mesh line: two-vertex rule leaves all uncut
        mesh = build_structured_mesh(4)
        classification = classify_all(mesh, HorizontalLine(0.0))
        assert classification.n_cut == 0

    def test_circle_produces_both_cut_kinds(self):
        mesh = build_structured_mesh(16)
        classification = classify_all(mesh, Circle((0, 0), 0.5))
        kinds = {c.kind for c in classification.cuts}
        assert kinds == {"uncut", "edge_edge", "vertex_edge"}

    def test_configs_params_match_mesh(self):
        mesh = build_structured_mesh(8)
        configs, _, _ = adapt(mesh, Circle((0, 0), 0.5), 3)
        for pid, cfg in enumerate(configs):
            assert cfg.params == pytest.approx(local_params(mesh, pid))


class TestShapeTable:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("problem", ["circle", "horizontal", "tilted"])
    def test_unmodified_patches_share_two_shapes(self, problem, n):
        """At power-of-two n the grid coordinates are exact, so every patch
        the interface leaves alone (uncut, no edge node moved) is a
        translate of the lower or the upper reference patch."""
        spec = make_problem(problem, n, eps=0.3, alpha=0.3)
        mesh = build_structured_mesh(n, spec.domain)
        configs, _, _ = adapt(mesh, spec.levelset, 3 if problem == "tilted" else 2)
        modified = (configs.kind != 0) | np.any(mesh.edge_lock[mesh.patch_edges] != FREE,
                                                axis=1)
        assert modified.any()
        assert len(np.unique(configs.shape[~modified])) == 2
        assert len(configs.table) <= modified.sum() + 2

    def test_holds_no_float_array_per_subtriangle(self):
        problem = circle_problem()
        mesh = build_structured_mesh(128, problem.domain)
        configs, _, _ = adapt(mesh, problem.levelset, 2)
        arrays = [value for obj in (configs, configs.table) for value in vars(obj).values()
                  if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
        assert len(arrays) == 4  # the parameters and the table's three arrays
        assert all(a.size < 4 * mesh.n_patches for a in arrays)
        assert len(configs.table) < mesh.n_patches / 32


class TestStrategy3Reproducers:
    """Strategy 3 writes its free parameters onto edges that an uncut
    neighbour shares, and nothing checks that neighbour."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="two cut neighbours push two edge nodes of uncut patch "
                       "71 toward one vertex: 179.04 degrees (158.5 under strategy 2)")
    def test_uncut_neighbours_keep_the_angle_bound(self):
        mesh = build_structured_mesh(8)
        configs, _, _ = adapt(mesh, Circle((-0.0974, 0.0909), 0.221), 3)
        assert max_angle_audit(mesh, configs).global_max <= 162.0

    @pytest.mark.xfail(strict=True, raises=DegenerateTriangle,
                       reason="an interface 1e-8 cells above a grid line gives a "
                       "zero-area subtriangle under strategy 3")
    def test_near_a_grid_line_solves_or_refines(self):
        problem = horizontal_problem(1e-8, 2.0 / 16)
        mesh = build_structured_mesh(16, problem.domain)
        try:
            configs, _, _ = adapt(mesh, problem.levelset, 3)
        except RefinementRequired:
            return
        cg_solve(assemble(mesh, configs, problem))
