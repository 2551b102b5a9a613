"""The whole-array mesh builder and patch configurations against the
per-patch reference oracles in ``tests/oracles.py``, fuzzed over interfaces,
grid sizes and strategies."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patchfem.adaptation import (
    CUT_KINDS,
    Classification,
    CutClass,
    RefinementRequired,
    build_configs,
    classify_all,
    max_angle_audit,
    reference_local_nodes,
    resolve_edge_params,
    side_labels,
    subtriangle_topology,
)
from patchfem.geometry import triangle_area
from patchfem.levelset import Circle, HorizontalLine, TiltedLine
from patchfem.mesh import PatchMesh, build_structured_mesh, mesh_to_json

from .oracles import (
    build_configs_reference,
    build_structured_mesh_reference,
    mesh_to_json_reference,
)

MESH_FIELDS = ("vertices", "edges", "edge_boundary", "patches", "patch_edges",
               "patch_edge_forward")

unit = st.floats(0.0, 1.0)
circles = st.builds(
    Circle,
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.floats(0.05, 1.5),
)


@st.composite
def cases(draw):
    """(level set, n, strategy) on the default domain (-1, 1)^2."""
    n = draw(st.integers(1, 40))
    h = 2.0 / n
    grid = st.integers(0, n).map(lambda i: -1.0 + i * h)
    levelset = draw(st.one_of(
        circles,
        # Centred on a vertex with a radius of whole cells, the circle passes
        # through vertices and gives vertex cuts.
        st.builds(Circle, st.tuples(grid, grid), st.integers(1, n).map(lambda k: k * h)),
        # Offsets in cell heights, as the horizontal problem sets them.
        unit.map(lambda eps: HorizontalLine(eps * h)),
        st.floats(0.0, np.pi).map(TiltedLine),
    ))
    return levelset, n, draw(st.integers(1, 3))


def _configs(mesh, build, levelset, strategy):
    """Classify, resolve and build, or None when the cut needs refinement."""
    try:
        classification = classify_all(mesh, levelset)
    except RefinementRequired:
        return None
    resolve_edge_params(mesh, classification, strategy)
    return build(mesh, classification, levelset)


def check_against_oracles(levelset, n, strategy):
    """Either both paths need refinement or every output is exactly equal and
    the subtriangles tile the patches."""
    mesh = build_structured_mesh(n)
    ref_mesh = build_structured_mesh_reference(n)
    for name in MESH_FIELDS:
        got, want = getattr(mesh, name), getattr(ref_mesh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    configs = _configs(mesh, build_configs, levelset, strategy)
    reference = _configs(ref_mesh, build_configs_reference, levelset, strategy)
    assert (configs is None) == (reference is None)
    if configs is None:
        return

    assert configs.kind_names() == [cfg.cut.kind for cfg in reference]
    assert np.array_equal(configs.topology, np.stack([cfg.topology for cfg in reference]))
    assert np.array_equal(configs.sides, np.stack([cfg.sides for cfg in reference]))
    assert configs.topology.dtype == configs.sides.dtype == np.int8
    assert configs.params.tolist() == [list(cfg.params) for cfg in reference]
    assert mesh_to_json(mesh, configs) == mesh_to_json_reference(ref_mesh, reference)

    # The four subtriangles tile each patch.
    areas = configs.table.areas[configs.shape]
    assert np.all(areas > 0)
    patch_areas = triangle_area(mesh.vertices[mesh.patches])
    assert np.allclose(areas.sum(axis=1), patch_areas, rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None, max_examples=20, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_array_paths_equal_oracles(case):
    check_against_oracles(*case)


@pytest.mark.parametrize("strategy", [1, 2, 3])
@pytest.mark.parametrize(
    "levelset,n",
    [
        # circles through grid vertices: all three cut kinds
        (Circle((0.0, 0.0), 0.5), 16),
        (Circle((0.5, 0.5), 0.5), 16),
        # vertex cuts at the origin
        (TiltedLine(0.3), 16),
        (TiltedLine(2.0), 20),
    ],
)
def test_vertex_cut_cases_equal_oracles(levelset, n, strategy):
    check_against_oracles(levelset, n, strategy)


def test_patch_view_and_audit_rows():
    levelset = Circle((0.0, 0.0), 0.5)
    mesh = build_structured_mesh(8)
    configs = _configs(mesh, build_configs, levelset, 2)
    reference = build_configs_reference(mesh, classify_all(mesh, levelset), levelset)
    assert len(configs) == len(reference) == mesh.n_patches
    assert set(configs.kind_names()) == set(CUT_KINDS)
    for got, want in zip(configs, reference):
        assert got.cut == want.cut and got.params == want.params
        assert np.array_equal(got.topology, want.topology)
        assert np.array_equal(got.sides, want.sides)

    audit = max_angle_audit(mesh, configs)
    assert audit.rows == [
        (pid, cfg.cut.kind, *cfg.params, float(audit.per_patch[pid]))
        for pid, cfg in enumerate(reference)
    ]


def _unit_patch():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return PatchMesh(vertices, [(0, 1), (1, 2), (0, 2)], [True] * 3, [(0, 1, 2)],
                     [(0, 1, 2)])


def test_side_groups_fall_back_to_their_anchors():
    # A cut on edges 0 and 1 (fabricated: the circle, x = 0.9 near the patch,
    # crosses neither) leaves every centroid on side 1. Both groups then
    # agree, so each takes the label of its anchor vertex: (0, 0) on side 1
    # for subtriangles 0, 2, 3 and (1, 0) on side 2 for subtriangle 1.
    mesh = _unit_patch()
    levelset = Circle((-10.0, 0.0), 10.9)
    classification = Classification([CutClass("edge_edge", (0, 1))], {},
                                     np.zeros(3, dtype=bool))
    configs = build_configs(mesh, classification, levelset)
    assert configs.sides.tolist() == [[1, 2, 1, 1]]
    (reference,) = build_configs_reference(mesh, classification, levelset)
    assert reference.sides.tolist() == [1, 2, 1, 1]


def test_centroid_within_snap_tolerance_is_side_2():
    nodes = reference_local_nodes(0.5, 0.5, 0.5)
    topology = subtriangle_topology(CutClass("uncut"))
    y = nodes[topology].mean(axis=1)[0, 1]
    # phi = -1e-12 at the first centroid: inside the tolerance 1e-10 * scale
    tris = nodes[topology]
    assert side_labels(tris, HorizontalLine(y + 1e-12))[0] == 2
    assert side_labels(tris, HorizontalLine(y + 1e-12), scale=1e-3)[0] == 1
    assert side_labels(tris, HorizontalLine(y + 1e-9))[0] == 1
