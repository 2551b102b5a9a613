"""The whole-array mesh builder and patch configurations against the
per-patch reference oracles in ``tests/oracles.py``, fuzzed over interfaces,
grid sizes and strategies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patchfem.adaptation import (
    CONFLICT,
    CUT_KINDS,
    Classification,
    RefinementRequired,
    build_configs,
    classify_all,
    max_angle_audit,
    resolve_edge_params,
)
from patchfem.assembly import assemble
from patchfem.geometry import triangle_area
from patchfem.levelset import Circle, HorizontalLine, TiltedLine
from patchfem.mesh import PatchMesh, build_structured_mesh, mesh_to_json
from patchfem.problems import circle_problem

from .oracles import (
    assemble_buckets_reference,
    assert_same_matrix,
    build_configs_reference,
    build_structured_mesh_reference,
    mesh_to_json_reference,
    resolve_edge_params_reference,
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
    assert np.array_equal(configs.topology(), np.stack([cfg.topology for cfg in reference]))
    assert np.array_equal(configs.sides, np.stack([cfg.sides for cfg in reference]))
    assert configs.topology().dtype == configs.sides.dtype == np.int8
    assert mesh.local_params_all().tolist() == [list(cfg.params) for cfg in reference]
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


@settings(derandomize=True, deadline=None, max_examples=30, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), mode=st.sampled_from(["adapted", "baseline"]))
def test_assemble_equals_bucketed_oracle(case, mode):
    # The circle problem's f and kappas with the drawn interface. Its
    # pattern, off-diagonals and load are the oracle's bit for bit, its
    # diagonal within DIAGONAL_RTOL.
    levelset, n, strategy = case
    problem = dataclasses.replace(circle_problem(), levelset=levelset)
    mesh = build_structured_mesh(n)
    if mode == "baseline":
        configs = build_configs(mesh, Classification.uncut(mesh), levelset)
    else:
        configs = _configs(mesh, build_configs, levelset, strategy)
        if configs is None:
            return
    system = assemble(mesh, configs, problem, mode=mode)
    matrix, rhs = assemble_buckets_reference(mesh, configs, problem, mode)
    assert_same_matrix(system.matrix, matrix)
    assert system.rhs.tobytes() == rhs.tobytes()


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


def check_edge_params_against_oracle(n, classification, strategy):
    """The array pass and the scalar pass, each over a new mesh of grid n,
    either raise the same RefinementRequired (patch and reason) or
    ValueError, or write the same edge parameter and lock bits and report
    the same conflicts in the same order. Returns the conflicts, or the
    error."""
    outcomes = []
    for resolve in (resolve_edge_params, resolve_edge_params_reference):
        mesh = build_structured_mesh(n)
        try:
            outcomes.append((resolve(mesh, classification, strategy), mesh))
        except (RefinementRequired, ValueError) as exc:
            outcomes.append((exc, mesh))
    (got, got_mesh), (want, want_mesh) = outcomes
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, RefinementRequired):
            assert (got.patch_id, got.reason) == (want.patch_id, want.reason)
        return want
    assert got_mesh.edge_param.tobytes() == want_mesh.edge_param.tobytes()
    assert got_mesh.edge_lock.tobytes() == want_mesh.edge_lock.tobytes()
    assert got.dtype == CONFLICT
    expected = np.array([(c.patch_id, c.local_edge, c.wanted, c.kept) for c in want],
                        dtype=CONFLICT)
    assert got.tobytes() == expected.tobytes()
    return got


def _edge_params_case(levelset, n, strategy):
    try:
        classification = classify_all(build_structured_mesh(n), levelset)
    except RefinementRequired:
        return None
    return check_edge_params_against_oracle(n, classification, strategy)


@settings(derandomize=True, deadline=None, max_examples=200, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_edge_params_equal_scalar_oracle(case):
    _edge_params_case(*case)


def test_edge_params_near_grid_lines_equal_scalar_oracle():
    # Strategy 3 next to a grid line: its values fall back to strategy 2's
    # on some edges, and some offsets need refinement.
    rng = np.random.default_rng(0)
    outcomes = []
    for n in (4, 8, 16, 32):
        offsets = np.concatenate([10.0 ** -rng.uniform(2, 14, 12), [1e-14]])
        for eps in np.concatenate([offsets, 1.0 - offsets]).tolist():
            outcomes.append(_edge_params_case(HorizontalLine(eps * 2.0 / n), n, 3))
    assert all(outcome is not None for outcome in outcomes)


def test_edge_param_conflicts_equal_scalar_oracle():
    # Small circles: neighbouring cut patches want different values for a
    # shared edge.
    rng = np.random.default_rng(0)
    n_conflicts = 0
    for _ in range(60):
        circle = Circle(tuple(rng.uniform(-0.5, 0.5, 2).tolist()),
                        rng.uniform(0.5, 1.2) * 2.0 / 16)
        for strategy in (1, 2, 3):
            conflicts = _edge_params_case(circle, 16, strategy)
            if isinstance(conflicts, np.ndarray):
                n_conflicts += len(conflicts)
    assert n_conflicts > 0


def test_patch_view_and_audit_rows():
    levelset = Circle((0.0, 0.0), 0.5)
    mesh = build_structured_mesh(8)
    configs = _configs(mesh, build_configs, levelset, 2)
    classification = classify_all(mesh, levelset)
    reference = build_configs_reference(mesh, classification, levelset)
    assert len(configs) == len(reference) == mesh.n_patches
    assert set(configs.kind_names()) == set(CUT_KINDS)
    cuts = classification.cuts
    params = mesh.local_params_all().tolist()
    for pid, want in enumerate(reference):
        assert cuts[pid] == want.cut and tuple(params[pid]) == want.params
        assert np.array_equal(configs.topology(pid), want.topology)
        assert np.array_equal(configs.sides[pid], want.sides)

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
    classification = Classification(np.array([1], dtype=np.int8), np.empty(0, dtype=np.int64),
                                     np.empty(0))
    configs = build_configs(mesh, classification, levelset)
    assert configs.sides.tolist() == [[1, 2, 1, 1]]
    (reference,) = build_configs_reference(mesh, classification, levelset)
    assert reference.sides.tolist() == [1, 2, 1, 1]
