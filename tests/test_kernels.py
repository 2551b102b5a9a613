"""The coordinate-major geometry kernels and the whole-array classification
against the patch-major oracles in ``tests/oracles.py``: every value must be
bitwise equal, on random triangles and on adapted meshes."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patchfem.adaptation import (
    CutClass,
    RefinementRequired,
    build_configs,
    classify_all,
    max_angle_audit,
    resolve_edge_params,
)
from patchfem.assembly import assemble
from patchfem.geometry import (
    ERROR_RULE,
    LOAD_RULE,
    DegenerateTriangle,
    barycentric_gradients,
    gather_triangles,
    interior_angles,
    map_rule,
    triangle_area,
)
from patchfem.levelset import SNAP_TOL, Circle, HorizontalLine, TiltedLine
from patchfem.mesh import PatchMesh, build_structured_mesh, index_dtype
from patchfem.problems import circle_problem, error_norms, horizontal_problem, tilted_problem

from .oracles import (
    assemble_reference,
    assert_same_matrix,
    barycentric_gradients_reference,
    classify_all_reference,
    error_norms_reference,
    interior_angles_reference,
    levelset_eval_reference,
    map_rule_reference,
    patch_major_geometry,
    segment_crossings_reference,
    triangle_area_reference,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _random_triangles(rng, count, scale, sliver):
    """(count, 4, 3, 2) triangles; slivers put the third vertex within about
    1e-14 of the opposite edge, around the degeneracy threshold."""
    tris = rng.uniform(-1.0, 1.0, size=(count, 4, 3, 2)) * scale + rng.uniform(-5, 5, 2)
    if sliver:
        t = rng.uniform(0.0, 1.0, size=(count, 4, 1))
        edge = tris[..., 1, :] - tris[..., 0, :]
        normal = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)
        offset = rng.uniform(-3e-14, 3e-14, size=(count, 4, 1))
        tris[..., 2, :] = tris[..., 0, :] + t * edge + offset * normal
    return tris


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), sliver=st.booleans())
def test_triangle_kernels_equal_patch_major(seed, count, scale, sliver):
    rng = np.random.default_rng(seed)
    tris = _random_triangles(rng, count, scale, sliver)
    for layout in (tris, np.asfortranarray(tris)):  # patch-major, coordinate-major
        areas = triangle_area(layout)
        assert np.array_equal(areas, triangle_area_reference(tris))
        try:
            want = interior_angles_reference(tris)
        except DegenerateTriangle:
            with pytest.raises(DegenerateTriangle):
                interior_angles(layout)
        else:
            assert np.array_equal(interior_angles(layout), want)
        if np.all(areas != 0.0):
            assert np.array_equal(barycentric_gradients(layout, areas),
                                  barycentric_gradients_reference(tris, areas))
        for rule in (LOAD_RULE, ERROR_RULE):
            points, weights = map_rule(layout, areas, rule)
            assert points.T.flags.c_contiguous and weights.T.flags.c_contiguous
            want_points, want_weights = map_rule_reference(tris, areas, rule)
            assert np.array_equal(points, want_points)
            assert np.array_equal(weights, want_weights)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 200),
       levelset=st.sampled_from([Circle((0.1, -0.2), 0.45), Circle((0.0, 0.0), 0.5),
                                 TiltedLine(0.3), TiltedLine(2.0), HorizontalLine(0.0)]))
def test_level_set_queries_equal_scalar(seed, count, levelset):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(count, 2))
    b = rng.uniform(-1.0, 1.0, size=(count, 2))
    if isinstance(levelset, Circle):
        # Endpoints on the circle, up to rounding: crossings at the snap limit.
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        on = np.asarray(levelset.center) + levelset.radius * np.stack(
            [np.cos(theta), np.sin(theta)], axis=-1)
        a = np.where(rng.uniform(size=(count, 1)) < 0.3, on, a)
    else:
        # Grid-like endpoints: segments through or along the line.
        a = np.where(rng.uniform(size=(count, 1)) < 0.3, np.round(a * 4) / 4, a)
        b = np.where(rng.uniform(size=(count, 1)) < 0.3, np.round(b * 4) / 4, b)
    assert np.array_equal(levelset.eval(a), levelset_eval_reference(levelset, a))
    roots = levelset.segment_crossings(a, b)
    assert roots.shape == (count, 2)
    for i in range(count):
        want = segment_crossings_reference(levelset, a[i], b[i])
        assert roots[i][~np.isnan(roots[i])].tolist() == want
        assert np.array_equal(levelset.segment_crossings(a[i], b[i]), roots[i],
                              equal_nan=True)


@st.composite
def adapted_cases(draw):
    """(problem, n, strategy): circles (some through grid vertices), the
    tilted line at alpha = 0.3 (vertex cuts at the origin) and the
    horizontal line at eps = 0 (along a grid row for even n)."""
    n = draw(st.integers(2, 24))
    h = 2.0 / n
    grid = st.integers(0, n).map(lambda i: -1.0 + i * h)
    kind = draw(st.sampled_from(["circle", "vertex_circle", "tilted", "horizontal"]))
    if kind == "circle":
        center = draw(st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)))
        levelset = Circle(center, draw(st.floats(0.1, 0.9)))
        problem = dataclasses.replace(circle_problem(), levelset=levelset)
    elif kind == "vertex_circle":
        levelset = Circle((draw(grid), draw(grid)), draw(st.integers(1, n)) * h)
        problem = dataclasses.replace(circle_problem(), levelset=levelset)
    elif kind == "tilted":
        problem = tilted_problem(0.3)
    else:
        problem = horizontal_problem(0.0, h)
    return problem, n, draw(st.integers(1, 3))


def _assert_same_classification(got, want, mesh):
    """Equal cut codes, and equal crossed edges and crossings in the same
    order. The oracle's crossed edges are int64; ``classify_all``'s are of
    the mesh's index type."""
    for name in ("code", "crossed_edges", "crossing_t"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
    assert got.code.dtype == want.code.dtype
    assert got.crossing_t.dtype == want.crossing_t.dtype
    assert got.crossed_edges.dtype == index_dtype(mesh.n_vertices + mesh.n_edges)


def check_adapted_mesh(problem, n, strategy):
    """Classification (or the RefinementRequired patch and reason), the
    subtriangle geometry, angles, assembly and error norms all equal the
    patch-major oracles bit for bit."""
    mesh = build_structured_mesh(n, problem.domain)
    try:
        want = classify_all_reference(mesh, problem.levelset)
    except RefinementRequired as exc:
        with pytest.raises(RefinementRequired) as got:
            classify_all(mesh, problem.levelset)
        assert (got.value.patch_id, got.value.reason) == (exc.patch_id, exc.reason)
        return None
    classification = classify_all(mesh, problem.levelset)
    _assert_same_classification(classification, want, mesh)

    resolve_edge_params(mesh, classification, strategy)
    configs = build_configs(mesh, classification, problem.levelset)
    tris, areas, grads = patch_major_geometry(mesh, configs.topology())
    table = configs.table
    assert configs.shape.dtype == np.int32
    for got in (table.tris, table.areas, table.grads):
        assert got.T.flags.c_contiguous  # components outermost, shapes innermost
    # Each shape is stored from its lowest patch.
    ids, lowest = np.unique(configs.shape, return_index=True)
    assert np.array_equal(ids, np.arange(len(table)))
    assert np.array_equal(table.tris, tris[lowest])
    assert np.array_equal(table.areas[configs.shape], areas)
    assert np.array_equal(table.grads[configs.shape], grads)
    gathered = gather_triangles(mesh.node_planes(),
                                mesh.subtriangle_nodes(slice(None), configs.topology()))
    assert gathered.T.flags.c_contiguous
    assert np.array_equal(gathered, tris)
    angles = interior_angles_reference(tris)
    audit = max_angle_audit(mesh, configs)
    assert np.array_equal(audit.per_patch, angles.reshape(mesh.n_patches, -1).max(axis=1))
    assert np.array_equal(audit.histogram, np.histogram(angles, bins=audit.bin_edges)[0])
    assert audit.global_max == angles.max()

    system = assemble(mesh, configs, problem)
    matrix, rhs = assemble_reference(mesh, configs, problem)
    assert_same_matrix(system.matrix, matrix)
    assert np.array_equal(system.rhs, rhs)
    u_h = np.random.default_rng(n).standard_normal(system.n_dof)
    assert error_norms(mesh, configs, problem, u_h) == error_norms_reference(
        mesh, configs, problem, u_h)
    return classification


@SETTINGS
@given(case=adapted_cases())
def test_adapted_meshes_equal_patch_major(case):
    check_adapted_mesh(*case)


@pytest.mark.parametrize(
    "problem, n, vertex_cuts",
    [(circle_problem(), 16, True), (tilted_problem(0.3), 16, True),
     (horizontal_problem(0.0, 2.0 / 16), 16, False)],
    ids=["circle", "tilted", "horizontal"],
)
def test_fixed_adapted_meshes_equal_patch_major(problem, n, vertex_cuts):
    classification = check_adapted_mesh(problem, n, 2)
    assert bool(np.any(classification.code >= 4)) == vertex_cuts


def _circle(center, radius):
    return dataclasses.replace(circle_problem(), levelset=Circle(center, radius))


@pytest.mark.parametrize(
    "problem, n, patch, reason",
    [
        (circle_problem(), 12, 59, "vertex cut with crossing on adjacent edge"),
        (_circle((-0.1533471020548487, 0.6554051876408835), 0.17943434424448684), 6, 64,
         "interface enters and leaves through one edge"),
        (_circle((0.4000000000000002, -0.6), 0.6000000000000001), 5, 8,
         "more than two boundary cut points"),
    ],
    ids=["adjacent-edge", "one-edge-twice", "three-points"],
)
def test_refinement_patch_and_reason_equal_patch_major(problem, n, patch, reason):
    assert check_adapted_mesh(problem, n, 2) is None
    with pytest.raises(RefinementRequired) as exc:
        classify_all(build_structured_mesh(n, problem.domain), problem.levelset)
    assert (exc.value.patch_id, exc.value.reason) == (patch, reason)


def test_crossing_next_to_a_hit_vertex_belongs_to_the_vertex():
    # A large circle through (1 - 5e-10, 0) that leaves the unit patch through
    # the edge opposite vertex 1 at a shallow angle: |phi| at vertex 1 is below
    # the snap tolerance and the root on edge 0 lies 5e-10 from it, inside the
    # 1e-9 band that hands it to the vertex.
    theta, radius = 0.2, 1e3
    center = np.array([1.0 - 5e-10, 0.0]) + radius * np.array([np.sin(theta), np.cos(theta)])
    circle = Circle(tuple(center), radius)
    mesh = PatchMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1), (1, 2), (0, 2)],
                     [True] * 3, [(0, 1, 2)], [(0, 1, 2)])
    assert 1.0 - 1e-9 < circle.segment_crossings([0.0, 0.0], [1.0, 0.0])[0] < 1.0 - 1e-10
    got, want = classify_all(mesh, circle), classify_all_reference(mesh, circle)
    assert got.cuts.tolist() == [CutClass("vertex_edge", (2,), 1)]
    _assert_same_classification(got, want, mesh)


class _ScaledCircle:
    """The zero set of ``circle`` with four times its values: not a signed
    distance, so no distance bound may prune patches."""

    def __init__(self, circle):
        self.circle = circle

    def eval(self, points):
        return 4.0 * np.asarray(self.circle.eval(points))

    def segment_crossings(self, a, b):
        return self.circle.segment_crossings(a, b)


def test_classification_needs_no_signed_distance():
    circle = Circle((0.13769793659039903, 0.026174994879253732), 0.6740289695151073)
    mesh = build_structured_mesh(12)
    # No vertex lies within the snap tolerance of the circle, where scaling
    # phi would change which vertices are hit.
    assert not np.any(np.abs(circle.eval(mesh.vertices)) <= SNAP_TOL * mesh.h_max)
    want = classify_all(mesh, circle)
    got = classify_all(mesh, _ScaledCircle(circle))
    _assert_same_classification(got, want, mesh)
    # Some cut patch has every vertex farther than a quarter diameter from
    # the circle: a distance prefilter on the scaled values would skip it.
    phi = np.abs(circle.eval(mesh.vertices))[mesh.patches[want.cut_ids]]
    assert np.any(phi.min(axis=1) > mesh.patch_diameters()[want.cut_ids] / 4.0)
