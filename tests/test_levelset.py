"""Unit tests for the implicit interface descriptions."""

import numpy as np
import pytest

from patchfem.levelset import Circle, HorizontalLine, TiltedLine

from .oracles import vertex_hit

NAN = float("nan")


class TestEval:
    def test_circle_center(self):
        assert Circle((0, 0), 0.5).eval([0.0, 0.0]) == -0.5

    def test_horizontal_on_interface(self):
        assert HorizontalLine(0.25).eval([3.0, 0.25]) == 0.0

    def test_tilted_quarter_turn(self):
        # cos(pi/2)*0 - sin(pi/2)*1 = -1
        assert TiltedLine(np.pi / 2).eval([1.0, 0.0]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("ls", [Circle((0, 0), 0.5), TiltedLine(0.3),
                                    HorizontalLine(0.1)])
    def test_one_point_gives_a_0d_array(self, ls):
        assert ls.eval([0.2, 0.3]).shape == ()

    def test_vectorized(self):
        ls = Circle((0, 0), 0.5)
        pts = np.array([[0, 0], [1, 0], [0.5, 0]])
        assert np.allclose(ls.eval(pts), [-0.5, 0.5, 0.0])


class TestSegmentCrossings:
    """One segment gives its two sorted roots, NaN where there is none."""

    def test_circle_single_crossing(self):
        ts = Circle((0, 0), 0.5).segment_crossings([0.4, 0.0], [0.6, 0.0])
        assert ts == pytest.approx([0.5, NAN], nan_ok=True)

    def test_horizontal_crossing(self):
        ts = HorizontalLine(0.25).segment_crossings([0.0, 0.0], [0.0, 1.0])
        assert ts == pytest.approx([0.25, NAN], nan_ok=True)

    def test_circle_two_crossings(self):
        # chord at height 0.3: x = +-0.4, so t = 1/6 and 5/6
        ts = Circle((0, 0), 0.5).segment_crossings([-0.6, 0.3], [0.6, 0.3])
        assert ts == pytest.approx([1 / 6, 5 / 6])

    def test_no_crossing(self):
        ts = Circle((0, 0), 0.5).segment_crossings([0.6, 0.6], [0.9, 0.9])
        assert ts == pytest.approx([NAN, NAN], nan_ok=True)

    def test_tangent_does_not_cross(self):
        ts = Circle((0, 0), 0.5).segment_crossings([-1.0, 0.5], [1.0, 0.5])
        assert ts == pytest.approx([NAN, NAN], nan_ok=True)

    def test_segment_on_line_yields_nothing(self):
        ts = HorizontalLine(0.0).segment_crossings([0.0, 0.0], [1.0, 0.0])
        assert ts == pytest.approx([NAN, NAN], nan_ok=True)

    def test_endpoint_crossing_snapped(self):
        ts = HorizontalLine(0.0).segment_crossings([0.0, 0.0], [0.0, 1.0])
        assert ts == pytest.approx([NAN, NAN], nan_ok=True)

    @pytest.mark.parametrize(
        "ls",
        [
            Circle((0.1, -0.2), 0.45),
            TiltedLine(0.7),
            HorizontalLine(0.13),
        ],
    )
    def test_root_accuracy_random_segments(self, ls):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 10_000:
            a, b = rng.uniform(-1, 1, size=(2, 2))
            seg_len = np.linalg.norm(b - a)
            if seg_len < 1e-3:
                continue
            ts = ls.segment_crossings(a, b)
            for t in ts[~np.isnan(ts)]:
                x = (1 - t) * a + t * b
                assert abs(ls.eval(x)) <= 1e-12 * seg_len
            checked += 1

    def test_line_at_most_one_crossing(self):
        rng = np.random.default_rng(6)
        ls = TiltedLine(1.1)
        for _ in range(2000):
            a, b = rng.uniform(-1, 1, size=(2, 2))
            if np.linalg.norm(b - a) < 1e-6:
                continue
            assert np.isnan(ls.segment_crossings(a, b)[1])

    def test_circle_at_most_two_and_sign_consistency(self):
        rng = np.random.default_rng(8)
        ls = Circle((0, 0), 0.5)
        for _ in range(2000):
            a, b = rng.uniform(-1, 1, size=(2, 2))
            if np.linalg.norm(b - a) < 1e-6:
                continue
            ts = ls.segment_crossings(a, b)
            assert ts.shape == (2,)
            ts = ts[~np.isnan(ts)].tolist()
            # phi keeps one sign strictly between consecutive crossings
            knots = [0.0] + ts + [1.0]
            for lo, hi in zip(knots[:-1], knots[1:]):
                samples = np.linspace(lo + 1e-6, hi - 1e-6, 7)
                pts = a[None, :] + samples[:, None] * (b - a)[None, :]
                signs = np.sign(ls.eval(pts))
                signs = signs[signs != 0]
                assert len(set(signs.tolist())) <= 1


class TestVertexHit:
    def test_exact_hit(self):
        assert vertex_hit(Circle((0, 0), 0.5), [0.5, 0.0], scale=1.0)

    def test_hit_within_snap(self):
        assert vertex_hit(Circle((0, 0), 0.5), [0.5 + 1e-12, 0.0], scale=0.1)

    def test_miss(self):
        assert not vertex_hit(Circle((0, 0), 0.5), [0.6, 0.0], scale=0.1)
