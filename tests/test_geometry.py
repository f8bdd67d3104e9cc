import math
import tracemalloc

import numpy as np
import pytest

from firewatch import geometry
from firewatch.errors import DomainError, ParameterError
from firewatch.geometry import (
    Point,
    RectRegion,
    burned_union_area,
    disk_rect_area,
    ellipse_reach_time,
)
from firewatch.propagation import CircularModel, EllipticalModel

from helpers import bisect_reach_time, lens_union_area, quad_disk_rect, quad_ellipse_rect

REGION = RectRegion(10.0, 10.0)


class TestContains:
    def test_interior(self):
        assert REGION.contains(Point(5, 5))

    def test_boundary_is_inside(self):
        assert REGION.contains(Point(10, 10))
        assert REGION.contains(Point(0, 0))

    def test_outside(self):
        assert not REGION.contains(Point(-0.1, 5))
        assert not REGION.contains(Point(5, 10.1))


class TestRegionValidation:
    def test_bad_sides(self):
        with pytest.raises(ParameterError):
            RectRegion(0.0, 5.0)
        with pytest.raises(ParameterError):
            RectRegion(5.0, -1.0)

    def test_point_must_be_finite(self):
        with pytest.raises(ParameterError):
            Point(math.nan, 0.0)


class TestEllipseReachTime:
    def test_circular_limit_is_distance_over_rate(self):
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        for _ in range(100):
            rate = 0.5 + 3 * rng.random()
            heading = rng.random() * 7
            ign = Point(rng.random() * 4 - 2, rng.random() * 4 - 2)
            tgt = Point(rng.random() * 4 - 2, rng.random() * 4 - 2)
            t = ellipse_reach_time(rate, 1.0, 1.0, heading, ign, tgt)
            expect = ign.distance_to(tgt) / rate
            assert t == pytest.approx(expect, rel=1e-12)

    def test_straight_ahead_moves_at_head_rate(self):
        t = ellipse_reach_time(2.0, 3.0, 2.0, 0.0, Point(0, 0), Point(5, 0))
        assert t == pytest.approx(2.5, rel=1e-12)

    def test_straight_behind_moves_at_back_rate(self):
        # Back rate is rate / hb; cross-checked against the membership oracle.
        t = ellipse_reach_time(1.0, 2.0, 1.5, 0.0, Point(0, 0), Point(-3, 0))
        assert t == pytest.approx(6.0, rel=1e-12)
        oracle = bisect_reach_time(1.0, 2.0, 1.5, 0.0, Point(0, 0), Point(-3, 0))
        assert t == pytest.approx(oracle, rel=1e-9)

    def test_abeam_matches_bisection(self):
        t = ellipse_reach_time(1.0, 2.0, 2.0, 0.0, Point(0, 0), Point(0, 1.0))
        oracle = bisect_reach_time(1.0, 2.0, 2.0, 0.0, Point(0, 0), Point(0, 1.0))
        assert t == pytest.approx(oracle, rel=1e-9)

    def test_random_cases_match_bisection(self):
        rng = np.random.Generator(np.random.Philox(key=[17, 0]))
        for _ in range(200):
            rate = 0.5 + 3 * rng.random()
            hb = 1.0 + 4 * rng.random()
            lb = 1.0 + 3 * rng.random()
            heading = rng.random() * 2 * math.pi
            ign = Point(rng.random() * 10 - 5, rng.random() * 10 - 5)
            tgt = Point(ign.x + rng.random() * 8 - 4, ign.y + rng.random() * 8 - 4)
            t = ellipse_reach_time(rate, hb, lb, heading, ign, tgt)
            oracle = bisect_reach_time(rate, hb, lb, heading, ign, tgt)
            assert t == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_target_at_ignition(self):
        assert ellipse_reach_time(1.0, 2.0, 2.0, 0.3, Point(1, 1), Point(1, 1)) == 0.0

    def test_homogeneous_in_displacement(self):
        rng = np.random.Generator(np.random.Philox(key=[23, 0]))
        for _ in range(50):
            dx, dy = rng.random() * 4 - 2, rng.random() * 4 - 2
            s = 0.1 + rng.random() * 5
            t1 = ellipse_reach_time(1.3, 2.5, 1.7, 0.9, Point(0, 0), Point(dx, dy))
            t2 = ellipse_reach_time(1.3, 2.5, 1.7, 0.9, Point(0, 0), Point(s * dx, s * dy))
            assert t2 == pytest.approx(s * t1, rel=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ellipse_reach_time(0.0, 1.0, 1.0, 0.0, Point(0, 0), Point(1, 0))
        with pytest.raises(ParameterError):
            ellipse_reach_time(1.0, 0.5, 1.0, 0.0, Point(0, 0), Point(1, 0))
        with pytest.raises(ParameterError):
            ellipse_reach_time(1.0, 1.0, 0.9, 0.0, Point(0, 0), Point(1, 0))


class TestDiskRectArea:
    def test_exact_symmetric_cases(self):
        assert disk_rect_area(Point(5, 5), 1.0, REGION) == pytest.approx(math.pi, abs=1e-12)
        assert disk_rect_area(Point(0, 5), 1.0, REGION) == pytest.approx(math.pi / 2, abs=1e-12)
        assert disk_rect_area(Point(0, 0), 1.0, REGION) == pytest.approx(math.pi / 4, abs=1e-12)
        assert disk_rect_area(Point(-5, -5), 1.0, REGION) == 0.0
        assert disk_rect_area(Point(5, 5), 50.0, REGION) == pytest.approx(100.0, abs=1e-9)

    def test_zero_radius(self):
        assert disk_rect_area(Point(5, 5), 0.0, REGION) == 0.0

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            disk_rect_area(Point(5, 5), -1.0, REGION)

    def test_against_quadrature(self):
        rng = np.random.Generator(np.random.Philox(key=[31, 0]))
        for _ in range(150):
            w, h = rng.random() * 10 + 0.5, rng.random() * 10 + 0.5
            cx, cy = rng.random() * 14 - 2, rng.random() * 14 - 2
            r = rng.random() * 6 + 1e-3
            got = disk_rect_area(Point(cx, cy), r, RectRegion(w, h))
            want = quad_disk_rect(cx, cy, r, w, h)
            assert got == pytest.approx(want, abs=1e-4)


class TestBurnedUnionArea:
    def test_empty_front_list(self):
        assert burned_union_area([], REGION) == 0.0

    def test_single_interior_disk(self):
        circ = CircularModel(rate=1.0)
        a = burned_union_area([(Point(5, 5), circ, 2.0)], REGION)
        assert a == pytest.approx(4 * math.pi, rel=1e-12)

    def test_two_disjoint_disks(self):
        circ = CircularModel(rate=1.0)
        fronts = [(Point(2, 2), circ, 1.0), (Point(8, 8), circ, 1.0)]
        assert burned_union_area(fronts, REGION) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_two_circle_lens(self):
        # Overlapping pair exercises the stratified sampler; expected value
        # from the closed-form lens area with centers one radius apart.
        circ = CircularModel(rate=1.0)
        fronts = [(Point(4, 5), circ, 1.0), (Point(5, 5), circ, 1.0)]
        got = burned_union_area(fronts, REGION, tol=1e-3)
        assert got == pytest.approx(lens_union_area(1.0, 1.0), rel=1e-3)

    def test_half_disk_on_boundary(self):
        circ = CircularModel(rate=1.0)
        a = burned_union_area([(Point(0, 5), circ, 2.0)], REGION)
        assert a == pytest.approx(2 * math.pi, rel=1e-6)

    def test_clipped_disk_matches_closed_form(self):
        circ = CircularModel(rate=1.5)
        ign = Point(0.7, 9.4)
        a = burned_union_area([(ign, circ, 1.2)], REGION)
        assert a == pytest.approx(disk_rect_area(ign, 1.8, REGION), rel=1e-9)

    def test_clipped_ellipse_matches_quadrature_scale(self):
        # Exact-clip path: ellipse sticking out of the region; oracle is a
        # fine midpoint grid of the membership predicate (its own error is
        # about 6e-4 here).
        ell = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=2.0, heading=2.1)
        ign = Point(0.3, 5.0)
        t = 1.4
        got = burned_union_area([(ign, ell, t)], REGION, tol=1e-3)
        n = 2500
        xs = (np.arange(n) + 0.5) * (3.0 / n) - 1.0  # covers [-1, 2] x [3, 7]
        ys = (np.arange(n) + 0.5) * (4.0 / n) + 3.0
        gx, gy = np.meshgrid(xs, ys)
        inside = ell.covers(ign, t, gx, gy) & (gx >= 0)
        want = inside.mean() * 12.0
        assert got == pytest.approx(want, rel=1e-3)

    def test_monotone_in_time_and_bounded_by_region(self):
        ell = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=1.5, heading=0.7)
        fronts = lambda t: [(Point(1, 1), ell, t), (Point(3, 2), ell, t)]
        prev = 0.0
        for t in [0.5, 1.0, 2.0, 4.0, 8.0, 30.0]:
            a = burned_union_area(fronts(t), REGION, tol=1e-3)
            assert a >= prev - 1e-3 * max(prev, 1.0)
            assert a <= REGION.area + 1e-9
            prev = a
        assert prev == pytest.approx(REGION.area, rel=1e-3)

    def test_deterministic_for_fixed_seed(self):
        circ = CircularModel(rate=1.0)
        fronts = [(Point(4, 5), circ, 1.0), (Point(5, 5), circ, 1.0)]
        a1 = burned_union_area(fronts, REGION, seed=7)
        a2 = burned_union_area(fronts, REGION, seed=7)
        a3 = burned_union_area(fronts, REGION, seed=8)
        assert a1 == a2
        assert a1 == pytest.approx(a3, rel=1e-3)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            burned_union_area([(Point(5, 5), CircularModel(1.0), -1.0)], REGION)

    def test_bad_tol_rejected(self):
        with pytest.raises(ParameterError):
            burned_union_area([(Point(5, 5), CircularModel(1.0), 1.0)], REGION, tol=0.0)


class TestEllipseClip:
    def test_against_chord_quadrature(self):
        rng = np.random.Generator(np.random.Philox(key=[41, 0]))
        for i in range(200):
            w, h = rng.random() * 10 + 0.5, rng.random() * 10 + 0.5
            rate = 0.5 + 2 * rng.random()
            hb = 1.0 + 4 * rng.random()
            lb = 1.0 + 3 * rng.random()
            heading = rng.random() * 2 * math.pi
            t = 10 ** rng.uniform(-4, math.log10(20))
            if i % 2:
                ign = Point(rng.random() * w, rng.random() * h)
            else:  # near a corner, so that small fronts are clipped too
                reach = rate * t
                ign = Point(min(w, rng.random() * reach), min(h, rng.random() * reach))
            model = EllipticalModel(rate, hb, lb, heading)
            got = model.clipped_area_exact(ign, t, RectRegion(w, h))
            want = quad_ellipse_rect(rate, hb, lb, heading, ign, t, w, h)
            assert got == pytest.approx(want, rel=1e-8)

    def test_unit_ratios_match_disk_rect_area(self):
        rng = np.random.Generator(np.random.Philox(key=[43, 0]))
        for _ in range(100):
            ign = Point(rng.random() * 12 - 1, rng.random() * 12 - 1)
            t = rng.random() * 8 + 1e-3
            model = EllipticalModel(1.3, 1.0, 1.0, rng.random() * 7)
            got = model.clipped_area_exact(ign, t, REGION)
            assert got == pytest.approx(disk_rect_area(ign, 1.3 * t, REGION), rel=1e-12, abs=1e-14)

    def test_interior_ellipse_gives_full_area(self):
        model = EllipticalModel(1.0, 3.0, 2.5, 0.8)
        assert model.clipped_area_exact(Point(4, 5), 1.5, REGION) == pytest.approx(
            model.area(1.5), rel=1e-12
        )

    def test_zero_time(self):
        model = EllipticalModel(1.0, 2.0, 2.0, 0.3)
        assert model.clipped_area_exact(Point(0, 0), 0.0, REGION) == 0.0

    def test_lone_clipped_ellipse_is_not_sampled(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a lone front reached the sampler")

        monkeypatch.setattr(geometry, "_stratified_union_area", fail)
        ell = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=2.0, heading=2.1)
        fronts = [(Point(0.3, 5.0), ell, 1.4), (Point(9.9, 9.0), ell, 0.5)]
        got = burned_union_area(fronts, REGION)
        want = [ell.clipped_area_exact(ign, t, REGION) for ign, _, t in fronts]
        assert want[1] < ell.area(0.5)
        assert got == pytest.approx(sum(want), rel=1e-15)


class TestSampler:
    FRONTS = [
        (Point(1.0, 1.5), EllipticalModel(1.0, 2.0, 2.0, 0.7), 1.2),
        (Point(2.0, 1.0), EllipticalModel(1.0, 2.0, 2.0, 0.7), 1.2),
    ]

    def test_block_size_does_not_change_estimate(self, monkeypatch):
        got = []
        for block in (1 << 10, 1 << 21):
            monkeypatch.setattr(geometry, "_SAMPLER_BLOCK", block)
            got.append(burned_union_area(self.FRONTS, REGION, tol=1e-4, seed=5))
        assert got[0] == got[1]

    def test_finest_grid_allocates_little(self):
        # A tolerance no estimate meets refines the grid up to 4096 a side.
        box = (0.0, 0.0, 4.0, 4.0)
        tracemalloc.start()
        try:
            geometry._stratified_union_area(self.FRONTS, box, 1e-15, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
