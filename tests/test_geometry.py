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

from helpers import (
    bisect_reach_time,
    full_hull_union_estimate,
    lens_union_area,
    quad_disk_rect,
    quad_ellipse_rect,
)

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

    def test_nan_time_rejected(self):
        circ = CircularModel(1.0)
        for fronts in (
            [(Point(5, 5), circ, math.nan)],
            [(Point(5, 5), circ, math.nan), (Point(5.5, 5), circ, math.nan)],
        ):
            with pytest.raises(DomainError):
                burned_union_area(fronts, REGION)

    def test_bad_tol_rejected(self):
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                burned_union_area([(Point(5, 5), CircularModel(1.0), 1.0)], REGION, tol=tol)


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

    @staticmethod
    def _hull(fronts):
        boxes = [geometry._clip_box(m.bounding_box(p, t), REGION) for p, m, t in fronts]
        boxes = [b for b in boxes if b is not None]
        return (
            min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes),
        )

    @classmethod
    def _random_group(cls, rng, i):
        """Two or three fronts of one model that overlap or nearly do, with
        their clipped hull in REGION; every fourth group has one front
        narrower than a cell of the coarsest grid."""
        if i % 2:
            model = CircularModel(0.5 + rng.random())
        else:
            model = EllipticalModel(
                0.5 + rng.random(), 1 + 3 * rng.random(), 1 + 2 * rng.random(),
                2 * math.pi * rng.random(),
            )
        k = 2 + i % 3 // 2
        t0 = 0.2 + 2 * rng.random()
        times = [t0] * k if i % 3 else [t0 * (0.3 + rng.random()) for _ in range(k)]
        if i % 4 == 1:
            times[-1] = 1e-3 * rng.random()
        centre = rng.random(2) * 10
        fronts = [
            (Point(*np.clip(centre + (rng.random(2) - 0.5) * 2 * t0, 0, 10)), model, t)
            for t in times
        ]
        return fronts, cls._hull(fronts)

    @classmethod
    def _mixed_group(cls, rng, i):
        """Two or three fronts of two models in every other group, with a
        front at t = 0 in every other pair of groups (a circular one still
        covers its ignition). The elliptical fronts are tilted and elongated,
        so their leftmost and rightmost points lie inside a row's strip."""
        models = [
            CircularModel(0.5 + rng.random()) if j % 2 else EllipticalModel(
                0.5 + rng.random(), 1.5 + 3 * rng.random(), 1.5 + 2 * rng.random(),
                0.1 + 1.4 * rng.random() + math.pi * int(rng.integers(4)) / 2,
            )
            for j in range(1 + i % 2)
        ]
        t0 = 0.2 + 2 * rng.random()
        times = [t0, t0 * (0.3 + rng.random()), t0][: 2 + i % 3 // 2]
        if i % 4 >= 2:
            times[i % 2] = 0.0  # an elliptical front, then a circular one
        centre = rng.random(2) * 10
        fronts = [
            (Point(*np.clip(centre + (rng.random(2) - 0.5) * 2 * t0, 0, 10)), models[j % len(models)], t)
            for j, t in enumerate(times)
        ]
        return fronts, cls._hull(fronts)

    def test_matches_every_point_sampler_bit_for_bit(self, monkeypatch):
        grids = set()
        jitter = geometry._jitter
        monkeypatch.setattr(
            geometry, "_jitter", lambda cells, n, seed: grids.add(n) or jitter(cells, n, seed)
        )
        rng = np.random.Generator(np.random.Philox(key=[47, 0]))
        cases = []
        for i in range(200):
            cases.append(self._random_group(rng, i) + (1e-2, int(rng.integers(2**63))))
        for i in range(120):
            cases.append(self._mixed_group(rng, i) + (1e-2, int(rng.integers(2**63))))
        # A tolerance that only grids of 1024 cells a side and more meet.
        for i in range(4):
            cases.append(self._random_group(rng, 2 * i) + (1e-4, int(rng.integers(2**63))))
        for fronts, hull, tol, seed in cases:
            assert geometry._stratified_union_area(fronts, hull, tol, seed) == (
                full_hull_union_estimate(fronts, hull, tol, seed)
            ), (fronts, hull, tol, seed)
        assert max(grids) >= 1024

    def test_box_edges_on_cell_boundaries(self):
        # A 4x4 hull has cells of 1/16 at the coarsest grid: the 1.5-radius
        # front's box is the hull, the others' edges lie on cell boundaries.
        circ = CircularModel(1.0)
        fronts = [(Point(2.0, 2.0), circ, 1.5), (Point(1.0, 1.0), circ, 0.5),
                  (Point(3.0, 2.5), circ, 1.0)]
        for tol, seed in ((1e-3, 3), (1e-2, 4), (1e-4, 5)):
            got = geometry._stratified_union_area(fronts, (0.5, 0.5, 3.5, 3.5), tol, seed)
            assert got == full_hull_union_estimate(fronts, (0.5, 0.5, 3.5, 3.5), tol, seed)

    def test_point_fronts_on_rounded_cell_edges(self):
        # Far from the origin the jittered points round onto the grid's cell
        # edges, so a point front on an edge is hit from the cells on both
        # sides of it. A tolerance no estimate meets refines to 4096 a side.
        x0 = 2.0**40
        hull = (x0, x0, x0 + 1.0, x0 + 1.0)
        circ = CircularModel(1.0)
        fronts = [(Point(x0 + 0.5, x0 + 0.5), circ, 0.3)] + [
            (Point(x0 + i / 64, x0 + (i + 3) / 64), circ, 0.0) for i in range(4, 61, 8)
        ]
        got = geometry._stratified_union_area(fronts, hull, 1e-15, 9)
        assert got == full_hull_union_estimate(fronts, hull, 1e-15, 9)


class TestFrontsThatMeet:
    """Fronts of one model are grouped only when they meet, with the
    sampler patched to fail wherever no sample may be drawn."""

    @staticmethod
    def _no_sampler(monkeypatch):
        def fail(*args):
            raise AssertionError("fronts that do not meet reached the sampler")

        monkeypatch.setattr(geometry, "_stratified_union_area", fail)

    @staticmethod
    def _record_sampler(monkeypatch):
        calls = []

        def record(fronts, box, tol, seed):
            calls.append((fronts, box))
            return 0.0

        monkeypatch.setattr(geometry, "_stratified_union_area", record)
        return calls

    def test_side_by_side_ellipses_give_their_exact_clips(self, monkeypatch):
        self._no_sampler(monkeypatch)
        ell = EllipticalModel(1.0, 2.0, 4.0, 0.7)
        beside = Point(1.0 - 0.8 * math.sin(0.7), 5.0 + 0.8 * math.cos(0.7))
        fronts = [(Point(1.0, 5.0), ell, 1.5), (beside, ell, 1.5)]
        assert geometry._boxes_touch(*(ell.bounding_box(p, t) for p, _, t in fronts))
        want = [ell.clipped_area_exact(p, t, REGION) for p, _, t in fronts]
        assert want[1] < ell.area(1.5)  # the second front crosses the region's edge
        assert burned_union_area(fronts, REGION) == sum(want)

    def test_one_model_at_two_times(self, monkeypatch):
        # The later front, ignited 1.1 ahead on the heading, has drifted
        # ahead: its back is 0.5 behind its ignition, the earlier front's
        # head 0.5 ahead of its own, so a gap of 0.1 is left between them.
        self._no_sampler(monkeypatch)
        ell = EllipticalModel(1.0, 4.0, 2.0, 0.7)
        ahead = Point(3.0 + 1.1 * math.cos(0.7), 3.0 + 1.1 * math.sin(0.7))
        fronts = [(Point(3.0, 3.0), ell, 0.5), (ahead, ell, 2.0)]
        assert geometry._boxes_touch(*(ell.bounding_box(p, t) for p, _, t in fronts))
        assert burned_union_area(fronts, REGION) == ell.area(0.5) + ell.area(2.0)

    def test_a_chain_samples_only_the_pair_that_meets(self, monkeypatch):
        calls = self._record_sampler(monkeypatch)
        circ = CircularModel(1.0)
        a, b, c = [(Point(x, y), circ, 1.0) for x, y in ((3.5, 5.0), (5.0, 5.0), (6.6, 6.6))]
        # C's box touches B's, but C is 2.26 from B and 3.49 from A.
        assert geometry._boxes_touch(circ.bounding_box(b[0], 1.0), circ.bounding_box(c[0], 1.0))
        got = burned_union_area([a, b, c], REGION)
        assert calls == [([a, b], (2.5, 4.0, 6.0, 6.0))]
        assert got == circ.area(1.0)

    def test_fronts_of_two_models_keep_box_grouping(self, monkeypatch):
        # The ellipse lies within 0.75 of its centre, about (6.5, 3.6) and 2.06
        # from the circle's: the fronts do not meet, but their boxes touch.
        calls = self._record_sampler(monkeypatch)
        circ, ell = CircularModel(1.0), EllipticalModel(1.0, 2.0, 4.0, 0.7)
        fronts = [(Point(5.0, 5.0), circ, 1.0), (Point(6.3, 3.44), ell, 1.0)]
        assert geometry._boxes_touch(*(m.bounding_box(p, t) for p, m, t in fronts))
        burned_union_area(fronts, REGION)
        assert [f for f, _ in calls] == [fronts]

    def test_fronts_said_apart_share_no_point(self, monkeypatch):
        calls = self._record_sampler(monkeypatch)
        region = RectRegion(100.0, 100.0)
        rng = np.random.Generator(np.random.Philox(key=[53, 0]))
        apart = 0
        for i in range(300):
            rate = 0.5 + rng.random()
            if i % 2:
                model = CircularModel(rate)
            else:
                model = EllipticalModel(
                    rate, 1 + 3 * rng.random(), 1 + 3 * rng.random(), 2 * math.pi * rng.random()
                )
            t1, t2 = 0.2 + 2 * rng.random(), 0.2 + 2 * rng.random()
            p1 = Point(*(45 + 10 * rng.random(2)))
            p2 = Point(*(np.array([p1.x, p1.y]) + (rng.random(2) - 0.5) * 2 * rate * (t1 + t2)))
            boxes = [model.bounding_box(p1, t1), model.bounding_box(p2, t2)]
            calls.clear()
            burned_union_area([(p1, model, t1), (p2, model, t2)], region)
            if calls or not geometry._boxes_touch(*boxes):
                continue
            apart += 1
            x0, y0 = max(boxes[0][0], boxes[1][0]), max(boxes[0][1], boxes[1][1])
            x1, y1 = min(boxes[0][2], boxes[1][2]), min(boxes[0][3], boxes[1][3])
            gx, gy = np.meshgrid(np.linspace(x0, x1, 300), np.linspace(y0, y1, 300))
            both = model.covers(p1, t1, gx, gy) & model.covers(p2, t2, gx, gy)
            assert not both.any(), (i, model, p1, t1, p2, t2)
        assert apart >= 50
