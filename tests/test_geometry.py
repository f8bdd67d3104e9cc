import math
import sys
from dataclasses import astuple
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from firewatch import geometry
from firewatch.errors import DomainError, ParameterError
from firewatch.geometry import (
    Point,
    RectRegion,
    burned_union_area,
    disk_polygon_area,
    disk_rect_area,
)
from firewatch.geometry import _Ignitions
from firewatch.propagation import CircularModel, EllipticalModel

from helpers import (
    bisect_reach_time,
    exact_reach_times,
    lens_union_area,
    quad_disk_rect,
    quad_ellipse_rect,
    quad_union_rect,
    scalar_burned_union_area,
    scalar_clipped_area,
    time_to,
)

REGION = RectRegion(10.0, 10.0)


class TestRegionValidation:
    def test_bad_sides(self):
        with pytest.raises(ParameterError):
            RectRegion(0.0, 5.0)
        with pytest.raises(ParameterError):
            RectRegion(5.0, -1.0)
        with pytest.raises(ParameterError):  # finite, but too large for a float
            RectRegion(10**400, 10.0)

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
            t = time_to(EllipticalModel(rate, 1.0, 1.0, heading), ign, tgt)
            expect = math.hypot(tgt.x - ign.x, tgt.y - ign.y) / rate
            assert t == pytest.approx(expect, rel=1e-12)

    def test_straight_ahead_moves_at_head_rate(self):
        t = time_to(EllipticalModel(2.0, 3.0, 2.0, 0.0), Point(0, 0), Point(5, 0))
        assert t == pytest.approx(2.5, rel=1e-12)

    def test_straight_behind_moves_at_back_rate(self):
        # Back rate is rate / hb; cross-checked against the membership oracle.
        t = time_to(EllipticalModel(1.0, 2.0, 1.5, 0.0), Point(0, 0), Point(-3, 0))
        assert t == pytest.approx(6.0, rel=1e-12)
        oracle = bisect_reach_time(1.0, 2.0, 1.5, 0.0, Point(0, 0), Point(-3, 0))
        assert t == pytest.approx(oracle, rel=1e-9)

    def test_abeam_matches_bisection(self):
        t = time_to(EllipticalModel(1.0, 2.0, 2.0, 0.0), Point(0, 0), Point(0, 1.0))
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
            t = time_to(EllipticalModel(rate, hb, lb, heading), ign, tgt)
            oracle = bisect_reach_time(rate, hb, lb, heading, ign, tgt)
            assert t == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_target_at_ignition(self):
        assert time_to(EllipticalModel(1.0, 2.0, 2.0, 0.3), Point(1, 1), Point(1, 1)) == 0.0

    def test_homogeneous_in_displacement(self):
        rng = np.random.Generator(np.random.Philox(key=[23, 0]))
        for _ in range(50):
            dx, dy = rng.random() * 4 - 2, rng.random() * 4 - 2
            s = 0.1 + rng.random() * 5
            t1 = time_to(EllipticalModel(1.3, 2.5, 1.7, 0.9), Point(0, 0), Point(dx, dy))
            t2 = time_to(EllipticalModel(1.3, 2.5, 1.7, 0.9), Point(0, 0), Point(s * dx, s * dy))
            assert t2 == pytest.approx(s * t1, rel=1e-10)

    @pytest.mark.parametrize("hb", [1e4, 1e8, 1e12, 1e16, 1e17, 1e100])
    def test_head_and_back_exact_at_large_head_to_back_ratios(self, hb):
        # The head moves at rate, the back at rate / hb. Taken as 1 - e^2,
        # the solve's k^2 = 1 / (hb a^2) cancels here: a form that cancelled
        # so gave the back 5.4 instead of 3 at hb = 1e16, and never at 1e17.
        model = EllipticalModel(1.0, hb, 1.5, 0.0)
        times = model.reach_times(Point(0, 0), np.array([5.0, -3.0 / hb]), np.zeros(2))
        assert times[0] == pytest.approx(5.0, rel=1e-14)
        assert times[1] == pytest.approx(3.0, rel=1e-14)


    @pytest.mark.parametrize("rate", [1.0, 0.37])
    @pytest.mark.parametrize("heading", [0.0, 0.7])
    @pytest.mark.parametrize("hb", [1.0, 2.5, 1e4, 1e17, 1e100])
    @pytest.mark.parametrize("lb", [1.0, 1.7, 1e3])
    def test_within_1e_15_of_a_decimal_oracle_at_every_scale(self, lb, hb, heading, rate):
        # Distances 1e-300 to 1e300 in 16 random directions and along and
        # across the heading; a time past the largest float must be inf.
        rng = np.random.Generator(np.random.Philox(key=[29, 0]))
        theta = np.concatenate([rng.random(16) * 2 * math.pi, heading + np.arange(4) * math.pi / 2])
        d = 10.0 ** np.arange(-300, 301, 50)[:, None] * (0.5 + rng.random(theta.size))
        dx, dy = (d * np.cos(theta)).ravel(), (d * np.sin(theta)).ravel()
        dx, dy = np.append(dx, 0.0), np.append(dy, 0.0)
        model = EllipticalModel(rate, hb, lb, heading)
        got = model.reach_times(Point(0.0, 0.0), dx, dy).tolist()
        want = exact_reach_times(model, dx, dy)
        largest = Decimal(sys.float_info.max)
        for g, w in zip(got, want):
            if w > largest:
                assert g == math.inf
            else:
                assert abs(Decimal(g) - w) <= Decimal("1e-15") * w, (g, w)
        assert got[-1] == 0.0


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

    @pytest.mark.parametrize("exponent", [-500, -300, 300, 500])
    def test_scales_exactly_with_the_region(self, exponent):
        s = 2.0**exponent
        for (cx, cy), r in (((5, 5), 1.0), ((0.3, 9.1), 2.5), ((-1, 4), 3.0), ((5, 5), 50.0)):
            want = disk_rect_area(Point(cx, cy), r, REGION) * s * s
            assert disk_rect_area(Point(cx * s, cy * s), r * s, RectRegion(10 * s, 10 * s)) == want

    def test_thin_strip_far_below_unit_scale(self):
        # The disk crosses the strip: a chord of 6e-101 over its width 1e-108.
        got = disk_rect_area(Point(5e-109, 5e-101), 3e-101, RectRegion(1e-108, 1e-100))
        assert got == pytest.approx(6e-209, rel=1e-12, abs=0.0)

    def test_areas_past_the_floats_raise_nothing(self):
        # A radius whose square overflows gives NaN, which the engine rejects.
        assert math.isnan(disk_rect_area(Point(3, 4), 1e300, REGION))
        assert disk_rect_area(Point(3, 4), 5e-324, REGION) == 0.0
        assert disk_rect_area(Point(1e200, 1e200), 1e200, RectRegion(1e201, 1e201)) == math.inf


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
        # Overlapping pair takes the union routine; expected value from the
        # closed-form lens area with centers one radius apart.
        circ = CircularModel(rate=1.0)
        fronts = [(Point(4, 5), circ, 1.0), (Point(5, 5), circ, 1.0)]
        got = burned_union_area(fronts, REGION)
        assert got == pytest.approx(lens_union_area(1.0, 1.0), rel=1e-12)

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
        got = burned_union_area([(ign, ell, t)], REGION)
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
            a = burned_union_area(fronts(t), REGION)
            assert a >= prev * (1 - 1e-12)
            assert a <= REGION.area * (1 + 1e-12)
            prev = a
        assert prev == pytest.approx(REGION.area, rel=1e-12)

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

    @pytest.mark.parametrize(
        "model",
        [CircularModel(1.5), EllipticalModel(1.5), EllipticalModel(1.5, 2.0, 1.5, heading=0.7)],
        ids=["circular", "elliptical-round", "elliptical"],
    )
    def test_front_of_infinite_age(self, model):
        # Alone, its exact clip is NaN, which the engine rejects; in a group
        # it covers the region. A shared frame's centre drift c t is then
        # 0 * inf = NaN for a round front, and must change neither answer.
        inf = math.inf
        assert math.isnan(burned_union_area([(Point(3, 4), model, inf)], REGION))
        for fronts in (
            [(Point(3, 4), model, inf), (Point(5, 5), model, 1.0)],
            [(Point(3, 4), model, 1.0), (Point(9, 9), model, inf)],
        ):
            assert burned_union_area(fronts, REGION) == REGION.area

    def test_front_whose_box_misses_the_region_burns_nothing(self):
        # Its exact clip would give a few ulps (8.9e-16), not 0.
        assert burned_union_area([(Point(5, -3.2), CircularModel(1.0), 3.0)], REGION) == 0.0

    def test_front_at_time_zero_joins_no_group(self):
        # In a group with the zero front, the lone front would be measured by
        # the union routine, whose last bits differ (2.5274078042854153).
        circ = CircularModel(1.0)
        fronts = [(Point(0.2, 5), circ, 0.0), (Point(0.5, 5), circ, 1.0)]
        assert burned_union_area(fronts, REGION) == 2.5274078042854144


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
            raise AssertionError("a lone front reached the union routine")

        monkeypatch.setattr(geometry, "_union_area", fail)
        ell = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=2.0, heading=2.1)
        fronts = [(Point(0.3, 5.0), ell, 1.4), (Point(9.9, 9.0), ell, 0.5)]
        got = burned_union_area(fronts, REGION)
        want = [ell.clipped_area_exact(ign, t, REGION) for ign, _, t in fronts]
        assert want[1] < ell.area(0.5)
        assert got == pytest.approx(sum(want), rel=1e-15)


class TestArrayClip:
    """The clip measures many fronts as one array, with the bits of the
    clip's formula one Python float at a time, and so does a call for one
    front: disks and ellipses on edges and corners and clear of them, at
    radius 0, at heading 0.7, in regions scaled by 2^-300 and 2^300."""

    MODELS = (
        CircularModel(1.3),
        EllipticalModel(1.0, 2.0, 2.0, 0.7),
        EllipticalModel(0.7, 3.0, 1.5, 0.7),
    )
    # Where an ignition lies, as a share of a side: on an edge or a corner
    # when both shares are 0 or 1, else anywhere in or near the region.
    share = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.3, 1.3))

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        exponent=st.sampled_from([0, -300, 300]),
        side=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0)),
        fronts=st.lists(
            st.tuples(share, share, st.one_of(st.just(0.0), st.floats(1e-6, 30.0))),
            min_size=1, max_size=12,
        ),
    )
    def test_matches_the_scalar_formula_bit_for_bit(self, model, exponent, side, fronts):
        s = 2.0**exponent
        region = RectRegion(side[0] * s, side[1] * s)
        xs, ys, ts = (np.array(v) for v in zip(*fronts))
        xs, ys, ts = xs * region.width, ys * region.height, ts * s
        got = model.clipped_area_exact(_Ignitions(xs, ys), ts, region)
        for x, y, t, area in zip(xs.tolist(), ys.tolist(), ts.tolist(), got.tolist()):
            want = scalar_clipped_area(model, Point(x, y), t, region)
            assert area.hex() == want.hex()
            assert model.clipped_area_exact(Point(x, y), t, region).hex() == want.hex()


def _placed(model, prev, t, gap, angle):
    """The ignition of a front at ``t`` whose frame centre lies ``gap`` from
    that of the front ``prev`` = (x, y, t), towards ``angle``: the inverse of
    ``frame_centre``, (x, y) -> ((u + c rate t) / (a rate), v / (b rate)),
    with (u, v) the point turned by -heading."""
    a, b, c, cos_h, sin_h = model.shape
    fx, fy = model.frame_centre(*prev)
    u = (fx + gap * math.cos(angle)) * a * model.rate - c * model.rate * t
    v = (fy + gap * math.sin(angle)) * b * model.rate
    return u * cos_h - v * sin_h, u * sin_h + v * cos_h


@st.composite
def _blocks(draw, models):
    """A model and (rows, k) ignitions and times: each front after a row's
    first lies anywhere, on the front before it, meeting it (so that runs of
    fronts that meet form chains along the row's angle, where A meets B and
    B meets C but A misses C), or at the frame distance where the two touch."""
    model = draw(st.sampled_from(models))
    k = draw(st.integers(1, 4))
    time = st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.05, 4.0))
    how = st.sampled_from(["anywhere", "repeat", "meet", "tangent"])
    share = st.floats(-0.2, 1.2)
    front = st.tuples(how, time, share, share, st.floats(0.55, 0.95))
    rows = draw(st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi), st.lists(front, min_size=k, max_size=k)),
        min_size=1, max_size=6,
    ))
    block = np.empty((3, len(rows), k))
    for i, (angle, row) in enumerate(rows):
        for j, (kind, t, u, v, f) in enumerate(row):
            x, y, prev_t = block[:, i, j - 1].tolist()
            # Fronts at t = 0 or inf are placed as if at t = 1.
            prev_t = prev_t if 0.0 < prev_t < math.inf else 1.0
            place_t = t if 0.0 < t < math.inf else 1.0
            if j == 0 or kind == "anywhere":
                x, y = u * REGION.width, v * REGION.height
            elif kind == "repeat":
                t = block[2, i, j - 1]
            else:
                gap = (prev_t + place_t) * (f if kind == "meet" else 1.0)
                x, y = _placed(model, (x, y, prev_t), place_t, gap, angle)
            block[:, i, j] = x, y, t
    return model, block


class TestArrayUnion:
    """burned_union_area on arrays of fronts, a time per front, against the
    scalar routine of tests/helpers.py row by row, bit for bit and group for
    group: fronts at t = 0 and at t = inf, repeated fronts, chains of fronts
    that meet and pairs that nearly touch."""

    MODELS = (
        CircularModel(1.3),
        EllipticalModel(1.0, 2.0, 2.0, 0.7),
        EllipticalModel(0.7, 3.0, 1.5, 2.0),
    )

    @staticmethod
    def _recorded(monkeypatch):
        union, groups = geometry._union_area, []

        def record(fronts, region):
            groups.append([(p.x, p.y, t) for p, _, t in fronts])
            return union(fronts, region)

        monkeypatch.setattr(geometry, "_union_area", record)
        return groups

    @settings(max_examples=150, deadline=None)
    @given(case=_blocks(MODELS), bad=st.tuples(st.floats(0, 1), st.sampled_from([-1.0, math.nan])))
    def test_matches_the_scalar_routine_row_by_row(self, case, bad):
        model, (xs, ys, ts) = case
        rows, k = ts.shape
        with pytest.MonkeyPatch.context() as monkeypatch:
            groups = self._recorded(monkeypatch)
            got = burned_union_area(
                [(_Ignitions(xs[:, j], ys[:, j]), model, ts[:, j]) for j in range(k)], REGION
            )
            assert got.shape == (rows,)
            array_groups, want_groups = groups[:], []
            for i in range(rows):
                fronts = [(Point(x, y), model, t) for x, y, t in
                          zip(xs[i].tolist(), ys[i].tolist(), ts[i].tolist())]
                groups.clear()
                want = scalar_burned_union_area(fronts, REGION)
                want_groups += groups
                assert float(got[i]).hex() == want.hex(), (i, fronts)
                assert burned_union_area(fronts, REGION).hex() == want.hex()
        assert array_groups == want_groups

        # One bad time anywhere, or a second model, fails the whole call.
        i, j = divmod(int(bad[0] * (rows * k - 1)), k)
        wrong = ts.copy()
        wrong[i, j] = bad[1]
        with pytest.raises(DomainError):
            burned_union_area([(_Ignitions(xs[:, j], ys[:, j]), model, wrong[:, j])
                               for j in range(k)], REGION)
        # So does one ignition coordinate that is not finite, whether or not
        # its front would meet another.
        wrong = ys.copy()
        wrong[i, j] = math.nan
        with pytest.raises(ParameterError, match="must be finite"):
            burned_union_area([(_Ignitions(xs[:, j], wrong[:, j]), model, ts[:, j])
                               for j in range(k)], REGION)
        if k > 1:
            other = self.MODELS[(self.MODELS.index(model) + 1) % len(self.MODELS)]
            with pytest.raises(ParameterError, match="one spread model"):
                burned_union_area([(_Ignitions(xs[:, j], ys[:, j]), other if j else model,
                                    ts[:, j]) for j in range(k)], REGION)

    def test_a_chain_is_one_group(self, monkeypatch):
        # A meets B and B meets C, 1.8 apart at t = 1, but A is 3.6 from C:
        # the three are one union. The second row's fronts meet no other.
        groups = self._recorded(monkeypatch)
        circ = CircularModel(1.0)
        xs = np.array([[3.0, 4.8, 6.6], [1.0, 4.0, 7.0]])
        fronts = [(_Ignitions(xs[:, j], np.full(2, 5.0)), circ, np.ones(2)) for j in range(3)]
        got = burned_union_area(fronts, REGION)
        assert groups == [[(3.0, 5.0, 1.0), (4.8, 5.0, 1.0), (6.6, 5.0, 1.0)]]
        assert got[0] < 3 * circ.area(1.0)
        assert got[1] == (circ.area(1.0) + circ.area(1.0)) + circ.area(1.0)

    def test_scalars_give_a_float_and_arrays_broadcast(self):
        circ = CircularModel(1.0)
        one = burned_union_area([(Point(0.5, 5.0), circ, 1.0)], REGION)
        assert type(one) is float
        times = np.array([[1.0], [2.0]])
        got = burned_union_area([(_Ignitions(np.array([0.5, 5.0, 9.8]), 5.0), circ, times)], REGION)
        assert got.shape == (2, 3)
        for (i, j), area in np.ndenumerate(got):
            want = burned_union_area([(Point([0.5, 5.0, 9.8][j], 5.0), circ, float(times[i, 0]))],
                                     REGION)
            assert area.hex() == want.hex()


class TestUnionArea:
    """The exact union routine against the chord-length quadrature, the
    two-circle lens and the exact clip of one front."""

    @staticmethod
    def _model(rng, i):
        if i % 2:
            return CircularModel(0.5 + rng.random())
        return EllipticalModel(
            0.5 + rng.random(), 1 + 3 * rng.random(), 1 + 2 * rng.random(),
            2 * math.pi * rng.random(),
        )

    def test_against_chord_quadrature(self):
        # Two to four fronts about one point, at one time or at several, in
        # regions of many shapes; every other group sits at a corner.
        rng = np.random.Generator(np.random.Philox(key=[59, 0]))
        for i in range(300):
            w, h = 0.5 + 10 * rng.random(), 0.5 + 10 * rng.random()
            model = self._model(rng, i)
            t0 = 0.2 + 2 * rng.random()
            k = 2 + i % 3
            times = [t0] * k if i % 4 else [t0 * (0.3 + rng.random()) for _ in range(k)]
            centre = rng.random(2) * (w, h) * (0.2 if i % 3 == 1 else 1.0)
            fronts = [
                (Point(*(centre + (rng.random(2) - 0.5) * 2 * model.rate * t0)), model, t)
                for t in times
            ]
            got = geometry._union_area(fronts, RectRegion(w, h))
            want = quad_union_rect(fronts, w, h)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (i, fronts, w, h)

    def test_lens_closed_form(self):
        rng = np.random.Generator(np.random.Philox(key=[61, 0]))
        region = RectRegion(40.0, 40.0)
        for i in range(100):
            rate, t = 0.5 + rng.random(), 0.2 + 3 * rng.random()
            heading = 7 * rng.random()
            model = CircularModel(rate) if i % 2 else EllipticalModel(rate, heading=heading)
            d = 2 * rate * t * rng.random()
            angle = 2 * math.pi * rng.random()
            p = Point(20.0, 20.0)
            q = Point(20.0 + d * math.cos(angle), 20.0 + d * math.sin(angle))
            got = geometry._union_area([(p, model, t), (q, model, t)], region)
            want = lens_union_area(rate * t, math.hypot(q.x - p.x, q.y - p.y))
            assert got == pytest.approx(want, rel=1e-12)

    def test_one_front_is_its_exact_clip(self):
        rng = np.random.Generator(np.random.Philox(key=[67, 0]))
        for i in range(100):
            model = self._model(rng, i)
            ign, t = Point(*(rng.random(2) * 12 - 1)), 0.1 + 4 * rng.random()
            got = geometry._union_area([(ign, model, t)], REGION)
            if isinstance(model, CircularModel):
                r = model.rate * t
                corners = [(x - ign.x, y - ign.y) for x, y in ((0, 0), (10, 0), (10, 10), (0, 10))]
                want = disk_polygon_area(corners, r)
            else:
                want = model.clipped_area_exact(ign, t, REGION)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    CIRC, ELL = CircularModel(1.0), EllipticalModel(1.0, 2.0, 2.0, 0.7)

    @pytest.mark.parametrize(
        "fronts,want",
        [
            ([(Point(5, 5), CIRC, 1.0), (Point(5, 5), CIRC, 1.0)], math.pi),
            ([(Point(3, 5), ELL, 1.0), (Point(3, 5), ELL, 1.0), (Point(3.5, 5.2), ELL, 1.0)],
             None),
            ([(Point(3, 5), CIRC, 1.0), (Point(5, 5), CIRC, 1.0)], 2 * math.pi),
            ([(Point(5, 5), CIRC, 2.0), (Point(6, 5), CIRC, 1.0)], 4 * math.pi),
            ([(Point(5, 1), CIRC, 1.0), (Point(6, 1.5), CIRC, 1.0)], None),
            ([(Point(5, 5), CIRC, 2.0), (Point(5.3, 5.2), CIRC, 0.5)], 4 * math.pi),
            ([(Point(4, 5), ELL, 1.0), (Point(4, 5), ELL, 2.5)], ELL.area(2.5)),
            ([(Point(5, 5), CIRC, 10.0), (Point(2, 3), CIRC, 1.0)], 100.0),
            ([(Point(3, 4), CIRC, 5.0), (Point(6, 4), CIRC, 5.0)], None),
            ([(Point(1, 1), ELL, 0.0), (Point(0.5, 1.5), ELL, 1.0)], None),
            ([(Point(1, 1), CIRC, 0.0), (Point(2, 2), CIRC, 0.0)], 0.0),
            ([(Point(0.5, 9.5), ELL, 0.4), (Point(1.0, 9.0), ELL, 1.3)], None),
        ],
        ids=["coincident", "coincident of three", "tangent", "tangent inside", "tangent to an edge",
             "nested",
             "nested ellipses", "region inside a front", "corner on a circle", "a point front",
             "point fronts", "two times at a corner"],
    )
    def test_degenerate_groups(self, fronts, want):
        got = geometry._union_area(fronts, REGION)
        assert got == pytest.approx(quad_union_rect(fronts, 10.0, 10.0), rel=1e-12, abs=1e-14)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("offset", [2.0**20, 2.0**30, 2.0**40])
    def test_lens_far_from_the_origin(self, offset):
        # The lens at the separation that the rounded ignitions keep.
        region = RectRegion(2 * offset, 2 * offset)
        for model in (CircularModel(1.0), EllipticalModel(1.3, heading=0.7)):
            p = Point(offset + 0.3, offset + 0.7)
            q = Point(offset + 1.1, offset + 0.9)
            got = burned_union_area([(p, model, 1.0), (q, model, 1.0)], region)
            want = lens_union_area(model.rate, math.hypot(q.x - p.x, q.y - p.y))
            assert got == pytest.approx(want, rel=4.5e-16)

    @pytest.mark.parametrize("offset", [2.0**20, 2.0**30, 2.0**40])
    def test_lens_clipped_far_from_the_origin(self, offset):
        # A lens cut by each edge of a region `offset` wide and tall, at the
        # edge's middle or by its far corner, has the area of the same lens
        # cut in the same place of a 10 x 10 region. The ignitions sit on
        # multiples of 1/8, which every offset keeps exactly.
        def placed(x, y, side):
            if side == 0:
                return Point(x, y)
            if side == 1:
                return Point(side_len - y, x)
            if side == 2:
                return Point(side_len - x, side_len - y)
            return Point(y, side_len - x)

        pair = ((0.25, 0.5), (1.125, 0.75))
        for model in (CircularModel(1.0), EllipticalModel(1.3, 2.0, 2.0, 0.7)):
            for side in range(4):
                for along, near_along in ((0.5 * offset, 4.0), (offset - 2.0, 8.0)):
                    side_len = offset
                    far = [(placed(along + x, y, side), model, 1.0) for x, y in pair]
                    got = geometry._union_area(far, RectRegion(offset, offset))
                    side_len = 10.0
                    near = [(placed(near_along + x, y, side), model, 1.0) for x, y in pair]
                    want = geometry._union_area(near, REGION)
                    assert want < 2 * model.area(1.0)  # the edge cuts the lens
                    assert got == pytest.approx(want, rel=1e-14), (side, along)

    @pytest.mark.parametrize("rate", [1e-310, 1e300])
    def test_lens_clipped_at_extreme_rates(self, rate):
        # At 1e-310 a unit of plane length is infinite in the frame; at 1e300
        # the ignitions' frame centres are subnormal.
        pair = ((0.25e-10, 0.5e-10), (1.125e-10, 0.75e-10))
        region = RectRegion(2e-10, 2e-10)
        for model in (CircularModel(rate), EllipticalModel(rate, 2.0, 2.0, 0.7)):
            unit = type(model)(1.0, *astuple(model)[1:])
            got = geometry._union_area([(Point(*p), model, 1e-10 / rate) for p in pair], region)
            want = geometry._union_area([(Point(*p), unit, 1e-10) for p in pair], region)
            assert want < 2 * unit.area(1e-10)  # the region's edges cut the lens
            assert got == pytest.approx(want, rel=1e-12)

    def test_region_of_subnormal_width(self):
        # The region's bottom and top edges have no length in the frame.
        circ = CircularModel(1.0)
        fronts = [(Point(0.0, 4.0), circ, 1.0), (Point(0.0, 5.0), circ, 1.0)]
        got = burned_union_area(fronts, RectRegion(1e-320, 10.0))
        assert 0.0 < got <= 3e-320


class TestFrontsThatMeet:
    """Fronts of one model are grouped only when they meet, with the union
    routine patched to fail wherever fronts that never meet would reach it."""

    @staticmethod
    def _no_union(monkeypatch):
        def fail(*args):
            raise AssertionError("fronts that do not meet reached the union routine")

        monkeypatch.setattr(geometry, "_union_area", fail)

    @staticmethod
    def _record_union(monkeypatch):
        calls = []

        def record(fronts, region):
            calls.append(fronts)
            return 0.0

        monkeypatch.setattr(geometry, "_union_area", record)
        return calls

    @staticmethod
    def _boxes_touch(model, fronts):
        """Whether the bounding boxes of two fronts overlap or touch."""
        (a0, b0, a1, b1), (c0, d0, c1, d1) = (model.bounding_box(p, t) for p, _, t in fronts)
        return max(a0, c0) <= min(a1, c1) and max(b0, d0) <= min(b1, d1)

    def test_side_by_side_ellipses_give_their_exact_clips(self, monkeypatch):
        self._no_union(monkeypatch)
        ell = EllipticalModel(1.0, 2.0, 4.0, 0.7)
        beside = Point(1.0 - 0.8 * math.sin(0.7), 5.0 + 0.8 * math.cos(0.7))
        fronts = [(Point(1.0, 5.0), ell, 1.5), (beside, ell, 1.5)]
        assert self._boxes_touch(ell, fronts)
        want = [ell.clipped_area_exact(p, t, REGION) for p, _, t in fronts]
        assert want[1] < ell.area(1.5)  # the second front crosses the region's edge
        assert burned_union_area(fronts, REGION) == sum(want)

    def test_one_model_at_two_times(self, monkeypatch):
        # The later front, ignited 1.1 ahead on the heading, has drifted
        # ahead: its back is 0.5 behind its ignition, the earlier front's
        # head 0.5 ahead of its own, so a gap of 0.1 is left between them.
        self._no_union(monkeypatch)
        ell = EllipticalModel(1.0, 4.0, 2.0, 0.7)
        ahead = Point(3.0 + 1.1 * math.cos(0.7), 3.0 + 1.1 * math.sin(0.7))
        fronts = [(Point(3.0, 3.0), ell, 0.5), (ahead, ell, 2.0)]
        assert self._boxes_touch(ell, fronts)
        assert burned_union_area(fronts, REGION) == ell.area(0.5) + ell.area(2.0)

    def test_a_chain_samples_only_the_pair_that_meets(self, monkeypatch):
        calls = self._record_union(monkeypatch)
        circ = CircularModel(1.0)
        a, b, c = [(Point(x, y), circ, 1.0) for x, y in ((3.5, 5.0), (5.0, 5.0), (6.6, 6.6))]
        # C's box touches B's, but C is 2.26 from B and 3.49 from A.
        assert self._boxes_touch(circ, [b, c])
        got = burned_union_area([a, b, c], REGION)
        assert calls == [[a, b]]
        assert got == circ.area(1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        side=st.tuples(st.floats(0.5, 100.0), st.floats(0.5, 100.0)),
        shape=st.one_of(
            st.tuples(st.floats(0.1, 10.0)),
            st.tuples(
                st.floats(0.1, 10.0), st.floats(1.0, 6.0), st.floats(1.0, 6.0),
                st.floats(0.0, 2 * math.pi),
            ),
        ),
        place=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        times=st.tuples(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0)),
    )
    def test_fronts_that_meet_have_clipped_boxes_that_touch(self, side, shape, place, times):
        # Grouping tests only that fronts meet; with the ignitions in the
        # region that implies the clipped boxes touch: each holds the clamp
        # of any common point into the region.
        (w, h), (u1, v1, u2, v2) = side, place
        model = CircularModel(*shape) if len(shape) == 1 else EllipticalModel(*shape)
        fronts = [(Point(u1 * w, v1 * h), times[0]), (Point(u2 * w, v2 * h), times[1])]
        (xa, ya), (xb, yb) = (model.frame_centre(p.x, p.y, t) for p, t in fronts)
        assume(math.hypot(xa - xb, ya - yb) <= times[0] + times[1])
        (a0, b0, a1, b1), (c0, d0, c1, d1) = (
            (max(x0, 0.0), max(y0, 0.0), min(x1, w), min(y1, h))
            for x0, y0, x1, y1 in (model.bounding_box(p, t) for p, t in fronts)
        )
        assert max(a0, c0) <= min(a1, c1) and max(b0, d0) <= min(b1, d1)

    def test_fronts_of_two_models_rejected(self):
        # Fronts of two models have no common frame, even when far apart.
        circ, ell = CircularModel(1.0), EllipticalModel(1.0, 2.0, 4.0, 0.7)
        for far in (False, True):
            fronts = [(Point(5.0, 5.0), circ, 1.0), (Point(6.3, 3.44 + 5 * far), ell, 1.0)]
            with pytest.raises(ParameterError, match="one spread model"):
                burned_union_area(fronts, REGION)

    def test_fronts_said_apart_share_no_point(self, monkeypatch):
        calls = self._record_union(monkeypatch)
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
            x0, y0 = max(boxes[0][0], boxes[1][0]), max(boxes[0][1], boxes[1][1])
            x1, y1 = min(boxes[0][2], boxes[1][2]), min(boxes[0][3], boxes[1][3])
            calls.clear()
            burned_union_area([(p1, model, t1), (p2, model, t2)], region)
            if calls or x0 > x1 or y0 > y1:  # grouped, or boxes apart
                continue
            apart += 1
            gx, gy = np.meshgrid(np.linspace(x0, x1, 300), np.linspace(y0, y1, 300))
            both = model.covers(p1, t1, gx, gy) & model.covers(p2, t2, gx, gy)
            assert not both.any(), (i, model, p1, t1, p2, t2)
        assert apart >= 50
