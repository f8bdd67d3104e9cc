import math
import warnings

import numpy as np
import pytest

from firewatch.errors import ParameterError
from firewatch.geometry import Point
from firewatch.propagation import CircularModel, EllipticalModel

from helpers import bisect_reach_time, front_member, time_to


def test_circular_area_unit_values():
    assert CircularModel(1.0).area(1.0) == pytest.approx(math.pi, rel=1e-15)
    assert CircularModel(2.0).area(3.0) == pytest.approx(math.pi * 36, rel=1e-15)


def test_area_zero_at_time_zero():
    assert CircularModel(1.0).area(0.0) == 0.0
    assert EllipticalModel(1.0, 2.0, 2.0).area(0.0) == 0.0


def test_elliptical_area_reduces_to_circular():
    assert EllipticalModel(1.0, 1.0, 1.0).area(1.0) == pytest.approx(math.pi, rel=1e-15)


def test_elliptical_area_value():
    # pi * rate^2 * (1 + 1/hb)^2 / (4 lb) * t^2 at rate=1, hb=lb=2, t=1
    got = EllipticalModel(1.0, 2.0, 2.0).area(1.0)
    assert got == pytest.approx(math.pi * 2.25 / 8.0, rel=1e-15)
    assert got == pytest.approx(0.8835729338221293, rel=1e-12)


def test_area_is_exactly_quadratic():
    rng = np.random.Generator(np.random.Philox(key=[41, 0]))
    for _ in range(30):
        model = EllipticalModel(
            rate=0.5 + rng.random(), hb_ratio=1 + rng.random() * 3, lb_ratio=1 + rng.random() * 2
        )
        t = rng.random() * 5
        assert model.area(2 * t) == pytest.approx(4 * model.area(t), rel=1e-14)


def test_reach_time_circular():
    assert time_to(CircularModel(2.0), Point(0, 0), Point(4, 0)) == pytest.approx(2.0)
    assert time_to(CircularModel(2.0), Point(1, 1), Point(1, 1)) == 0.0


def test_reach_time_elliptical_matches_bisection():
    model = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=1.5, heading=0.4)
    rng = np.random.Generator(np.random.Philox(key=[47, 0]))
    for _ in range(50):
        ign = Point(rng.random() * 4, rng.random() * 4)
        tgt = Point(rng.random() * 4, rng.random() * 4)
        got = time_to(model, ign, tgt)
        want = bisect_reach_time(1.0, 2.0, 1.5, 0.4, ign, tgt)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_front_membership_transitions_at_reach_time():
    rng = np.random.Generator(np.random.Philox(key=[53, 0]))
    for _ in range(50):
        rate = 0.5 + rng.random()
        hb = 1 + rng.random() * 3
        lb = 1 + rng.random() * 2
        heading = rng.random() * 6
        ign = Point(0.0, 0.0)
        tgt = Point(rng.random() * 4 - 2, rng.random() * 4 - 2)
        if tgt.x == ign.x and tgt.y == ign.y:
            continue
        t = time_to(EllipticalModel(rate, hb, lb, heading), ign, tgt)
        assert not front_member(rate, hb, lb, heading, ign, tgt, t * (1 - 1e-9))
        assert front_member(rate, hb, lb, heading, ign, tgt, t * (1 + 1e-9))


def test_area_consistent_with_front_geometry():
    # F(t) must equal the measure of the set the membership predicate covers.
    model = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=2.0, heading=0.8)
    ign = Point(0.0, 0.0)
    t = 1.3
    n = 2000
    xs = (np.arange(n) + 0.5) * (4.0 / n) - 2.0
    gx, gy = np.meshgrid(xs, xs)
    grid_area = model.covers(ign, t, gx, gy).mean() * 16.0
    assert grid_area == pytest.approx(model.area(t), rel=2e-3)


def test_frame_is_the_front_as_an_ellipse():
    # A point of the front's boundary, from the frame, sits on the boundary
    # that the membership predicate sees; a circle is the ellipse a = b =
    # rate, heading 0.
    model = EllipticalModel(rate=1.5, hb_ratio=3.0, lb_ratio=2.0, heading=2.2)
    ign, t = Point(1.0, -2.0), 0.7
    cx, cy, at, bt, cos_h, sin_h = model.frame(ign, t)
    for theta in np.linspace(0.0, 2.0 * math.pi, 13):
        u, v = at * math.cos(theta), bt * math.sin(theta)
        x, y = cx + u * cos_h - v * sin_h, cy + u * sin_h + v * cos_h
        inward, outward = Point(cx + (x - cx) * 0.999, cy + (y - cy) * 0.999), Point(
            cx + (x - cx) * 1.001, cy + (y - cy) * 1.001
        )
        assert front_member(1.5, 3.0, 2.0, 2.2, ign, inward, t)
        assert not front_member(1.5, 3.0, 2.0, 2.2, ign, outward, t)
    assert CircularModel(1.5).frame(ign, t) == EllipticalModel(1.5).frame(ign, t)
    assert CircularModel(1.5).bounding_box(ign, t) == EllipticalModel(1.5).bounding_box(ign, t)
    assert CircularModel(1.5).frame_centre(ign.x, ign.y, t) == EllipticalModel(1.5).frame_centre(
        ign.x, ign.y, t
    )


def test_elliptical_time_scale():
    assert CircularModel(3.0).time_scale == 1.0
    assert EllipticalModel(1.0, 1.0, 1.0).time_scale == pytest.approx(1.0)
    k = EllipticalModel(1.0, 2.0, 2.0).time_scale
    assert k == pytest.approx(2 * math.sqrt(2) / 1.5, rel=1e-15)


def test_model_validation():
    with pytest.raises(ParameterError):
        CircularModel(rate=0.0)
    with pytest.raises(ParameterError):
        EllipticalModel(rate=1.0, hb_ratio=0.9)
    with pytest.raises(ParameterError):
        EllipticalModel(rate=1.0, hb_ratio=1.0, lb_ratio=0.0)
    with pytest.raises(ParameterError):
        EllipticalModel(rate=1.0, hb_ratio=1.0, lb_ratio=0.9)
    with pytest.raises(ParameterError):  # finite, but too large for a float
        EllipticalModel(1.0, 10**400, 1.0)


@pytest.mark.parametrize("lb", [1e3 * (1 + 2**-52), 1e12, 1e308])
def test_length_to_breadth_ratio_is_bounded(lb):
    # A front narrower than lb = 1000 would make the sensor search walk the
    # whole grid (see _MAX_LB_RATIO); the bound itself is allowed.
    assert EllipticalModel(rate=1.0, lb_ratio=1e3).lb_ratio == 1e3
    with pytest.raises(ParameterError, match="length-to-breadth"):
        EllipticalModel(rate=1.0, lb_ratio=lb)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CircularModel(rate=math.inf),
        lambda: CircularModel(rate=math.nan),
        lambda: EllipticalModel(rate=math.inf),
        lambda: EllipticalModel(rate=1.0, heading=math.nan),
        lambda: EllipticalModel(rate=1.0, heading=-math.inf),
        lambda: EllipticalModel(rate=1.0, hb_ratio=math.inf),
        lambda: EllipticalModel(rate=1.0, lb_ratio=math.inf),
        lambda: CircularModel(rate=10**400),
        lambda: EllipticalModel(rate=1.0, heading=-(10**400)),
    ],
    ids=["circ rate inf", "circ rate nan", "ell rate inf", "heading nan", "heading -inf",
         "hb inf", "lb inf", "rate int too large", "heading int too large"],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ParameterError):
        make()


class TestFloatPower:
    """CircularModel.area squares arrays with np.float_power because it gives
    the bytes of a Python float's ** (np.square and x * x differ in the last
    bit); if numpy ever changes that, these fail and the area bytes of array
    and scalar calls must be revisited."""

    @staticmethod
    def python_square(v: float) -> float:
        try:
            return v**2
        except OverflowError:
            return math.inf

    def test_matches_python_power_over_many_magnitudes(self):
        rng = np.random.Generator(np.random.Philox(key=[67, 0]))
        x = rng.random(200_000) * np.exp2(rng.integers(-560, 560, 200_000))
        x = np.concatenate([x, [0.0, 1.0, 2.0**-537, 2.0**511, 2.0**512, 1e200, math.inf]])
        with np.errstate(over="ignore", under="ignore"):
            got = np.float_power(x, 2.0)
        want = np.array([self.python_square(v) for v in x.tolist()])
        assert got.tobytes() == want.tobytes()
        assert np.isinf(got[x > 2.0**512]).all()

    def test_circular_area_of_an_array_is_the_scalar_areas(self):
        rng = np.random.Generator(np.random.Philox(key=[67, 1]))
        t = np.concatenate([rng.random(20_000) * 10.0, [0.0, 1e155, 1e160, math.inf]])
        for model in (CircularModel(1.0), CircularModel(0.37), CircularModel(3e-7)):
            got = model.area(t)
            want = np.array([model.area(v) for v in t.tolist()])
            assert got.tobytes() == want.tobytes()
            assert all(type(model.area(v)) is float for v in t[:5].tolist())


def test_reach_time_past_the_floats_is_inf_without_a_warning():
    # The head reaches 1.5e308 at t = 1.5e308, but the point's frame offset
    # 1.5e308 / a (a = 0.75) overflows, so the time is inf; numpy's overflow
    # warning on Python floats must not reach the caller.
    model = EllipticalModel(1.0, 2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.reach_times(Point(0, 0), 1.5e308, 0.0) == math.inf
