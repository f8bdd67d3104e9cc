"""Constant-rate fire spread models.

Each model exposes the total burned area ``F(t)`` of the free-growing front
(``area``), first-reach times from an ignition to arbitrary points
(``reach_times``), whether the front at ``t`` covers given points
(``covers``), and the ratio of its reach times to those of a circular
front of equal rate (``time_scale``).  Both models grow affinely (the front
at time ``t`` is ``rate * t`` times their ``shape``, the front once the head
has spread a unit distance), so ``F`` is exactly quadratic in ``t``, and one
base class derives both frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ParameterError, check_finite, check_positive
from .geometry import Point, RectRegion, _disk_polygon_areas, _float_or_array, _hypot, disk_rect_area

__all__ = ["CircularModel", "EllipticalModel", "SpreadModel"]


# Measured fire ellipses stay near lb <= 10. A far narrower front spans the
# region before it meets a sensor: the search walks ~sqrt(lb) rings, then all.
_MAX_LB_RATIO = 1e3


def ellipse_axis_rates(rate: float, hb_ratio: float, lb_ratio: float) -> tuple[float, float, float]:
    """Growth rates (semi-major, semi-minor, center drift) of the fire ellipse.

    The front at time ``t`` is an ellipse with semi-major axis ``a*t`` along
    the heading, semi-minor ``b*t``, and center displaced ``c*t`` ahead of
    the ignition.  The head then advances at ``a + c = rate`` and the back
    recedes at ``a - c = rate / hb_ratio``.
    """
    a = 0.5 * rate * (1.0 + 1.0 / hb_ratio)
    b = a / lb_ratio
    c = 0.5 * rate * (1.0 - 1.0 / hb_ratio)
    return a, b, c


class _AffineFront:
    """The frame of a model whose front at ``t`` is ``rate * t`` times its
    ``shape``, the front once the head has spread a unit distance, as ``(a,
    b, c, cos, sin)``: an ellipse with semi-axes ``a`` along the heading and
    ``b`` across it, centred ``c`` ahead of the ignition, and the heading's
    cosine and sine."""

    def _to_frame(self, dx, dy, r, s):
        """Plane offsets ``(dx, dy)`` from an ignition as offsets from the
        centre of its front at reach ``r`` (``rate * t``), in the frame where
        that front is the disk of radius ``r / s``: rotate by -heading, shift
        by ``c r`` back along the heading, scale by 1/(a s) and 1/(b s)."""
        a, b, c, cos_h, sin_h = self.shape
        u = dx * cos_h + dy * sin_h
        v = dy * cos_h - dx * sin_h
        return (u - c * r) / (a * s), v / (b * s)

    def frame(self, ignition: Point, t):
        """The front at ``t`` as ``(cx, cy, a rate t, b rate t, cos, sin)``."""
        a, b, c, cos_h, sin_h = self.shape
        r = self.rate * t
        return ignition.x + c * r * cos_h, ignition.y + c * r * sin_h, a * r, b * r, cos_h, sin_h

    def bounding_box(self, ignition: Point, t):
        """The front's box ``(x0, y0, x1, y1)``. The ignition's ``x`` and
        ``y`` and ``t`` may be arrays that broadcast; each box then has the
        bits of the call for one front."""
        cx, cy, at, bt, cos_h, sin_h = self.frame(ignition, t)
        ex = _hypot(at * cos_h, bt * sin_h)
        ey = _hypot(at * sin_h, bt * cos_h)
        return (cx - ex, cy - ey, cx + ex, cy + ey)

    def frame_centre(self, x, y, t):
        """Centre of the front at ``t`` from the ignition ``(x, y)`` in the
        frame where every front is the disk of radius ``t``."""
        return self._to_frame(x, y, -self.rate * t, self.rate)


@dataclass(frozen=True)
class CircularModel(_AffineFront):
    """Front spreads at ``rate`` m/s in every direction."""

    rate: float
    shape = (1.0, 1.0, 0.0, 1.0, 0.0)

    def __post_init__(self):
        check_positive("spread rate", self.rate)

    @property
    def time_scale(self) -> float:
        """Ratio of this model's reach times to a circular front of equal
        rate: 1."""
        return 1.0

    def area(self, t):
        if isinstance(t, np.ndarray):
            # np.float_power gives the bytes of a Python float's ** (np.square
            # and x * x differ in the last bit).
            with np.errstate(over="ignore"):
                return math.pi * np.float_power(self.rate * t, 2.0)
        try:
            return math.pi * (self.rate * t) ** 2
        except OverflowError:  # a Python float's ** raises where numpy's gives inf
            return math.inf

    def reach_times(self, ignition: Point, xs, ys):
        return np.hypot(np.asarray(xs) - ignition.x, np.asarray(ys) - ignition.y) / self.rate

    def covers(self, ignition: Point, t, xs, ys):
        r = self.rate * t
        dx = np.asarray(xs) - ignition.x
        dy = np.asarray(ys) - ignition.y
        return dx * dx + dy * dy <= r * r

    def clipped_area_exact(self, ignition: Point, t, region: RectRegion):
        return disk_rect_area(ignition, self.rate * t, region)


@dataclass(frozen=True)
class EllipticalModel(_AffineFront):
    """Elliptical front with the ignition on the long axis.

    ``hb_ratio`` is the head-to-back spread ratio, ``lb_ratio`` the
    length-to-breadth ratio of the ellipse, and ``heading`` the direction of
    the head in radians.  The head advances at ``rate``; the back recedes at
    ``rate / hb_ratio``; total area is pi * rate^2 (1 + 1/hb)^2 / (4 lb) t^2.
    """

    rate: float
    hb_ratio: float = 1.0
    lb_ratio: float = 1.0
    heading: float = 0.0

    def __post_init__(self):
        check_positive("spread rate", self.rate)
        check_finite("head-to-back ratio", self.hb_ratio, low=1)
        if not 1 <= self.lb_ratio <= _MAX_LB_RATIO:
            raise ParameterError(
                f"length-to-breadth ratio must lie in [1, {_MAX_LB_RATIO:g}], got {self.lb_ratio}"
            )
        check_finite("heading", self.heading)

    @cached_property
    def shape(self):
        return (*ellipse_axis_rates(1.0, self.hb_ratio, self.lb_ratio),
                math.cos(self.heading), math.sin(self.heading))

    @property
    def time_scale(self) -> float:
        """Ratio of this model's reach times to a circular front of equal
        rate: the burned-area law of the front equals the circular one after
        substituting t -> t/k with k = 2 sqrt(lb) / (1 + 1/hb)."""
        return 2.0 * math.sqrt(self.lb_ratio) / (1.0 + 1.0 / self.hb_ratio)

    def area(self, t):
        # The distance rate * t, as in the reach times: rate-scaled axes
        # would underflow or overflow at rates far from 1.
        a, b = self.shape[:2]
        rt = self.rate * t
        return math.pi * a * b * rt * rt

    def reach_times(self, ignition: Point, xs, ys):
        """First-reach times from ``ignition`` to points ``(xs, ys)``.

        In ``_to_frame`` at reach 0 and scale 1 a point is ``(u, v) = rho (w,
        sqrt(1 - w^2))``, and the front at reach r is the disk of radius r
        about ``(e r, 0)``, e = c / a. So r solves ``k^2 r^2 + 2 e u r - rho^2
        = 0``, k^2 = 1 - e^2 = 1 / (hb a^2) as a + c = 1 and a - c = 1/hb:
        ``r = rho / (e w + g)`` = ``rho (g - e w) / k^2``, g = sqrt((e w)^2 +
        k^2), whichever adds terms of one sign. Only bounded ratios are
        squared; r is divided by ``rate`` last."""
        a, _, c, _, _ = self.shape
        k2 = 1.0 / (self.hb_ratio * a * a)
        # The branch not taken may divide by 0, and a distance or time past
        # the largest float is inf. w is NaN at the ignition (0/0) and where
        # u and rho overflow: taken as 1 there, it gives rho's time, 0 or inf.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u, v = self._to_frame(np.asarray(xs) - ignition.x, np.asarray(ys) - ignition.y, 0.0, 1.0)
            rho = np.hypot(u, v)
            ew = (c / a) * np.fmin(u / rho, 1.0)
            g = np.sqrt(ew * ew + k2)
            r = np.where(ew > 0.0, rho / (ew + g), rho * (g - ew) / k2)
            return r / self.rate

    def covers(self, ignition: Point, t, xs, ys):
        if t <= 0.0:
            return np.zeros(np.broadcast(np.asarray(xs), np.asarray(ys)).shape, dtype=bool)
        r = self.rate * t
        u, v = self._to_frame(np.asarray(xs) - ignition.x, np.asarray(ys) - ignition.y, r, r)
        return u * u + v * v <= 1.0

    def clipped_area_exact(self, ignition: Point, t, region: RectRegion):
        # The frame at scale r = rate * t takes the front to the unit disk and
        # the region to a parallelogram, still counterclockwise, of area / (a b r^2).
        # As disk_rect_area, it takes arrays of ignitions and times of one shape.
        x, y, t = (np.asarray(v, dtype=float) for v in (ignition.x, ignition.y, t))
        r = self.rate * t
        a, b = self.shape[:2]
        w, h = region.width, region.height
        dx = np.array([0.0, w, w, 0.0]) - x[..., None]
        dy = np.array([0.0, 0.0, h, h]) - y[..., None]
        with np.errstate(all="ignore"):  # past the floats, or at t = 0
            xs, ys = self._to_frame(dx, dy, r[..., None], r[..., None])
            area = (a * r) * (b * r) * _disk_polygon_areas(xs, ys, 1.0)
        return _float_or_array(np.where(t <= 0.0, 0.0, area))


SpreadModel = Union[CircularModel, EllipticalModel]
