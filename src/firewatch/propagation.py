"""Constant-rate fire spread models.

Each model exposes the total burned area ``F(t)`` of the free-growing front
(``area``), first-reach times from an ignition to arbitrary points
(``reach_times``), whether the front at ``t`` covers given points
(``covers``), and the ratio of its reach times to those of a circular
front of equal rate (``time_scale``).  Both models grow affinely (the front
at time ``t`` is ``t`` times the front at time 1), so ``F`` is exactly
quadratic in ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError
from .geometry import Point, RectRegion, disk_polygon_area, disk_rect_area, ellipse_axis_rates

__all__ = ["CircularModel", "EllipticalModel", "SpreadModel"]


def _check_rate(rate) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ParameterError(f"spread rate must be positive and finite, got {rate}")


@dataclass(frozen=True)
class CircularModel:
    """Front spreads at ``rate`` m/s in every direction."""

    rate: float

    def __post_init__(self):
        _check_rate(self.rate)

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

    def bounding_box(self, ignition: Point, t):
        r = self.rate * t
        return (ignition.x - r, ignition.y - r, ignition.x + r, ignition.y + r)

    def frame_centre(self, ignition: Point, t):
        """Centre of the front at ``t`` in this model's frame, where every
        front of the model is the disk of radius ``t``: the case a = b =
        rate, c = 0 of ``EllipticalModel.frame_centre``."""
        return (ignition.x / self.rate, ignition.y / self.rate)

    def frame(self, ignition: Point, t):
        """The front at ``t`` as an ellipse: the case a = b = rate, c = 0,
        heading 0 of ``EllipticalModel.frame``."""
        r = self.rate * t
        return ignition.x, ignition.y, r, r, 1.0, 0.0

    def clipped_area_exact(self, ignition: Point, t, region: RectRegion):
        return disk_rect_area(ignition, self.rate * t, region)


@dataclass(frozen=True)
class EllipticalModel:
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
        _check_rate(self.rate)
        if not 1 <= self.hb_ratio < math.inf:
            raise ParameterError(f"head-to-back ratio must be finite and >= 1, got {self.hb_ratio}")
        if not 1 <= self.lb_ratio < math.inf:
            raise ParameterError(
                f"length-to-breadth ratio must be finite and >= 1, got {self.lb_ratio}"
            )
        if not math.isfinite(self.heading):
            raise ParameterError(f"heading must be finite, got {self.heading}")

    @property
    def axis_rates(self) -> tuple[float, float, float]:
        return ellipse_axis_rates(self.rate, self.hb_ratio, self.lb_ratio)

    @property
    def time_scale(self) -> float:
        """Ratio of this model's reach times to a circular front of equal
        rate: the burned-area law of the front equals the circular one after
        substituting t -> t/k with k = 2 sqrt(lb) / (1 + 1/hb)."""
        return 2.0 * math.sqrt(self.lb_ratio) / (1.0 + 1.0 / self.hb_ratio)

    def area(self, t):
        # Unit-rate axes and the distance rate * t, as in the reach times:
        # rate-scaled axes would underflow or overflow at rates far from 1.
        a, b, _ = ellipse_axis_rates(1.0, self.hb_ratio, self.lb_ratio)
        rt = self.rate * t
        return math.pi * a * b * rt * rt

    def reach_times(self, ignition: Point, xs, ys):
        """First-reach times from ``ignition`` to points ``(xs, ys)``.

        Solves, per point, the smallest t >= 0 with
        ``((x - c t) / (a t))^2 + (y / (b t))^2 = 1`` in the frame whose +x
        axis points along the heading.  Growth is affine, so the solve
        reduces to one quadratic per point. It is solved at unit rate, then
        divided by ``rate``: the coefficients scale as rate^4, and would
        underflow or overflow at rates far from 1.
        """
        hb = self.hb_ratio
        a, b, c = ellipse_axis_rates(1.0, hb, self.lb_ratio)
        cos_h = math.cos(self.heading)
        sin_h = math.sin(self.heading)
        dx = np.asarray(xs, dtype=float) - ignition.x
        dy = np.asarray(ys, dtype=float) - ignition.y
        x = dx * cos_h + dy * sin_h
        y = -dx * sin_h + dy * cos_h

        # Quadratic A t^2 + B t - C0 = 0 with A > 0 and C0 >= 0; take the
        # nonnegative root in the form that avoids cancellation either way.
        # A = b^2 (a - c)(a + c), where a - c = 1/hb and a + c = 1: a^2 - c^2
        # would cancel as hb grows.
        quad_a = b * b / hb
        quad_b = 2.0 * b * b * c * x
        c0 = b * b * x * x + a * a * y * y
        root = np.sqrt(quad_b * quad_b + 4.0 * quad_a * c0)
        plus = root + quad_b
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                quad_b > 0.0,
                2.0 * c0 / np.where(plus > 0.0, plus, 1.0),
                (root - quad_b) / (2.0 * quad_a),
            )
        return np.where(c0 == 0.0, 0.0, t) / self.rate

    def covers(self, ignition: Point, t, xs, ys):
        if t <= 0.0:
            return np.zeros(np.broadcast(np.asarray(xs), np.asarray(ys)).shape, dtype=bool)
        a, b, c = self.axis_rates
        cos_h = math.cos(self.heading)
        sin_h = math.sin(self.heading)
        dx = np.asarray(xs) - ignition.x
        dy = np.asarray(ys) - ignition.y
        x = dx * cos_h + dy * sin_h
        y = -dx * sin_h + dy * cos_h
        u = (x - c * t) / (a * t)
        v = y / (b * t)
        return u * u + v * v <= 1.0

    def frame(self, ignition: Point, t):
        """The front at ``t`` as ``(cx, cy, a t, b t, cos, sin)``: its centre,
        ``c t`` ahead of the ignition, its semi-axes along and across the
        heading, and the heading's cosine and sine."""
        a, b, c = self.axis_rates
        cos_h = math.cos(self.heading)
        sin_h = math.sin(self.heading)
        return ignition.x + c * t * cos_h, ignition.y + c * t * sin_h, a * t, b * t, cos_h, sin_h

    def bounding_box(self, ignition: Point, t):
        cx, cy, at, bt, cos_h, sin_h = self.frame(ignition, t)
        ex = math.hypot(at * cos_h, bt * sin_h)
        ey = math.hypot(at * sin_h, bt * cos_h)
        return (cx - ex, cy - ey, cx + ex, cy + ey)

    def frame_centre(self, ignition: Point, t):
        """Centre of the front at ``t`` in this model's frame, where every
        front of the model is the disk of radius ``t``: shift by ``c t``
        along the heading, rotate by -heading, scale by 1/a and 1/b."""
        a, b, c = self.axis_rates
        cos_h = math.cos(self.heading)
        sin_h = math.sin(self.heading)
        x = ignition.x * cos_h + ignition.y * sin_h
        y = -ignition.x * sin_h + ignition.y * cos_h
        return ((x + c * t) / a, y / b)

    def clipped_area_exact(self, ignition: Point, t, region: RectRegion):
        # The inverse affine map of the front (shift to its center, rotate by
        # -heading, scale by 1/(a t) and 1/(b t)) takes the ellipse to the
        # unit disk and the region to a parallelogram, with areas scaled by
        # 1/(a b t^2) and the corners still counterclockwise.
        if t <= 0.0:
            return 0.0
        cx, cy, at, bt, cos_h, sin_h = self.frame(ignition, t)
        w, h = region.width, region.height
        corners = []
        for x, y in ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)):
            dx, dy = x - cx, y - cy
            corners.append(((dx * cos_h + dy * sin_h) / at, (dy * cos_h - dx * sin_h) / bt))
        return at * bt * disk_polygon_area(corners, 1.0)


SpreadModel = Union[CircularModel, EllipticalModel]
