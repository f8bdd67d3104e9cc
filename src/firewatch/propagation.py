"""Constant-rate fire spread models.

Each model exposes the total burned area ``F(t)`` of the free-growing front
and first-reach times from an ignition to arbitrary points.  Both models
grow affinely (the front at time ``t`` is ``t`` times the front at time 1),
so ``F`` is exactly quadratic in ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ParameterError
from .geometry import (
    Point,
    RectRegion,
    disk_polygon_area,
    disk_rect_area,
    ellipse_axis_rates,
    ellipse_reach_time,
    ellipse_reach_times,
)

__all__ = [
    "CircularModel",
    "EllipticalModel",
    "SpreadModel",
    "burned_area",
    "inverse_burned_area",
    "reach_time",
    "reach_times",
    "elliptical_time_scale",
]


def _check_rate(rate) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ParameterError(f"spread rate must be positive and finite, got {rate}")


@dataclass(frozen=True)
class CircularModel:
    """Front spreads at ``rate`` m/s in every direction."""

    rate: float

    def __post_init__(self):
        _check_rate(self.rate)

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

    def area(self, t):
        # Unit-rate axes and the distance rate * t, as in the reach times:
        # rate-scaled axes would underflow or overflow at rates far from 1.
        a, b, _ = ellipse_axis_rates(1.0, self.hb_ratio, self.lb_ratio)
        rt = self.rate * t
        return math.pi * a * b * rt * rt

    def reach_times(self, ignition: Point, xs, ys):
        return ellipse_reach_times(
            self.rate, self.hb_ratio, self.lb_ratio, self.heading, ignition, xs, ys
        )

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


def burned_area(model: SpreadModel, t):
    """Total burned area F(t) of the free-growing front at time ``t``."""
    if np.any(np.asarray(t) < 0):
        raise DomainError(f"time must be nonnegative, got {t}")
    return model.area(t)


def inverse_burned_area(model: SpreadModel, a):
    """Time at which the free-growing front has burned area ``a``."""
    if np.any(np.asarray(a) < 0):
        raise DomainError(f"area must be nonnegative, got {a}")
    # F(t) = F(1) t^2 for every constant-rate model here.
    return np.sqrt(np.asarray(a) / model.area(1.0)) if np.ndim(a) else math.sqrt(a / model.area(1.0))


def reach_time(model: SpreadModel, ignition: Point, target: Point) -> float:
    """First time the front started at ``ignition`` touches ``target``."""
    if isinstance(model, CircularModel):
        return ignition.distance_to(target) / model.rate
    return ellipse_reach_time(
        model.rate, model.hb_ratio, model.lb_ratio, model.heading, ignition, target
    )


def reach_times(model: SpreadModel, ignition: Point, xs, ys) -> np.ndarray:
    """Vectorized ``reach_time`` over point arrays ``(xs, ys)``."""
    return model.reach_times(ignition, xs, ys)


def elliptical_time_scale(model: SpreadModel) -> float:
    """Ratio of this model's reach times to a circular front of equal rate.

    The burned-area law of an elliptical front equals the circular one after
    substituting t -> t/k with k = 2 sqrt(lb) / (1 + 1/hb); circular models
    give k = 1.
    """
    if isinstance(model, CircularModel):
        return 1.0
    return 2.0 * math.sqrt(model.lb_ratio) / (1.0 + 1.0 / model.hb_ratio)
