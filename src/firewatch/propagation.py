"""Constant-rate fire spread models.

Each model exposes the total burned area ``F(t)`` of the free-growing front
(``area``), first-reach times from an ignition to arbitrary points
(``reach_times``), whether the front at ``t`` covers given points
(``covers``), and the ratio of its reach times to those of a circular
front of equal rate (``time_scale``).  Both models grow affinely (the front
at time ``t`` is ``t`` times their ``shape``, the front at time 1), so ``F``
is exactly quadratic in ``t``, and one base class derives both frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ParameterError
from .geometry import Point, RectRegion, disk_polygon_area, disk_rect_area

__all__ = ["CircularModel", "EllipticalModel", "SpreadModel"]


def _check_rate(rate) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ParameterError(f"spread rate must be positive and finite, got {rate}")


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
    """The frame of a model whose front at ``t`` is ``t`` times its
    ``shape``, the front at t = 1 as ``(a, b, c, cos, sin)``: an ellipse
    with semi-axes ``a`` along the heading and ``b`` across it, centred
    ``c`` ahead of the ignition, and the heading's cosine and sine."""

    def _to_heading(self, dx, dy):
        """Plane offsets as offsets along and across the heading."""
        _, _, _, cos_h, sin_h = self.shape
        return dx * cos_h + dy * sin_h, -dx * sin_h + dy * cos_h

    def frame(self, ignition: Point, t):
        """The front at ``t`` as ``(cx, cy, a t, b t, cos, sin)``."""
        a, b, c, cos_h, sin_h = self.shape
        return ignition.x + c * t * cos_h, ignition.y + c * t * sin_h, a * t, b * t, cos_h, sin_h

    def bounding_box(self, ignition: Point, t):
        cx, cy, at, bt, cos_h, sin_h = self.frame(ignition, t)
        ex = math.hypot(at * cos_h, bt * sin_h)
        ey = math.hypot(at * sin_h, bt * cos_h)
        return (cx - ex, cy - ey, cx + ex, cy + ey)

    def frame_centre(self, x, y, t):
        """Centre of the front at ``t`` from the ignition ``(x, y)`` in the
        frame where every front is the disk of radius ``t``: shift by ``c t``
        along the heading, rotate by -heading, scale by 1/a and 1/b."""
        a, b, c, _, _ = self.shape
        u, v = self._to_heading(x, y)
        return ((u + c * t) / a, v / b)


@dataclass(frozen=True)
class CircularModel(_AffineFront):
    """Front spreads at ``rate`` m/s in every direction."""

    rate: float

    def __post_init__(self):
        _check_rate(self.rate)

    @property
    def shape(self):
        return (self.rate, self.rate, 0.0, 1.0, 0.0)

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
        _check_rate(self.rate)
        if not 1 <= self.hb_ratio < math.inf:
            raise ParameterError(f"head-to-back ratio must be finite and >= 1, got {self.hb_ratio}")
        if not 1 <= self.lb_ratio < math.inf:
            raise ParameterError(
                f"length-to-breadth ratio must be finite and >= 1, got {self.lb_ratio}"
            )
        if not math.isfinite(self.heading):
            raise ParameterError(f"heading must be finite, got {self.heading}")

    @cached_property
    def shape(self):
        a, b, c = ellipse_axis_rates(self.rate, self.hb_ratio, self.lb_ratio)
        return (a, b, c, math.cos(self.heading), math.sin(self.heading))

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
        x, y = self._to_heading(
            np.asarray(xs, dtype=float) - ignition.x, np.asarray(ys, dtype=float) - ignition.y
        )

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
        a, b, c, _, _ = self.shape
        x, y = self._to_heading(np.asarray(xs) - ignition.x, np.asarray(ys) - ignition.y)
        u = (x - c * t) / (a * t)
        v = y / (b * t)
        return u * u + v * v <= 1.0

    def clipped_area_exact(self, ignition: Point, t, region: RectRegion):
        # The inverse affine map of the front (shift to its center, rotate by
        # -heading, scale by 1/(a t) and 1/(b t)) takes the ellipse to the
        # unit disk and the region to a parallelogram, with areas scaled by
        # 1/(a b t^2) and the corners still counterclockwise.
        if t <= 0.0:
            return 0.0
        cx, cy, at, bt, _, _ = self.frame(ignition, t)
        w, h = region.width, region.height
        corners = []
        for x, y in ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)):
            u, v = self._to_heading(x - cx, y - cy)
            corners.append((u / at, v / bt))
        return at * bt * disk_polygon_area(corners, 1.0)


SpreadModel = Union[CircularModel, EllipticalModel]
