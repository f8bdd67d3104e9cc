"""Planar primitives for fire-front geometry.

Provides the protected rectangle, reach-time solving for elliptically
growing fronts, the exact area of a disk intersected with a convex polygon
(which gives the clipped area of one circular or elliptical front), and a
deterministic union-area estimator for groups of overlapping fronts clipped
to the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Point",
    "RectRegion",
    "ellipse_reach_time",
    "ellipse_reach_times",
    "disk_polygon_area",
    "disk_rect_area",
    "burned_union_area",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
# High-bit tag keeps union-area jitter streams disjoint from trial substreams.
_AREA_STREAM_TAG = 1 << 63
# Jittered points per block of the union-area sampler. The jitter stream is
# consumed in the same row-major order for any block size, so the estimate
# does not depend on it; the block only bounds the temporaries (~1 MB each).
_SAMPLER_BLOCK = 1 << 16


@dataclass(frozen=True)
class Point:
    """A location in the plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ParameterError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RectRegion:
    """Axis-aligned protected rectangle with its lower-left corner at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ParameterError(
                f"region sides must be positive and finite, got {self.width} x {self.height}"
            )

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, p: Point) -> bool:
        """True iff ``p`` lies in the region; the boundary counts as inside."""
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height


def _validate_ellipse_params(rate: float, hb_ratio: float, lb_ratio: float) -> None:
    if not rate > 0:
        raise ParameterError(f"spread rate must be positive, got {rate}")
    if not hb_ratio >= 1:
        raise ParameterError(f"head-to-back ratio must be >= 1, got {hb_ratio}")
    if not lb_ratio >= 1:
        raise ParameterError(f"length-to-breadth ratio must be >= 1, got {lb_ratio}")


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


def ellipse_reach_times(
    rate: float,
    hb_ratio: float,
    lb_ratio: float,
    heading: float,
    ignition: Point,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Vectorized first-reach times from ``ignition`` to points ``(xs, ys)``.

    Solves, per point, the smallest t >= 0 with
    ``((x - c t) / (a t))^2 + (y / (b t))^2 = 1`` in the frame whose +x axis
    points along ``heading``.  Growth is affine, so the solve reduces to one
    quadratic per point. It is solved at unit rate, then divided by
    ``rate``: the coefficients scale as rate^4, and would underflow or
    overflow at rates far from 1.
    """
    _validate_ellipse_params(rate, hb_ratio, lb_ratio)
    a, b, c = ellipse_axis_rates(1.0, hb_ratio, lb_ratio)
    cos_h = math.cos(heading)
    sin_h = math.sin(heading)
    dx = np.asarray(xs, dtype=float) - ignition.x
    dy = np.asarray(ys, dtype=float) - ignition.y
    x = dx * cos_h + dy * sin_h
    y = -dx * sin_h + dy * cos_h

    # Quadratic A t^2 + B t - C0 = 0 with A > 0 and C0 >= 0; take the
    # nonnegative root in the form that avoids cancellation either way.
    quad_a = b * b * (a * a - c * c)
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
    return np.where(c0 == 0.0, 0.0, t) / rate


def ellipse_reach_time(
    rate: float,
    hb_ratio: float,
    lb_ratio: float,
    heading: float,
    ignition: Point,
    target: Point,
) -> float:
    """Time at which an elliptical front started at ``ignition`` first reaches ``target``."""
    t = ellipse_reach_times(
        rate, hb_ratio, lb_ratio, heading, ignition, np.asarray(target.x), np.asarray(target.y)
    )
    return float(t)


def _sector_area(ux: float, uy: float, vx: float, vy: float, r2: float) -> float:
    # Signed circular sector between rays O->u and O->v.
    theta = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
    return 0.5 * r2 * theta


def _tri_disk_area(ax: float, ay: float, bx: float, by: float, r: float) -> float:
    # Signed area of disk(origin, r) intersected with triangle(origin, A, B).
    cross = ax * by - ay * bx
    if cross == 0.0:
        return 0.0
    r2 = r * r
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    adotd = ax * dx + ay * dy
    disc = dd * r2 - cross * cross
    if disc > 0.0:
        sq = math.sqrt(disc)
        lo = max((-adotd - sq) / dd, 0.0)
        hi = min((-adotd + sq) / dd, 1.0)
        if lo < hi:
            px, py = ax + lo * dx, ay + lo * dy
            qx, qy = ax + hi * dx, ay + hi * dy
            return (
                _sector_area(ax, ay, px, py, r2)
                + 0.5 * (px * qy - py * qx)
                + _sector_area(qx, qy, bx, by, r2)
            )
    return _sector_area(ax, ay, bx, by, r2)


def disk_polygon_area(vertices, radius: float) -> float:
    """Exact area of disk(origin, radius) intersected with a convex polygon.

    ``vertices`` lists the polygon's corners counterclockwise, relative to
    the disk's center. The area is the sum, over the edges, of the signed
    overlap of the disk with the triangle spanned by the center and the edge.
    """
    n = len(vertices)
    total = 0.0
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        total += _tri_disk_area(ax, ay, bx, by, radius)
    return max(total, 0.0)


def disk_rect_area(center: Point, radius: float, region: RectRegion) -> float:
    """Exact area of disk(center, radius) intersected with ``region``."""
    if radius < 0:
        raise DomainError(f"radius must be nonnegative, got {radius}")
    if radius == 0.0:
        return 0.0
    cx, cy = center.x, center.y
    corners = (
        (0.0 - cx, 0.0 - cy),
        (region.width - cx, 0.0 - cy),
        (region.width - cx, region.height - cy),
        (0.0 - cx, region.height - cy),
    )
    return disk_polygon_area(corners, radius)


def _clip_box(box, region: RectRegion):
    x0, y0, x1, y1 = box
    x0, y0 = max(x0, 0.0), max(y0, 0.0)
    x1, y1 = min(x1, region.width), min(y1, region.height)
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, y0, x1, y1)


def _boxes_touch(b1, b2) -> bool:
    return not (b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1])


def _group_fronts(boxes):
    # Union-find over pairwise box overlap; front counts are tiny.
    parent = list(range(len(boxes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if _boxes_touch(boxes[i], boxes[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(boxes)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _stratified_union_area(fronts, box, tol: float, seed: int) -> float:
    """Jittered-grid estimate of the covered area inside ``box``.

    The grid is refined (doubling per axis) until two successive estimates
    agree to half the requested relative tolerance.  All jitter comes from a
    dedicated counter-based stream keyed by (seed, resolution), so the result
    is a pure function of the inputs.
    """
    x0, y0, x1, y1 = box
    lx, ly = x1 - x0, y1 - y0
    box_area = lx * ly
    n = 64
    n_max = 4096
    prev = None
    while True:
        key = np.array([seed & _MASK64, _AREA_STREAM_TAG | n], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        hits = 0
        block = max(1, _SAMPLER_BLOCK // n)
        cols = np.arange(n)
        for r0 in range(0, n, block):
            rows = np.arange(r0, min(r0 + block, n))
            u = rng.random((rows.size, n, 2))
            px = x0 + (cols[None, :] + u[:, :, 0]) * (lx / n)
            py = y0 + (rows[:, None] + u[:, :, 1]) * (ly / n)
            covered = np.zeros(px.shape, dtype=bool)
            for ignition, model, t in fronts:
                covered |= model.covers(ignition, t, px, py)
            hits += int(covered.sum())
        est = box_area * hits / (n * n)
        if prev is not None:
            if est == 0.0 and prev == 0.0:
                return 0.0
            if abs(est - prev) <= 0.5 * tol * max(est, prev):
                return est
        if n >= n_max:
            return est
        prev = est
        n *= 2


def burned_union_area(
    fronts: Iterable[tuple[Point, object, float]],
    region: RectRegion,
    tol: float = 1e-3,
    seed: int = 0,
) -> float:
    """Area of the union of burned sets, clipped to ``region``.

    ``fronts`` is a sequence of ``(ignition, model, t)`` triples; each model
    must expose ``area(t)``, ``bounding_box(ignition, t)``, ``covers`` and
    ``clipped_area_exact``.  Fronts whose bounding boxes stay disjoint are
    measured independently and exactly: ``area(t)`` inside the region,
    ``clipped_area_exact`` across its edge.  Only groups of overlapping
    fronts are estimated, by stratified sampling at relative tolerance
    ``tol``.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    fronts = list(fronts)
    if not fronts:
        return 0.0
    raw_boxes = []
    for ignition, model, t in fronts:
        if t < 0:
            raise DomainError(f"front time must be nonnegative, got {t}")
        raw_boxes.append(model.bounding_box(ignition, t))

    live = []
    clipped = []
    for front, box in zip(fronts, raw_boxes):
        cb = _clip_box(box, region)
        if cb is not None:
            live.append((front, box, cb))
            clipped.append(cb)
    if not live:
        return 0.0

    total = 0.0
    for group in _group_fronts(clipped):
        members = [live[i] for i in group]
        if len(members) == 1:
            (ignition, model, t), box, cb = members[0]
            inside = (
                box[0] >= 0.0
                and box[1] >= 0.0
                and box[2] <= region.width
                and box[3] <= region.height
            )
            total += model.area(t) if inside else model.clipped_area_exact(ignition, t, region)
            continue
        hull = (
            min(m[2][0] for m in members),
            min(m[2][1] for m in members),
            max(m[2][2] for m in members),
            max(m[2][3] for m in members),
        )
        total += _stratified_union_area([m[0] for m in members], hull, tol, seed)
    return total
