"""Planar primitives for fire-front geometry.

Provides the protected rectangle, the exact area of a disk intersected
with a convex polygon (which gives the clipped area of a circular or
elliptical front), measured for many disks at once as array work, and the
exact area of the union of fronts of one model, clipped to the region. No
spread model's shape is known here: fronts are seen only through the
model's methods.

Fronts that meet no other are measured alone. A group of fronts that meet
is measured by Green's theorem in the model's frame, where every front is
a disk: the boundary of the clipped union is cut into arcs and pieces of
the region's edges, each classified by its midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ParameterError, check_finite, check_positive

__all__ = [
    "Point",
    "RectRegion",
    "disk_polygon_area",
    "disk_rect_area",
    "burned_union_area",
]


@dataclass(frozen=True)
class Point:
    """A location in the plane, in meters."""

    x: float
    y: float

    def __post_init__(self):
        check_finite("point x", self.x)
        check_finite("point y", self.y)


@dataclass(frozen=True)
class RectRegion:
    """Axis-aligned protected rectangle with its lower-left corner at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        check_positive("region width", self.width)
        check_positive("region height", self.height)

    @property
    def area(self) -> float:
        return self.width * self.height


def _tri_disk_areas(ax, ay, bx, by, r2):
    # Signed areas of disk(origin, r) intersected with triangle(origin, A, B),
    # elementwise over arrays of one shape, with r2 = r * r. Every step is the
    # Python float formula's: + - * / and sqrt round alike in numpy, max and
    # min keep Python's choice of operand, and math.atan2 is mapped over the
    # arrays (np.arctan2 differs from it in the last bit).
    cross = ax * by - ay * bx
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    adotd = ax * dx + ay * dy
    disc = dd * r2 - cross * cross
    sq = np.sqrt(disc)
    lo = (-adotd - sq) / dd
    lo = np.where(0.0 > lo, 0.0, lo)
    hi = (-adotd + sq) / dd
    hi = np.where(1.0 < hi, 1.0, hi)
    # Where the edge's chord through the disk cuts the triangle, its area is
    # the sector from A to the chord's first end P, the triangle of the chord
    # PQ and the sector from Q to B; elsewhere it is the sector from A to B,
    # the first sector with P = B.
    cut = (disc > 0.0) & (lo < hi)
    px, py = np.where(cut, ax + lo * dx, bx), np.where(cut, ay + lo * dy, by)
    qx, qy = ax + hi * dx, ay + hi * dy
    sines = np.concatenate([(ax * py - ay * px).ravel(), (qx * by - qy * bx)[cut]])
    cosines = np.concatenate([(ax * px + ay * py).ravel(), (qx * bx + qy * by)[cut]])
    theta = np.fromiter(map(math.atan2, sines.tolist(), cosines.tolist()), float, sines.size)
    sector = 0.5 * np.concatenate([r2.ravel(), r2[cut]]) * theta
    area = sector[: ax.size].reshape(ax.shape)
    area[cut] = (area[cut] + (0.5 * (px * qy - py * qx))[cut]) + sector[ax.size :]
    return np.where(cross == 0.0, 0.0, area)


def _disk_polygon_areas(xs, ys, radius):
    """Exact areas of disks about the origin intersected with convex polygons.

    ``xs`` and ``ys`` hold each polygon's corners counterclockwise along the
    last axis, relative to its disk's centre, and ``radius`` is one radius or
    one per polygon. Each area is the sum, over the edges in order, of the
    signed overlap of the disk with the triangle spanned by the centre and
    the edge, floored at 0: the bits of that sum in Python floats.
    """
    xs, ys, r = (np.asarray(v, dtype=float) for v in (xs, ys, radius))
    n = xs.shape[-1]
    following = (np.arange(n) + 1) % max(n, 1)
    # Steps past the floats give inf or NaN, as in Python floats, and those
    # of the branches not taken are discarded.
    with np.errstate(all="ignore"):
        r2 = np.empty(xs.shape)
        r2[...] = (r * r)[..., None]
        parts = _tri_disk_areas(xs, ys, xs[..., following], ys[..., following], r2)
    total = np.zeros(xs.shape[:-1])
    for j in range(n):
        total = total + parts[..., j]
    return np.where(0.0 > total, 0.0, total)


def _float_or_array(area):
    """One area as a Python float, several as their array."""
    return float(area) if area.ndim == 0 else area


def disk_polygon_area(vertices, radius: float) -> float:
    """Exact area of disk(origin, radius) intersected with a convex polygon.

    ``vertices`` lists the polygon's corners counterclockwise, relative to
    the disk's center. The area is the sum, over the edges, of the signed
    overlap of the disk with the triangle spanned by the center and the edge.
    """
    corners = np.array(vertices, dtype=float).reshape(-1, 2)
    return float(_disk_polygon_areas(corners[:, 0], corners[:, 1], radius))


def disk_rect_area(center: Point, radius: float, region: RectRegion) -> float:
    """Exact area of disk(center, radius) intersected with ``region``.

    ``center.x``, ``center.y`` and ``radius`` may be arrays of one shape; the
    areas are then an array, each with the bits of the call for one disk.
    """
    cx, cy, r = (np.asarray(v, dtype=float) for v in (center.x, center.y, radius))
    if (r < 0).any():
        raise DomainError(f"radius must be nonnegative, got {radius}")
    w, h = region.width, region.height
    xs = np.array([0.0, w, w, 0.0]) - cx[..., None]
    ys = np.array([0.0, 0.0, h, h]) - cy[..., None]
    # Measured in units of 2^e, the farthest corner offset's power of two,
    # the products of four lengths in _tri_disk_areas stay normal whatever
    # the region's scale. Scaling by a power of two is exact; e is clamped
    # so that 2^e and 2^-e are floats.
    e = np.frexp(abs(np.concatenate([xs, ys], axis=-1)).max(axis=-1))[1]
    e = np.minimum(np.maximum(e, -1023), 1023)
    unit, inv = np.ldexp(1.0, e), np.ldexp(1.0, -e)
    area = _disk_polygon_areas(xs * inv[..., None], ys * inv[..., None], r * inv)
    with np.errstate(over="ignore", invalid="ignore"):
        return _float_or_array(np.where(r == 0.0, 0.0, area * unit * unit))


def _group_fronts(fronts):
    """Groups of indices of ``fronts``, all of one model, joined by the pairs
    that meet.

    The model's affine frame maps each front at time t to the disk of radius
    t about the front's ``frame_centre``, so two fronts meet iff their
    centres are at most t1 + t2 apart. Fronts whose ignitions lie in the
    region and that meet also have clipped bounding boxes that touch: each
    box holds the clamp of any common point into the region.
    """
    # Union-find over pairs; front counts are small.
    centres = [model.frame_centre(ignition.x, ignition.y, t) for ignition, model, t in fronts]
    parent = list(range(len(fronts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def meet(i, j):
        (xi, yi), (xj, yj) = centres[i], centres[j]
        # A NaN distance keeps the pair together.
        return not math.hypot(xi - xj, yi - yj) > fronts[i][2] + fronts[j][2]

    for i in range(len(fronts)):
        for j in range(i + 1, len(fronts)):
            if meet(i, j):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(fronts)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _union_area(fronts, region: RectRegion) -> float:
    """Exact area of the union of ``fronts``, all of one model, clipped to
    ``region``.

    The model's frame maps each front at time t to the disk of radius t about
    its ``frame_centre``, and the region to a parallelogram. The frame is
    taken about the first front, with its ignition subtracted in the plane,
    and scaled by 1/s, s the latest time: the disks then have radii at most
    1 near the origin, wherever the fronts lie and whatever the rate.
    Green's theorem sums ``(x dy - y dx) / 2`` over the boundary of the
    clipped union: the arcs of each circle that lie inside the region and
    outside every other front, and the pieces of the region's edges that
    some front covers. The pieces are cut at every crossing and classified
    by their midpoints in the plane, against the region's bounds and each
    front's own ``covers``. The sum, times ``model.area(s) / pi``, is the area.
    """
    fronts = [f for f in fronts if f[2] > 0.0]  # a front at t = 0 burns nothing
    if not fronts:
        return 0.0
    model = fronts[0][1]
    s = max(t for _, _, t in fronts)
    if s == math.inf:
        return region.area  # a front of infinite age covers the region
    # The frame's map is linear plus a drift in t, so the frame centre of
    # (x, y) at t less that of the first front is the frame centre of (x, y)
    # less the first ignition, at t, less that of the origin at the first t.
    origin = fronts[0][0]
    ox, oy = model.frame_centre(0.0, 0.0, fronts[0][2])

    def to_frame(x, y, t):
        fx, fy = model.frame_centre(x - origin.x, y - origin.y, t)
        return (fx - ox) / s, (fy - oy) / s

    circles, owners = [], []
    for ignition, _, t in fronts:
        circle = (*to_frame(ignition.x, ignition.y, t), t / s)
        if circle not in circles:  # a front that repeats another adds nothing
            circles.append(circle)
            owners.append((ignition, t))

    cuts = [[] for _ in circles]  # the angles at which each circle is cut
    for i, (xi, yi, ri) in enumerate(circles):
        for j in range(i + 1, len(circles)):
            xj, yj, rj = circles[j]
            d = math.hypot(xj - xi, yj - yi)
            if abs(ri - rj) <= d <= ri + rj:  # the circles cross or touch
                phi = math.atan2(yj - yi, xj - xi)
                ai = math.acos(max(-1.0, min(1.0, (d * d + ri * ri - rj * rj) / (2.0 * d * ri))))
                aj = math.acos(max(-1.0, min(1.0, (d * d + rj * rj - ri * ri) / (2.0 * d * rj))))
                cuts[i] += (phi - ai, phi + ai)
                cuts[j] += (phi + math.pi - aj, phi + math.pi + aj)

    # Pieces of the boundary as (Green's term, midpoint x and y in the plane,
    # index of the circle of an arc or -1 for an edge).
    pieces = []
    w, h = region.width, region.height
    # Each edge, counterclockwise, as its start corner, its unit direction and
    # its length in the plane.
    edges = (((0.0, 0.0), (1.0, 0.0), w), ((w, 0.0), (0.0, 1.0), h),
             ((w, h), (-1.0, 0.0), w), ((0.0, h), (0.0, -1.0), h))
    for (sx, sy), (ex, ey), length in edges:
        lx, ly = model.frame_centre(ex * length, ey * length, 0.0)
        lam = math.hypot(lx, ly)
        scale = lam / s / length  # frame length of a unit of plane length along the edge
        if not scale > 0.0:
            continue  # the edge has no length in the frame
        ux, uy = lx / lam, ly / lam
        # Points of the edge's line are measured by their length s' along
        # (ux, uy) from the foot of the frame origin's perpendicular, which
        # lies near the fronts that reach the edge: hn n + s' (ux, uy), with
        # n = (-uy, ux). The anchor is the foot of the first ignition on the
        # edge in the plane, at plane length t0 from the start corner.
        fx = origin.x if ex else sx
        fy = origin.y if ey else sy
        t0 = (fx - sx) * ex + (fy - sy) * ey
        qx, qy = to_frame(fx, fy, 0.0)
        q = qx * ux + qy * uy
        hn = qy * ux - qx * uy
        params = [q - t0 * scale, q + (length - t0) * scale]
        for i, (cx, cy, r) in enumerate(circles):
            # The circle meets the line at s' = its centre's s' -+ ``half``,
            # -off n -+ half (ux, uy) from its centre.
            off = cy * ux - cx * uy - hn
            disc = r * r - off * off
            if disc >= 0.0:
                half = math.sqrt(disc)
                foot = cx * ux + cy * uy
                for sign in (-1.0, 1.0):
                    cuts[i].append(math.atan2(sign * half * uy - off * ux, sign * half * ux + off * uy))
                    if params[0] < foot + sign * half < params[1]:
                        params.append(foot + sign * half)
        params.sort()
        for u, v in zip(params, params[1:]):
            if u < v:
                m = t0 + (0.5 * (u + v) - q) / scale  # plane length from the start
                pieces.append((0.5 * hn * (u - v), sx + m * ex, sy + m * ey, -1))

    tau = 2.0 * math.pi
    for i, ((cx, cy, r), (ignition, t)) in enumerate(zip(circles, owners)):
        fx, fy, fa, fb, cos_h, sin_h = model.frame(ignition, t)
        angles = sorted(a % tau for a in cuts[i]) or [0.0]
        for u, v in zip(angles, angles[1:] + [angles[0] + tau]):
            if u < v:
                sines, cosines = math.sin(v) - math.sin(u), math.cos(v) - math.cos(u)
                term = 0.5 * r * (r * (v - u) + cx * sines - cy * cosines)
                m = 0.5 * (u + v)
                ex, ey = fa * math.cos(m), fb * math.sin(m)
                pieces.append((term, fx + ex * cos_h - ey * sin_h, fy + ex * sin_h + ey * cos_h, i))

    px = np.array([p[1] for p in pieces])
    py = np.array([p[2] for p in pieces])
    owner = np.array([p[3] for p in pieces])
    covered = np.array([model.covers(ignition, t, px, py) for ignition, t in owners])
    arc = owner >= 0
    # An arc's own circle does not count against it, whatever rounding says.
    others = covered.sum(axis=0) - (covered[np.maximum(owner, 0), np.arange(owner.size)] & arc)
    inside = (px >= 0.0) & (px <= w) & (py >= 0.0) & (py <= h)
    keep = np.where(arc, inside & (others == 0), others > 0)
    total = math.fsum(p[0] for p, k in zip(pieces, keep.tolist()) if k)
    return max(total, 0.0) * (model.area(s) / math.pi)


def burned_union_area(
    fronts: Iterable[tuple[Point, object, float]],
    region: RectRegion,
) -> float:
    """Exact area of the union of burned sets, clipped to ``region``.

    ``fronts`` is a sequence of ``(ignition, model, t)`` triples, all of one
    spread model (else ``ParameterError``). The model gives each front's
    ``area(t)``, ``covers`` and ``clipped_area_exact``, and the frame that
    both spread models inherit: ``bounding_box``, ``frame`` and
    ``frame_centre(x, y, t)``. Fronts at t = 0 burn nothing and are dropped;
    the rest are grouped by the pairs that meet. A front that meets no other
    is measured alone: ``area(t)`` inside the region, ``clipped_area_exact``
    across its edge, and 0 if its bounding box misses the region. A group of
    fronts that meet is measured by Green's theorem in the model's frame
    (``_union_area``).
    """
    fronts = list(fronts)
    if not fronts:
        return 0.0
    model = fronts[0][1]
    if any(m != model for _, m, _ in fronts[1:]):
        raise ParameterError("fronts of one union must share one spread model")
    for _, _, t in fronts:
        if not t >= 0:
            raise DomainError(f"front time must be a nonnegative number, got {t}")
    # Kept, a front at t = 0 could join a group and change its last bits.
    fronts = [f for f in fronts if f[2] > 0.0]

    total = 0.0
    w, h = region.width, region.height
    for group in _group_fronts(fronts):
        if len(group) > 1:
            total += _union_area([fronts[i] for i in group], region)
            continue
        ignition, _, t = fronts[group[0]]
        x0, y0, x1, y1 = model.bounding_box(ignition, t)
        if max(x0, 0.0) >= min(x1, w) or max(y0, 0.0) >= min(y1, h):
            continue  # the front's box misses the region
        inside = x0 >= 0.0 and y0 >= 0.0 and x1 <= w and y1 <= h
        total += model.area(t) if inside else model.clipped_area_exact(ignition, t, region)
    return total
