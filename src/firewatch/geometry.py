"""Planar primitives for fire-front geometry.

Provides the protected rectangle, the exact area of a disk intersected
with a convex polygon (which gives the clipped area of a circular or
elliptical front), measured for many disks at once as array work, and the
exact area of the union of fronts of one model, clipped to the region, for
one union or for many given as arrays. No spread model's shape is known
here: fronts are seen only through the model's methods.

In the model's frame every front is a disk, so which fronts meet is a test
on the distances of their centres, and the groups of fronts that meet are
the connected components of the pairs that pass it. Fronts that meet no
other are measured alone, all in one array pass, and every group of a call
in a second one, by Green's theorem in the frame: the boundary of each
clipped union is cut into arcs and pieces of the region's edges, and the
pieces of all groups are classified by their midpoints in one call of the
model's ``covers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, ParameterError, as_floats, check_finite, check_positive

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


class _Ignitions(NamedTuple):
    """Ignitions as arrays: passed to a spread model or to
    ``burned_union_area`` in place of a ``Point``, they broadcast against the
    other arrays of the call."""

    x: np.ndarray
    y: np.ndarray


def _map(f, *arrays) -> np.ndarray:
    """``f``, a function of floats from ``math``, elementwise over 1-D
    arrays of one length: numpy's own functions differ from ``math``'s in
    the last bit."""
    return np.fromiter(map(f, *(a.tolist() for a in arrays)), float, arrays[0].size)


def _hypot(x, y):
    """math.hypot, elementwise over two arrays of one shape."""
    if not isinstance(x, np.ndarray):
        return math.hypot(x, y)
    return _map(math.hypot, x.ravel(), y.ravel()).reshape(x.shape)




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
    theta = _map(math.atan2, sines, cosines)
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
    cx, cy = np.asarray(center.x, dtype=float), np.asarray(center.y, dtype=float)
    r = as_floats("radius", radius)
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


def _union_areas(model, region: RectRegion, x, y, t, starts) -> np.ndarray:
    """Exact areas of the unions of groups of fronts of one model, each
    clipped to ``region``.

    ``x``, ``y`` and ``t`` are 1-D arrays of the fronts of every group, one
    group after another, all at t > 0, and ``starts`` holds the index of
    each group's first front. The model's frame maps each front at time t
    to the disk of radius t about its ``frame_centre``, and the region to a
    parallelogram. A group's frame is taken about its first front, with its
    ignition subtracted in the plane, and scaled by 1/s, s the group's
    latest time: the disks then have radii at most 1 near the origin,
    wherever the fronts lie and whatever the rate. Green's theorem sums
    ``(x dy - y dx) / 2`` over the boundary of each clipped union: the arcs
    of each circle that lie inside the region and outside every other front
    of its group, and the pieces of the region's edges that some front of
    the group covers. The pieces are cut at every crossing and classified
    by their midpoints in the plane, against the region's bounds and, in
    one ``covers`` call, each front of their group. A group's kept terms
    are summed by ``math.fsum``; times ``model.area(s) / pi``, that is its
    area.

    Every step is that of the formula for one group in Python floats: + -
    * /, sqrt and % round alike in numpy, the clamps keep Python's choice
    of operand, and the functions of ``math`` are mapped over the arrays.
    """
    size = np.concatenate((starts[1:], [t.size])) - starts
    s = np.maximum.reduceat(t, starts)
    area = np.full(starts.size, region.area, dtype=float)  # a front of infinite age covers it
    finite = s < math.inf
    if not finite.any():
        return area
    if not finite.all():
        keep = np.repeat(finite, size)
        x, y, t, s, size = x[keep], y[keep], t[keep], s[finite], size[finite]
        starts = np.cumsum(size) - size
    n, groups = t.size, starts.size
    group = np.repeat(np.arange(groups), size)
    # The frame's map is linear plus a drift in t, so the frame centre of
    # (x, y) at t less that of the group's first front is the frame centre
    # of (x, y) less the first ignition, at t, less that of the origin at
    # the first t.
    x0, y0 = x[starts], y[starts]
    ox, oy = model.frame_centre(np.zeros(groups), np.zeros(groups), t[starts])

    def to_frame(px, py, pt, g):
        fx, fy = model.frame_centre(px - x0[g], py - y0[g], pt)
        return (fx - ox[g]) / s[g], (fy - oy[g]) / s[g]

    cx, cy = to_frame(x, y, t, group)
    r = t / s[group]

    # Every pair i < j of fronts of one group. A front that repeats an
    # earlier one adds nothing.
    later = (starts + size)[group] - np.arange(n) - 1
    i = np.repeat(np.arange(n), later)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(later) - later, later)
    repeat = np.zeros(n, bool)
    repeat[j[(cx[i] == cx[j]) & (cy[i] == cy[j]) & (r[i] == r[j])]] = True
    circles = (~repeat).nonzero()[0]
    pair = ~repeat[i] & ~repeat[j]
    i, j = i[pair], j[pair]
    # The pairs of circles that cross or touch.
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    d = _hypot(dx, dy)
    ri, rj = r[i], r[j]
    cross = (abs(ri - rj) <= d) & (d <= ri + rj)
    i, j, dx, dy, d, ri, rj = (v[cross] for v in (i, j, dx, dy, d, ri, rj))

    # Each edge, counterclockwise, as its start corner, its unit direction
    # and its length in the plane; per (group, edge), the frame length of a
    # unit of plane length along the edge. An edge with no length in the
    # frame is skipped.
    w, h = region.width, region.height
    sx, sy = np.array([0.0, w, w, 0.0]), np.array([0.0, 0.0, h, h])
    ex, ey = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])
    length = np.array([w, h, w, h])
    lx, ly = model.frame_centre(ex * length, ey * length, 0.0)
    lam = _hypot(lx, ly)
    ux, uy = lx / lam, ly / lam
    scale = lam / s[:, None] / length
    # Points of the edge's line are measured by their length s' along
    # (ux, uy) from the foot of the frame origin's perpendicular, which
    # lies near the fronts that reach the edge: hn n + s' (ux, uy), with
    # n = (-uy, ux). The anchor is the foot of the group's first ignition
    # on the edge in the plane, at plane length t0 from the start corner.
    fx = np.where(ex != 0.0, x0[:, None], sx)
    fy = np.where(ey != 0.0, y0[:, None], sy)
    t0 = (fx - sx) * ex + (fy - sy) * ey
    qx, qy = to_frame(fx, fy, 0.0, (slice(None), None))
    q = qx * ux + qy * uy
    hn = qy * ux - qx * uy
    lo, hi = q - t0 * scale, q + (length - t0) * scale
    # A circle meets an edge's line at s' = its centre's s' -+ ``half``,
    # -off n -+ half (ux, uy) from its centre: the two ends of a chord.
    off = cy[circles, None] * ux - cx[circles, None] * uy - hn[group[circles]]
    disc = r[circles, None] * r[circles, None] - off * off
    row, e = ((scale[group[circles]] > 0.0) & (disc >= 0.0)).nonzero()
    half = np.sqrt(disc[row, e])
    foot = cx[circles[row]] * ux[e] + cy[circles[row]] * uy[e]
    along = np.concatenate((-half, half))
    c, e, off, foot = (np.concatenate((v, v)) for v in (circles[row], e, off[row, e], foot))
    g = group[c]
    p = foot + along
    on = (lo[g, e] < p) & (p < hi[g, e])

    # The cuts on each circle: by each circle it crosses or touches, and at
    # the ends of its chords.
    dd, ri2, rj2 = d * d, ri * ri, rj * rj
    z = np.concatenate(((dd + ri2 - rj2) / (2.0 * d * ri), (dd + rj2 - ri2) / (2.0 * d * rj)))
    # max(-1.0, min(1.0, z)), with Python's choice of operand: NaN gives 1.0.
    z = np.where(z < 1.0, z, 1.0)
    acos = _map(math.acos, np.where(z > -1.0, z, -1.0))
    ai, aj = acos[: d.size], acos[d.size :]
    atan = _map(math.atan2, np.concatenate((dy, along * uy[e] - off * ux[e])),
                np.concatenate((dx, along * ux[e] + off * uy[e])))
    phi = atan[: d.size]
    cut_of = np.concatenate((i, i, j, j, c))
    cuts = np.concatenate((phi - ai, phi + ai, (phi + math.pi) - aj, (phi + math.pi) + aj,
                           atan[d.size :]))

    # The pieces of the edges between their sorted cuts, as their Green's
    # terms, midpoints in the plane, groups and owners (-1: an edge).
    edges = (scale > 0.0).ravel().nonzero()[0]  # as flat (group, edge) indices
    key = np.concatenate((edges, edges, (g * 4 + e)[on]))
    val = np.concatenate((lo.ravel()[edges], hi.ravel()[edges], p[on]))
    order = np.lexsort((val, key))
    key, val = key[order], val[order]
    piece = (key[:-1] == key[1:]) & (val[:-1] < val[1:])
    u, v, ge = val[:-1][piece], val[1:][piece], key[:-1][piece]
    e = ge % 4
    m = t0.ravel()[ge] + (0.5 * (u + v) - q.ravel()[ge]) / scale.ravel()[ge]
    terms = [0.5 * hn.ravel()[ge] * (u - v)]
    px, py = [sx[e] + m * ex[e]], [sy[e] + m * ey[e]]
    owner = [np.full(ge.size, -1)]
    piece_group = [ge // 4]

    # The arcs of each circle between its sorted cuts, and round to the
    # first; a circle without a cut is one arc from angle 0.
    tau = 2.0 * math.pi
    bare = circles[np.bincount(cut_of, minlength=n)[circles] == 0]
    cut_of = np.concatenate((cut_of, bare))
    angle = np.concatenate((cuts % tau, np.zeros(bare.size)))
    order = np.lexsort((angle, cut_of))
    cut_of, angle = cut_of[order], angle[order]
    first = np.concatenate(([True], cut_of[1:] != cut_of[:-1])).nonzero()[0]
    ends = np.concatenate((angle, angle[first] + tau))
    sines, cosines = _map(math.sin, ends), _map(math.cos, ends)
    nxt = np.arange(1, angle.size + 1)
    nxt[first[1:] - 1] = angle.size + np.arange(first.size - 1)
    nxt[-1] = ends.size - 1
    arc = (angle < ends[nxt]).nonzero()[0]
    o, u, v, nxt = cut_of[arc], angle[arc], ends[nxt[arc]], nxt[arc]
    ro = r[o]
    sin_d, cos_d = sines[nxt] - sines[arc], cosines[nxt] - cosines[arc]
    terms.append(0.5 * ro * (ro * (v - u) + cx[o] * sin_d - cy[o] * cos_d))
    m = 0.5 * (u + v)
    fx, fy, fa, fb, cos_h, sin_h = model.frame(_Ignitions(x[o], y[o]), t[o])
    ax, ay = fa * _map(math.cos, m), fb * _map(math.sin, m)
    px.append(fx + ax * cos_h - ay * sin_h)
    py.append(fy + ax * sin_h + ay * cos_h)
    owner.append(o)
    piece_group.append(group[o])
    terms, px, py, owner, piece_group = (
        np.concatenate(v) for v in (terms, px, py, owner, piece_group)
    )

    # Each piece is tested against every front of its group but repeats, in
    # one call: slot k of a piece is the k-th circle of its group.
    per_group = np.bincount(group[circles], minlength=groups)
    slots = np.arange(per_group.max())
    tested, slot = (slots < per_group[piece_group][:, None]).nonzero()
    front = circles[(np.cumsum(per_group) - per_group)[piece_group[tested]] + slot]
    covered = model.covers(_Ignitions(x[front], y[front]), t[front], px[tested], py[tested])
    # An arc's own circle does not count against it, whatever rounding says.
    others = np.bincount(tested[covered & (front != owner[tested])], minlength=terms.size)
    inside = (px >= 0.0) & (px <= w) & (py >= 0.0) & (py <= h)
    keep = np.where(owner >= 0, inside & (others == 0), others > 0)
    kept_group = piece_group[keep]
    order = np.argsort(kept_group, kind="stable")
    kept = terms[keep][order].tolist()
    bounds = np.searchsorted(kept_group[order], np.arange(groups + 1)).tolist()
    total = np.array([math.fsum(kept[a:b]) for a, b in zip(bounds, bounds[1:])])
    area[finite] = np.where(0.0 > total, 0.0, total) * (model.area(s) / math.pi)
    return area


def _box_inside(model, xs, ys, t, x0, y0, x1, y1) -> np.ndarray:
    """Whether the bounding box of each front from ``(xs, ys)`` at time ``t``
    lies in the rectangle [x0, x1] x [y0, y1]; infinite sides hold any box."""
    # The box at t = 1 around an ignition at the origin; fronts grow
    # affinely, so at time t it is t times this box.
    bx0, by0, bx1, by1 = model.bounding_box(Point(0.0, 0.0), 1.0)
    return (
        (xs + t * bx0 >= x0) & (ys + t * by0 >= y0) & (xs + t * bx1 <= x1) & (ys + t * by1 <= y1)
    )


def _lone_areas(model, region: RectRegion, xs, ys, t) -> np.ndarray:
    """Areas of the fronts from ``(xs, ys)`` at ``t``, 1-D arrays of one
    length, each measured alone: ``area(t)`` if its bounding box lies in the
    region, 0 if the box misses the region, else its exact clip."""
    w, h = region.width, region.height
    area = model.area(t)
    # A front inside the region by 1e-9 of its sides burns area(t): the margin
    # covers the rounding of _box_inside against the front's bounding_box,
    # which decides the rest.
    mx, my = 1e-9 * w, 1e-9 * h
    edge = np.flatnonzero(~_box_inside(model, xs, ys, t, mx, my, w - mx, h - my))
    x0, y0, x1, y1 = model.bounding_box(_Ignitions(xs[edge], ys[edge]), t[edge])
    miss = (np.maximum(x0, 0.0) >= np.minimum(x1, w)) | (np.maximum(y0, 0.0) >= np.minimum(y1, h))
    inside = (x0 >= 0.0) & (y0 >= 0.0) & (x1 <= w) & (y1 <= h)
    area[edge[miss]] = 0.0
    clip = edge[~miss & ~inside]
    if clip.size:
        area[clip] = model.clipped_area_exact(_Ignitions(xs[clip], ys[clip]), t[clip], region)
    return area


def _groups(model, xs, ys, t) -> tuple[np.ndarray, np.ndarray]:
    """The groups of fronts that meet among the fronts of each row of the
    (rows, k) arrays ``(xs, ys, t)``, k > 1, as ``(members, starts)``:
    ``members`` holds the flat indices of each group's fronts in order, the
    groups one after another in the order of their first fronts, and
    ``starts`` the index in ``members`` of each group's first front. In the
    model's frame each front at time t is the disk of radius t about its
    ``frame_centre``, so two fronts meet iff those are at most t1 + t2 apart.
    """
    k = t.shape[1]
    live = t > 0.0  # fronts at t = 0 burn nothing and join no group
    cx, cy = model.frame_centre(xs, ys, t)
    pairs = []  # the flat indices of the fronts of each pair that meets
    for i in range(k - 1):
        reach = t[:, i, None] + t[:, i + 1 :]
        dx, dy = cx[:, i, None] - cx[:, i + 1 :], cy[:, i, None] - cy[:, i + 1 :]
        # math.hypot's distance is at least each gap; a NaN one keeps the pair.
        meet = live[:, i, None] & live[:, i + 1 :] & ~((abs(dx) > reach) | (abs(dy) > reach))
        meet[meet] = ~(_hypot(dx[meet], dy[meet]) > reach[meet])
        row, j = np.nonzero(meet)
        pairs.append((row * k + i, row * k + i + 1 + j))
    a, b = (np.concatenate(v) for v in zip(*pairs))
    if not a.size:
        return a, a
    # Each front's label falls across the pairs that meet to the least index
    # of its group.
    label = np.arange(t.size)
    while True:
        old = label.copy()
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
        if (label == old).all():
            break
    # np.unique would import numpy.ma, about 1 MB of resident memory.
    members = np.flatnonzero(np.bincount(np.concatenate([a, b])))
    members = members[np.argsort(label[members], kind="stable")]
    return members, np.flatnonzero(np.diff(label[members], prepend=-1))


def burned_union_area(
    fronts: Iterable[tuple[Point, object, float]],
    region: RectRegion,
) -> float | np.ndarray:
    """Exact area of the union of burned sets, clipped to ``region``.

    ``fronts`` is a sequence of ``(ignition, model, t)`` triples, all of one
    spread model (else ``ParameterError``). The model gives each front's
    ``area(t)``, ``covers`` and ``clipped_area_exact``, and the frame that
    both spread models inherit: ``bounding_box``, ``frame`` and
    ``frame_centre(x, y, t)``. Fronts at t = 0 burn nothing; the rest are
    grouped by the pairs that meet. The fronts that meet no other are
    measured alone in one array pass (``_lone_areas``), and all the groups
    of the call in another, by Green's theorem in the model's frame with
    one ``covers`` call (``_union_areas``); the areas are added in the order
    of each group's first front.

    Each ignition's ``x`` and ``y`` and each ``t`` may be arrays that
    broadcast: the result is then the array of the areas of the unions
    taken elementwise, each with the bits of the call for its element. As
    for a ``Point``, a coordinate that is not finite is a ``ParameterError``.
    """
    fronts = list(fronts)
    if not fronts:
        return 0.0
    model, k = fronts[0][1], len(fronts)
    if any(m != model for _, m, _ in fronts[1:]):
        raise ParameterError("fronts of one union must share one spread model")
    shape = np.broadcast_shapes(*(np.shape(v) for p, _, t in fronts for v in (p.x, p.y, t)))
    xs, ys, t = (np.empty(shape + (k,)) for _ in range(3))
    for j, (ignition, _, tj) in enumerate(fronts):
        xs[..., j], ys[..., j], t[..., j] = ignition.x, ignition.y, as_floats("front time", tj)
    xs, ys, t = (v.reshape(-1, k) for v in (xs, ys, t))
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ParameterError("ignition x and y must be finite")
    bad = ~(t >= 0.0)
    if bad.any():
        raise DomainError(f"front time must be a nonnegative number, got {t[bad][0]}")
    # Fronts of infinite age take steps past the floats.
    with np.errstate(all="ignore"):
        area = _lone_areas(model, region, xs.ravel(), ys.ravel(), t.ravel())
        members, starts = _groups(model, xs, ys, t) if k > 1 else (np.empty(0, int),) * 2
        if members.size:
            union = _union_areas(model, region, xs.flat[members], ys.flat[members],
                                 t.flat[members], starts)
            area[members] = 0.0
            area[members[starts]] = union
    area = area.reshape(-1, k)
    total = np.zeros(len(area))
    for j in range(k):
        total = total + area[:, j]
    return _float_or_array(total.reshape(shape))
