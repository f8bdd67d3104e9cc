"""Planar primitives for fire-front geometry.

Provides the protected rectangle, reach-time solving for elliptically
growing fronts, the exact area of a disk intersected with a convex polygon
(which gives the clipped area of one circular or elliptical front), and a
deterministic union-area estimator for groups of fronts that meet, clipped
to the region; fronts that meet no other are measured exactly.

The estimator is a jittered grid, refined until two levels agree. Each row
of a level is cut, per front, into the cells the front surely covers, the
cells beyond its reach and the cells its edge can cross. Only the last get
their jittered point, computed straight from the Philox counter, and are
tested: the estimate is that of drawing every point and testing every front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ParameterError
from .philox import philox4x64

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
# Edge cells per block of rows of the union-area sampler. Each cell's jitter
# comes from its own counter, so the estimate does not depend on the block;
# it only bounds the temporaries (~1 MB each).
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


def _group_fronts(fronts, boxes):
    """Groups of indices of ``fronts`` joined by the pairs whose clipped
    ``boxes`` touch and that meet.

    A model's affine frame maps each of its fronts at time t to the disk of
    radius t about the front's ``frame_centre``, so two fronts of one model
    meet iff their centres are at most t1 + t2 apart. Fronts of two models
    are taken to meet when their boxes touch.
    """
    # Union-find over pairs; front counts are small.
    centres = [model.frame_centre(ignition, t) for ignition, model, t in fronts]
    parent = list(range(len(boxes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def meet(i, j):
        (_, model_i, t_i), (_, model_j, t_j) = fronts[i], fronts[j]
        if model_i != model_j:
            return True
        (xi, yi), (xj, yj) = centres[i], centres[j]
        # A NaN distance keeps the pair together, for the sampler to measure.
        return not math.hypot(xi - xj, yi - yj) > t_i + t_j

    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if _boxes_touch(boxes[i], boxes[j]) and meet(i, j):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(boxes)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _cell_span(lo: float, hi: float, origin: float, step: float, n: int) -> tuple[int, int]:
    """Cells ``[i0, i1)`` of ``n`` cells of width ``step`` from ``origin`` that
    can hold a point of ``[lo, hi]``, widened by one cell on each side against
    rounding; a bound that is not finite, or NaN, leaves that side open."""
    a = (lo - origin) / step
    b = (hi - origin) / step
    i0 = min(math.floor(a) - 1, n) if 1.0 < a < math.inf else 0
    i1 = max(math.floor(b) + 2, 0) if -math.inf < b < n - 2 else n
    return i0, i1


def _front_rows(frame, front_box, box, n: int):
    """Where one front can and must cover the cells of the n x n grid over
    ``box``, numbered ``row * n + column``: for each row that its box can
    reach, the front can cover only the cells ``[l, r)`` and surely covers
    ``[p, q)``, with ``l <= p <= q <= r``, as the arrays ``(l, p, q, r)``.

    ``frame`` is the front as the ellipse ``(cx, cy, A, B, cos, sin)``. Each
    row's strip, widened by a margin far above the rounding of the points
    and of ``covers``, is cut with it: the cells beyond the front's x-extent
    over the strip cannot be covered, and those that lie, widened by the
    margin, between the chords of both of the strip's edges are. The cells
    only narrow those of ``_cell_span``; a front too small, too large or too
    far from the origin for the margin to hold keeps them all and surely
    covers none.
    """
    x0, y0, x1, y1 = box
    sx, sy = (x1 - x0) / n, (y1 - y0) / n
    c0, c1 = _cell_span(front_box[0], front_box[2], x0, sx, n)
    a0, a1 = _cell_span(front_box[1], front_box[3], y0, sy, n)
    base = np.arange(a0, a1) * n
    cx, cy, A, B, cos_h, sin_h = frame
    size = max(abs(x0), abs(x1), abs(y0), abs(y1)) + abs(cx) + abs(cy) + A
    if not (c0 < c1 and 1e-100 < B <= A < 1e100 and size < 1e100):
        r = base + max(c0, c1)
        return base + c0, r, r, r
    m = size * 2.0**-40
    ex, ey = math.hypot(A * cos_h, B * sin_h), math.hypot(A * sin_h, B * cos_h)
    # At height cy + z ey the chord is cx + k z -+ w sqrt(1 - z^2). Its right
    # end is furthest right, at cx + ex, for z = zr, and its left end
    # furthest left, at cx - ex, for z = -zr.
    k = cos_h * sin_h * (A - B) * ((A + B) / ey)
    w = A * (B / ey)
    zr = k / ex
    y = y0 + np.arange(a0, a1 + 1) * sy
    # The widened strip's edges, clipped to the ellipse's heights: an edge
    # beyond them cuts it in one point, so the strip holds no sure cell.
    z1 = np.minimum(np.maximum((y[:-1] - (cy + m)) / ey, -1.0), 1.0)
    z2 = np.minimum(np.maximum((y[1:] - (cy - m)) / ey, -1.0), 1.0)
    s1 = w * np.sqrt((1.0 - z1) * (1.0 + z1))
    s2 = w * np.sqrt((1.0 - z2) * (1.0 + z2))
    kz1, kz2 = k * z1, k * z2
    left = np.where((z1 <= -zr) & (-zr <= z2), -ex, np.minimum(kz1 - s1, kz2 - s2))
    right = np.where((z1 <= zr) & (zr <= z2), ex, np.maximum(kz1 + s1, kz2 + s2))
    inner_left = np.maximum(kz1 - s1, kz2 - s2)
    inner_right = np.minimum(kz1 + s1, kz2 + s2)
    l = np.minimum(np.maximum(np.floor((left + (cx - m - x0)) / sx), c0), c1)
    r = np.minimum(np.maximum(np.floor((right + (cx + m - x0)) / sx) + 1.0, l), c1)
    p = np.minimum(np.maximum(np.ceil((inner_left + (cx + m - x0)) / sx), l), r)
    q = np.minimum(np.maximum(np.floor((inner_right + (cx - m - x0)) / sx), p), r)
    return tuple(base + v.astype(np.int64) for v in (l, p, q, r))


def _merge_runs(starts, ends):
    """The union of the runs ``[starts, ends)`` as disjoint runs in order."""
    if not starts.size:
        return starts, ends
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    first = np.flatnonzero(np.concatenate([[True], starts[1:] > reach[:-1]]))
    return starts[first], reach[np.append(first[1:], starts.size) - 1]


def _in_runs(keys, starts, ends):
    """Whether each of the sorted ``keys`` lies in one of the disjoint
    sorted runs ``[starts, ends)``."""
    i = np.searchsorted(starts, keys, side="right") - 1
    return (i >= 0) & (keys < ends[np.maximum(i, 0)])


def _expand(starts, ends):
    """Every number of the runs ``[starts, ends)``, run after run."""
    lengths = ends - starts
    total = np.cumsum(lengths)
    return np.arange(total[-1] if total.size else 0) + np.repeat(starts - (total - lengths), lengths)


def _jitter(cells, n: int, seed: int):
    """The two uniforms of each of the sorted ``cells``: cell m takes words
    2m and 2m + 1 of ``Philox(key=[seed, _AREA_STREAM_TAG | n])``, the same
    words, in the same order, as the level's ``Generator.random((n, n, 2))``."""
    block = cells >> 1
    first = np.flatnonzero(np.diff(block, prepend=-1))
    words = np.stack(
        philox4x64(seed & _MASK64, _AREA_STREAM_TAG | n, block[first].astype(np.uint64) + np.uint64(1))
    )
    at = np.repeat(np.arange(first.size), np.diff(first, append=cells.size))
    odd = 2 * (cells & 1)
    return (
        (words[odd, at] >> np.uint64(11)) * 2.0**-53,
        (words[odd + 1, at] >> np.uint64(11)) * 2.0**-53,
    )


def _stratified_union_area(fronts, box, tol: float, seed: int) -> float:
    """Jittered-grid estimate of the covered area inside ``box``.

    The grid is refined (doubling per axis) until two successive estimates
    agree to half the requested relative tolerance.  All jitter comes from a
    dedicated counter-based stream keyed by (seed, resolution), so the result
    is a pure function of the inputs.  A cell that some front surely covers
    is a hit without its point; only the cells that a front's edge can
    cross get their point, straight from the stream's counter, and each is
    tested only against the fronts that can cover it.  The estimate is
    therefore that of drawing every point and testing every front on it.
    """
    x0, y0, x1, y1 = box
    lx, ly = x1 - x0, y1 - y0
    box_area = lx * ly
    front_boxes = [model.bounding_box(ignition, t) for ignition, model, t in fronts]
    frames = [model.frame(ignition, t) for ignition, model, t in fronts]
    n = 64
    n_max = 4096
    prev = None
    while True:
        rows = [_front_rows(*fb, box, n) for fb in zip(frames, front_boxes)]
        l, p, q, r = (np.concatenate(v) for v in zip(*rows))
        in_starts, in_ends = _merge_runs(p, q)
        hits = int((in_ends - in_starts).sum())
        # The edge cells [l, p) and [q, r) of every front, in row blocks of
        # about _SAMPLER_BLOCK cells, which bound the temporaries.
        starts, ends = np.concatenate([l, q]), np.concatenate([p, r])
        per_row = np.bincount(starts // n, weights=ends - starts, minlength=n)
        cuts = np.searchsorted(np.cumsum(per_row), np.arange(_SAMPLER_BLOCK, per_row.sum(), _SAMPLER_BLOCK))
        for lo, hi in zip(np.concatenate([[0], cuts]) * n, np.append(cuts, n) * n):
            take = (starts >= lo) & (starts < hi)
            cells = np.sort(_expand(starts[take], ends[take]))
            cells = cells[np.diff(cells, prepend=-1) != 0]
            cells = cells[~_in_runs(cells, in_starts, in_ends)]
            if not cells.size:
                continue
            row, col = np.divmod(cells, n)
            ux, uy = _jitter(cells, n, seed)
            px = x0 + (col + ux) * (lx / n)
            py = y0 + (row + uy) * (ly / n)
            covered = np.zeros(cells.size, dtype=bool)
            for (ignition, model, t), (f_l, _, _, f_r) in zip(fronts, rows):
                if not f_l.size:
                    continue
                i0, i1 = np.searchsorted(cells, [f_l[0], f_r[-1]])
                sel = i0 + np.flatnonzero(_in_runs(cells[i0:i1], f_l, f_r))
                if sel.size:
                    covered[sel] |= model.covers(ignition, t, px[sel], py[sel])
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
    must expose ``area(t)``, ``bounding_box(ignition, t)``, ``frame``,
    ``frame_centre``, ``covers`` and ``clipped_area_exact``.  Fronts are grouped by the pairs
    whose clipped bounding boxes touch and that meet (for two fronts of one
    model, exactly; fronts of two models are taken to meet when their boxes
    touch).  A front that meets no other is measured exactly: ``area(t)``
    inside the region, ``clipped_area_exact`` across its edge.  Only groups
    of fronts that meet are estimated, by stratified sampling over the hull
    of their clipped boxes at relative tolerance ``tol``.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    fronts = list(fronts)
    if not fronts:
        return 0.0
    raw_boxes = []
    for ignition, model, t in fronts:
        if not t >= 0:
            raise DomainError(f"front time must be a nonnegative number, got {t}")
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
    for group in _group_fronts([m[0] for m in live], clipped):
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
