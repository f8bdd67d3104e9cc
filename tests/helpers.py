"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
implementation under test: bisection on the front-membership predicate,
the front's quadratic in 60-digit decimal arithmetic for reach times,
chord-length quadrature for circle/rectangle and ellipse/rectangle overlap
and for a union of fronts of one model clipped to a rectangle,
the textbook two-circle lens formula, the clip's formula one Python
float at a time for the array clip, the union-find grouping and the lone
fronts one at a time for ``burned_union_area`` on arrays, a dense
per-trial sensor draw for the engine's lazy cell-by-cell sampler, and a
trial-by-trial run of a fixed layout for the engine's batched one.
``time_to`` is no oracle: it is a model's own ``reach_times`` at one
point, for the tests that check it.
"""

import math
import warnings
from decimal import Context, Decimal, localcontext

import numpy as np
from scipy import integrate, optimize

from firewatch import geometry
from firewatch.geometry import Point
from firewatch.montecarlo import detection_time
from firewatch.placement import build_layout
from firewatch.propagation import CircularModel, ellipse_axis_rates


def time_to(model, ign, tgt) -> float:
    """The reach time of ``model``'s front from ``ign`` to the point ``tgt``."""
    return float(model.reach_times(ign, np.asarray(tgt.x), np.asarray(tgt.y)))


def front_member(rate, hb, lb, heading, ign, tgt, t):
    """Membership of ``tgt`` in the elliptical burned set at time ``t``."""
    if t <= 0:
        return tgt.x == ign.x and tgt.y == ign.y
    a, b, c = ellipse_axis_rates(rate, hb, lb)
    dx, dy = tgt.x - ign.x, tgt.y - ign.y
    ch, sh = math.cos(heading), math.sin(heading)
    x = dx * ch + dy * sh
    y = -dx * sh + dy * ch
    return ((x - c * t) / (a * t)) ** 2 + (y / (b * t)) ** 2 <= 1.0


def bisect_reach_time(rate, hb, lb, heading, ign, tgt):
    """Reach time by doubling + bisection on the membership predicate."""
    d = math.hypot(tgt.x - ign.x, tgt.y - ign.y)
    if d == 0:
        return 0.0
    hi = d / rate  # the head is the fastest direction, so this lower-bounds t
    for _ in range(200):
        if front_member(rate, hb, lb, heading, ign, tgt, hi):
            break
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if front_member(rate, hb, lb, heading, ign, tgt, mid):
            hi = mid
        else:
            lo = mid
    return hi


def exact_reach_times(model, dx, dy) -> list:
    """Reach times of an elliptical ``model`` from an ignition to the points
    at plane offsets ``(dx, dy)``, as 60-digit ``Decimal``s.

    The offsets are turned to the heading in floats, by the same products
    and sums of the heading's float cosine and sine as the model's frame,
    so that the rotation's rounding is not counted against the solve. The
    front's equation ``((x - c t)/a)^2 + (y/b)^2 = t^2`` at unit rate is
    then the quadratic ``A t^2 + B t - C = 0`` with ``A = b^2 (a - c)(a + c)
    = b^2 / hb``, ``B = 2 c b^2 x`` and ``C = b^2 x^2 + a^2 y^2``, with a, b
    and c from the float ratios, solved for its root t >= 0 without
    cancellation and divided by the rate.
    """
    _, _, _, cos_h, sin_h = model.shape
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    xs, ys = dx * cos_h + dy * sin_h, dy * cos_h - dx * sin_h
    times = []
    with localcontext(Context(prec=60, Emax=10**6, Emin=-(10**6))):
        hb, lb, rate = Decimal(model.hb_ratio), Decimal(model.lb_ratio), Decimal(model.rate)
        a, c = (1 + 1 / hb) / 2, (1 - 1 / hb) / 2
        b2 = (a / lb) ** 2
        for x, y in zip(map(Decimal, xs.tolist()), map(Decimal, ys.tolist())):
            quad_a, quad_b, quad_c = b2 / hb, 2 * c * b2 * x, b2 * x * x + a * a * y * y
            root = (quad_b * quad_b + 4 * quad_a * quad_c).sqrt()
            if quad_c == 0:
                t = Decimal(0)
            elif quad_b > 0:
                t = 2 * quad_c / (quad_b + root)
            else:
                t = (root - quad_b) / (2 * quad_a)
            times.append(t / rate)
    return times


def quad_disk_rect(cx, cy, r, width, height):
    """Disk/rectangle overlap via chord-length quadrature."""

    def chord(x):
        dy = r * r - (x - cx) ** 2
        if dy <= 0:
            return 0.0
        dy = math.sqrt(dy)
        return max(0.0, min(cy + dy, height) - max(cy - dy, 0.0))

    lo, hi = max(0.0, cx - r), min(width, cx + r)
    if lo >= hi:
        return 0.0
    with warnings.catch_warnings():
        # sqrt endpoints keep quad from hitting 1e-12; its ~1e-5 result is
        # still far tighter than the tolerances asserted against it
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            chord,
            lo,
            hi,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-12,
            points=[p for p in (cx - r, cx, cx + r) if lo < p < hi],
        )
    return val


def quad_ellipse_rect(rate, hb, lb, heading, ign, t, width, height):
    """Elliptical front/rectangle overlap via chord-length quadrature.

    Integrates, in the region frame, the length of the front's vertical
    chord at ``x`` clipped to ``[0, height]``. With ``x = xc - X cos(s)``,
    where ``xc +- X`` bound the front, the chord's endpoints are smooth in
    ``s``; the only kinks left are where they cross ``y = 0`` or
    ``y = height``, and quad is told about those.
    """
    a, b, c = ellipse_axis_rates(rate, hb, lb)
    ax, by = a * t, b * t
    ch, sh = math.cos(heading), math.sin(heading)
    xc, yc = ign.x + c * t * ch, ign.y + c * t * sh
    # At offset dx from the center the chord solves
    # p y^2 + 2 q dx y + r dx^2 = 1, with p r - q^2 = 1 / (ax by)^2.
    p = (sh / ax) ** 2 + (ch / by) ** 2
    q = ch * sh * (1 / ax**2 - 1 / by**2)
    rp = math.sqrt(p)
    half = rp * ax * by

    def chord(s):
        # The chord's ends are y = yc + (q X cos s -+ sqrt(p) sin s) / p.
        mid = yc + q * half * math.cos(s) / p
        lo, hi = mid - math.sin(s) / rp, mid + math.sin(s) / rp
        return max(0.0, min(hi, height) - max(lo, 0.0)) * half * math.sin(s)

    s_lo = math.acos(min(1.0, max(-1.0, xc / half)))
    s_hi = math.acos(min(1.0, max(-1.0, (xc - width) / half)))
    if s_lo >= s_hi:
        return 0.0
    # Each chord end is yc + m cos(s -+ phi) / p: solve it for y = 0, height.
    m = math.hypot(q * half, rp)
    phi = math.atan2(rp, q * half)
    kinks = []
    for level in (0.0, height):
        z = p * (level - yc) / m
        if abs(z) < 1:
            for sign in (-1, 1):
                for root in (math.acos(z), -math.acos(z)):
                    s = (sign * phi + root) % (2 * math.pi)
                    if s_lo < s < s_hi:
                        kinks.append(s)
    val, _ = integrate.quad(
        chord, s_lo, s_hi, limit=400, epsabs=1e-13, epsrel=1e-13, points=sorted(kinks) or None
    )
    return val


def _front_ellipse(model, ign, t):
    """A front in the plane as ``(x, y, A, B, heading)``: its centre and its
    semi-axes along and across the heading, from the model's fields."""
    heading = getattr(model, "heading", 0.0)
    a, b, c = ellipse_axis_rates(
        model.rate, getattr(model, "hb_ratio", 1.0), getattr(model, "lb_ratio", 1.0)
    )
    x, y = ign.x + c * t * math.cos(heading), ign.y + c * t * math.sin(heading)
    return x, y, a * t, b * t, heading


def quad_union_rect(fronts, width, height):
    """Area of the union of ``fronts``, ``(ignition, model, t)`` triples of
    one model, within [0, width] x [0, height], by chord-length quadrature.

    The integrand is the length of the union of the fronts' vertical chords
    at ``x``, clipped to [0, height]; each chord solves its ellipse's
    quadratic in y. The union's structure changes only at the region's
    sides, at each front's leftmost and rightmost x, where a front's
    boundary crosses y = 0 or y = height, and where two boundaries cross
    (found by bisection along one of them). ``quad`` integrates between
    each pair of these x, under x = mid - half cos(s), which smooths the
    square-root ends of the chords.
    """
    shapes = []
    for ign, model, t in fronts:
        if t == 0:
            continue  # a front at t = 0 covers no area
        x, y, a, b, heading = _front_ellipse(model, ign, t)
        ch, sh = math.cos(heading), math.sin(heading)
        # At offset dx from the centre the chord solves
        # p dy^2 + 2 q dx dy + r dx^2 = 1, with p r - q^2 = 1 / (a b)^2.
        p = (sh / a) ** 2 + (ch / b) ** 2
        q = ch * sh * (1 / a**2 - 1 / b**2)
        r = (ch / a) ** 2 + (sh / b) ** 2
        shapes.append((x, y, a, b, ch, sh, p, q, r))

    xs = [0.0, width]
    for x, y, a, b, ch, sh, p, q, r in shapes:
        half = a * b * math.sqrt(p)
        xs += [x - half, x + half]
        for level in (0.0, height):
            dy = level - y
            disc = (q * dy) ** 2 - r * (p * dy * dy - 1)
            if disc >= 0:
                xs += [x + (-q * dy + sign * math.sqrt(disc)) / r for sign in (-1, 1)]
    theta = np.linspace(0.0, 2 * math.pi, 4097)
    for i, (x, y, a, b, ch, sh, *_) in enumerate(shapes):
        def boundary(th):
            u, v = a * np.cos(th), b * np.sin(th)
            return x + u * ch - v * sh, y + u * sh + v * ch

        for j, (xj, yj, _, _, _, _, p, q, r) in enumerate(shapes):
            if j == i:
                continue

            def g(th):
                bx, by = boundary(th)
                dx, dy = bx - xj, by - yj
                return p * dy * dy + 2 * q * dx * dy + r * dx * dx - 1

            vals = g(theta)
            for k in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
                root = optimize.brentq(g, theta[k], theta[k + 1], xtol=1e-15, rtol=1e-15)
                xs.append(float(boundary(root)[0]))
    xs = sorted({min(max(v, 0.0), width) for v in xs})

    def length(x):
        spans = []
        for xc, yc, a, b, _, _, p, q, _ in shapes:
            dx = x - xc
            disc = p - (dx / (a * b)) ** 2
            if disc > 0:
                mid, reach = yc - q * dx / p, math.sqrt(disc) / p
                lo, hi = max(mid - reach, 0.0), min(mid + reach, height)
                if lo < hi:
                    spans.append((lo, hi))
        total, end = 0.0, -math.inf
        for lo, hi in sorted(spans):
            if hi > end:
                total += hi - max(lo, end)
                end = hi
        return total

    area = 0.0
    for lo, hi in zip(xs, xs[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        val, _ = integrate.quad(
            lambda s: length(mid - half * math.cos(s)) * half * math.sin(s),
            0.0, math.pi, limit=200, epsabs=1e-15, epsrel=1e-13,
        )
        area += val
    return area


def _sector_area(ux, uy, vx, vy, r2):
    theta = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
    return 0.5 * r2 * theta


def _tri_disk_area(ax, ay, bx, by, r):
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


def scalar_disk_polygon_area(vertices, radius):
    """Area of disk(origin, radius) intersected with a convex polygon, its
    corners counterclockwise: the sum over the edges of the disk's signed
    overlap with the triangle of the origin and the edge, one Python float
    at a time. The engine's array clip must give these bits."""
    total = 0.0
    for i in range(len(vertices)):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % len(vertices)]
        total += _tri_disk_area(ax, ay, bx, by, radius)
    return max(total, 0.0)


def scalar_clipped_area(model, ign, t, region):
    """A front's area clipped to ``region`` by ``scalar_disk_polygon_area``,
    in the frame the model's ``clipped_area_exact`` uses: a circle measured
    in units of its farthest corner offset's power of two, an ellipse in the
    model's ``_to_frame`` at reach ``rate * t``."""
    w, h = region.width, region.height
    plane = ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h))
    if isinstance(model, CircularModel):
        radius = model.rate * t
        if radius == 0.0:
            return 0.0
        corners = [(x - ign.x, y - ign.y) for x, y in plane]
        e = math.frexp(max(abs(v) for corner in corners for v in corner))[1]
        e = min(max(e, -1023), 1023)
        unit, inv = math.ldexp(1.0, e), math.ldexp(1.0, -e)
        area = scalar_disk_polygon_area([(x * inv, y * inv) for x, y in corners], radius * inv)
        return area * unit * unit
    if t <= 0.0:
        return 0.0
    r = model.rate * t
    a, b = model.shape[:2]
    corners = [model._to_frame(x - ign.x, y - ign.y, r, r) for x, y in plane]
    return (a * r) * (b * r) * scalar_disk_polygon_area(corners, 1.0)


def _group_fronts(fronts):
    """Groups of indices of ``fronts``, all of one model, joined by the pairs
    whose frame centres are at most t1 + t2 apart: a union-find over pairs,
    in the order of each group's first front."""
    centres = [model.frame_centre(ignition.x, ignition.y, t) for ignition, model, t in fronts]
    parent = list(range(len(fronts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(fronts)):
        for j in range(i + 1, len(fronts)):
            (xi, yi), (xj, yj) = centres[i], centres[j]
            # A NaN distance keeps the pair together.
            if not math.hypot(xi - xj, yi - yj) > fronts[i][2] + fronts[j][2]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(fronts)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def scalar_burned_union_area(fronts, region):
    """Area of the union of ``fronts``, ``(Point, model, t)`` triples of one
    model, clipped to ``region``, one front at a time in Python floats: the
    fronts at t > 0 grouped by a union-find over the pairs that meet, each
    group of several measured by ``geometry._union_area``, each lone front by
    its bounding box, ``area(t)`` and ``scalar_clipped_area``, and the
    groups added in the order of their first fronts. ``burned_union_area``
    must give these bits, and call ``_union_area`` on the same groups."""
    fronts = [f for f in fronts if f[2] > 0.0]
    total = 0.0
    w, h = region.width, region.height
    for group in _group_fronts(fronts):
        if len(group) > 1:
            total += geometry._union_area([fronts[i] for i in group], region)
            continue
        ignition, model, t = fronts[group[0]]
        x0, y0, x1, y1 = model.bounding_box(ignition, t)
        if max(x0, 0.0) >= min(x1, w) or max(y0, 0.0) >= min(y1, h):
            continue  # the front's box misses the region
        inside = x0 >= 0.0 and y0 >= 0.0 and x1 <= w and y1 <= h
        total += model.area(t) if inside else scalar_clipped_area(model, ignition, t, region)
    return total


def per_trial_burned_areas(config, t_d, xs, ys):
    """Burned areas of trials with detection times ``t_d`` and ignitions the
    rows of ``(xs, ys)``, one ``scalar_burned_union_area`` per trial: F(t)
    for one unclipped front or a time that is not finite, else the clipped
    union of the trial's fronts."""
    model, region = config.model, config.region
    areas = model.area(t_d)
    if config.ignition_count == 1 and not config.clip_to_region:
        return areas
    for i in np.flatnonzero(np.isfinite(t_d)).tolist():
        t = float(t_d[i])
        fronts = [(Point(x, y), model, t) for x, y in zip(xs[i].tolist(), ys[i].tolist())]
        areas[i] = scalar_burned_union_area(fronts, region)
    return areas


def lens_union_area(r, d):
    """Union area of two radius-r disks with centers ``d`` apart (d < 2r)."""
    lens = 2 * r * r * math.acos(d / (2 * r)) - 0.5 * d * math.sqrt(4 * r * r - d * d)
    return 2 * math.pi * r * r - lens


def dense_detection_times(config, seed):
    """Detection times of ``config.trials`` trials drawn densely.

    Each trial draws all N sensors i.i.d. uniform over the region, then the
    ignitions, from the Philox key ``(seed, trial)``, and takes the minimum
    reach time over every (ignition, sensor) pair.
    """
    region = config.region
    scale = np.array([region.width, region.height])
    out = np.empty(config.trials)
    for i in range(config.trials):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        positions = rng.random((config.placement.count, 2)) * scale
        ignitions = rng.random((config.ignition_count, 2)) * scale
        out[i] = detection_time(config.model, positions, ignitions)
    return out


def per_trial_outcomes(config, lo, hi):
    """``(t_d, a_d)`` arrays of trials [lo, hi) of a fixed-layout run, trial by trial.

    Each trial draws its ignitions from a fresh ``Philox(key=[master_seed,
    i])``, times every sensor of the layout with ``detection_time``, and takes
    F(t_d) for one unclipped front, else the clipped union of its fronts.
    """
    region, model, k = config.region, config.model, config.ignition_count
    positions = build_layout(config.placement, region, seed=config.master_seed).positions
    scale = np.array([region.width, region.height])
    t_out, a_out = np.empty(hi - lo), np.empty(hi - lo)
    for i in range(lo, hi):
        key = np.array([config.master_seed, i], dtype=np.uint64)
        ignitions = np.random.Generator(np.random.Philox(key=key)).random((k, 2)) * scale
        t_d = detection_time(model, positions, ignitions)
        if k == 1 and not config.clip_to_region:
            a_d = model.area(t_d)
        else:
            fronts = [(Point(float(x), float(y)), model, t_d) for x, y in ignitions]
            a_d = scalar_burned_union_area(fronts, region)
        t_out[i - lo] = t_d
        a_out[i - lo] = a_d
    return t_out, a_out
