"""Closed-form detection laws.

Grid placement admits an exact piecewise detection-time CDF with finite
support; random placement admits an exact finite-N burned-area survival law
``(1 - x/A)^N`` and, as the sensor count grows, an exponential limit with
parameter ``1 / D^2`` that is independent of the spread model and of the
number of ignition points.  Detection-time laws for random placement follow
by composing the limit with the deterministic growth law ``F(t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError, as_floats, check_count, check_positive
from .placement import _MAX_SENSORS, GridPlacement, characteristic_distance
from .propagation import CircularModel, SpreadModel

__all__ = [
    "AnalyticLaw",
    "grid_td_cdf",
    "grid_td_law",
    "grid_ad_law",
    "exact_burned_area_law",
    "limit_burned_area_law",
    "random_td_law",
    "scenario_laws",
    "plan",
]

# Recurring constant of the grid law: sqrt(2) + log(1 + sqrt(2)).
_GRID_MEAN_CONST = math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))


@dataclass(frozen=True)
class AnalyticLaw:
    """An evaluable survival function S(x) with optional closed-form moments.

    ``survival`` accepts scalars or arrays and clamps out-of-support
    arguments (S = 1 below 0, S = 0 above a finite upper support) so that it
    can always be compared against empirical CDFs.
    """

    survival: Callable[[np.ndarray], np.ndarray]
    mean: Optional[float] = None
    second_moment: Optional[float] = None
    variance: Optional[float] = None
    support_upper: Optional[float] = None
    name: str = ""


def _law(survival, **fields) -> AnalyticLaw:
    """The AnalyticLaw of ``survival`` with ``fields``: its arguments are
    clipped at 0, and a scalar argument gives a float."""

    def clamped(x):
        s = survival(np.clip(as_floats("law argument", x), 0.0, None))
        return float(s) if np.ndim(x) == 0 else s

    return AnalyticLaw(survival=clamped, **fields)


def grid_td_cdf(x, spacing: float, rate: float):
    """P(T_d <= x) for a regular grid with the given spacing and spread rate.

    Piecewise in u = 2 * rate * x / spacing: (pi/4) u^2 while the growing
    disk fits in the quarter cell (u <= 1), a disk-minus-corner expression
    for 1 <= u <= sqrt(2), and 1 beyond.  The quadratic power on the first
    branch is forced by the area-ratio derivation (quarter-disk area over
    quarter-cell area).
    """
    check_positive("spacing", spacing)
    check_positive("rate", rate)
    xa = as_floats("detection time", x)
    if np.any(xa < 0):
        raise DomainError("detection time must be nonnegative")
    c = 2.0 * rate / spacing
    # Overflow needs no warning here: an infinite u2 takes the last branch,
    # whatever the middle one gives.
    with np.errstate(over="ignore", invalid="ignore"):
        # Past c = 1e150, c ** 2 would overflow: square c x instead.
        u2 = c**2 * xa * xa if c < 1e150 else (c * xa) ** 2
        # An infinite c gives inf * 0 = NaN at x = 0, where the CDF is 0.
        u2 = np.where(xa == 0.0, 0.0, u2)
        excess = np.sqrt(np.maximum(u2 - 1.0, 0.0))
        middle = (math.pi / 4.0 - np.arctan(excess)) * u2 + excess
    cdf = np.where(u2 <= 1.0, (math.pi / 4.0) * u2, np.where(u2 < 2.0, middle, 1.0))
    return float(cdf) if np.ndim(x) == 0 else cdf


def grid_td_law(spacing: float, rate: float, ignitions: int = 1) -> AnalyticLaw:
    """Detection-time law of a regular grid: ``(1 - c(t))^k`` for ``k``
    independent ignitions, with closed-form moments for one.

    For one ignition, mean T_d = (sqrt(2) + log(1 + sqrt(2))) / 6 * D / rate
    and E[T_d^2] = D^2 / (6 rate^2), for the grid spacing D.
    """
    check_positive("spacing", spacing)
    check_positive("rate", rate)
    check_count("ignition count", ignitions, 1, _MAX_SENSORS)
    one = ignitions == 1
    ratio = spacing / rate
    return _law(
        lambda x: (1.0 - grid_td_cdf(x, spacing, rate)) ** ignitions,
        mean=_GRID_MEAN_CONST / 6.0 * ratio if one else None,
        second_moment=ratio * ratio / 6.0 if one else None,
        variance=(6.0 - _GRID_MEAN_CONST**2) / 36.0 * ratio * ratio if one else None,
        support_upper=spacing / (math.sqrt(2.0) * rate),
        name="grid detection time" if one else f"grid detection time ({ignitions} ignitions)",
    )


def grid_ad_law(spacing: float, rate: float) -> AnalyticLaw:
    """Burned-area-at-detection law of a grid (unclipped circular growth).

    A_d = pi (rate T_d)^2, so the survival is the detection-time survival
    evaluated at t(a) = sqrt(a / pi) / rate; the support ends at
    pi spacing^2 / 2, and the mean is (pi/6) spacing^2 whatever the rate.
    """
    check_positive("spacing", spacing)
    check_positive("rate", rate)
    return _law(
        lambda a: 1.0 - grid_td_cdf(np.sqrt(a / math.pi) / rate, spacing, rate),
        mean=math.pi / 6.0 * spacing * spacing,
        support_upper=math.pi * spacing * spacing / 2.0,
        name="grid burned area",
    )


def exact_burned_area_law(area: float, n: int) -> AnalyticLaw:
    """Exact finite-N burned-area law P(A_d > x) = (1 - x/area)^n with its
    moments.

    This is the void probability of the burned region and holds exactly for
    every n, every spread model and every number of ignition points, as long
    as the burned area is measured inside the region.
    """
    check_positive("area", area)
    check_count("sensor count", n, 1, _MAX_SENSORS)

    def survival(x):
        # Rounding 1 - x/area first would cost a relative error of about
        # n ulps; log1p keeps it near one. log1p(-1) is -inf, at x = area.
        with np.errstate(divide="ignore"):
            return np.exp(n * np.log1p(-np.minimum(x / area, 1.0)))

    return _law(
        survival,
        mean=area / (n + 1),
        second_moment=2.0 * area * area / ((n + 1) * (n + 2)),
        variance=n * area * area / ((n + 1) ** 2 * (n + 2)),
        support_upper=area,
        name=f"exact burned area (n={n})",
    )


def limit_burned_area_law(char_distance: float) -> AnalyticLaw:
    """Exponential burned-area limit law: mean D^2, variance D^4."""
    check_positive("characteristic distance", char_distance)
    d2 = char_distance * char_distance
    return _law(
        lambda x: np.exp(-x / d2),
        mean=d2,
        second_moment=2.0 * d2 * d2,
        variance=d2 * d2,
        name="limit burned area",
    )


def random_td_law(model: SpreadModel, char_distance: float) -> AnalyticLaw:
    """Limit detection-time law exp(-F(t)/D^2) for random placement.

    Circular spread gives mean D / (2 rate), E[T_d^2] = D^2 / (pi rate^2)
    and variance (4 - pi)/(4 pi) (D/rate)^2.  Elliptical spread rescales
    time by the model's ``time_scale`` k: the mean picks up k, the second
    moment and variance k^2.
    """
    check_positive("characteristic distance", char_distance)
    k = model.time_scale
    ratio = char_distance / model.rate
    return _law(
        lambda t: np.exp(-np.asarray(model.area(t)) / (char_distance * char_distance)),
        mean=k * ratio / 2.0,
        second_moment=k * k * ratio * ratio / math.pi,
        variance=k * k * (4.0 - math.pi) / (4.0 * math.pi) * ratio * ratio,
        name="limit detection time",
    )


def scenario_laws(config, char_distance: Optional[float] = None):
    """Laws of the detection time and the burned area of a
    ``montecarlo.ScenarioConfig``, chosen by placement kind and ignition
    count; None where no law applies.

    ``char_distance`` is the D that a random region was built from, as a
    square of area n D^2: the laws then take D and n D^2 as given, not as
    the region's sides give them back after rounding.
    """
    k = config.ignition_count
    clipped = config.clip_to_region or k > 1  # several fronts are always clipped
    if isinstance(config.placement, GridPlacement):
        if not isinstance(config.model, CircularModel):
            return None, None  # the grid closed forms assume circular spread
        spacing, rate = config.placement.spacing, config.model.rate
        return grid_td_law(spacing, rate, k), None if clipped else grid_ad_law(spacing, rate)
    n = config.placement.count
    if char_distance is None:
        area = config.region.area
        d = characteristic_distance(area, n)
    else:
        d, area = char_distance, n * char_distance * char_distance
    # k independent ignitions: exp(-k F(t) / D^2), the law of D / sqrt(k).
    td_law = random_td_law(config.model, d / math.sqrt(k))
    if clipped:
        # (1 - x/A)^N averages over layouts: a fixed layout has no law yet.
        resample = config.resample_layout_each_trial
        ad_law = exact_burned_area_law(area, n) if resample else None
    else:
        ad_law = limit_burned_area_law(d)
    return td_law, ad_law


def plan(
    area: float, model: SpreadModel, placement_kind: str, target_kind: str, target_value: float
) -> dict:
    """Size a network: spacing D and sensor count N hitting a mean target.

    ``target_kind`` is "area" (mean burned area at detection, m^2) or
    "time" (mean detection time, s); ``placement_kind`` ("grid" or "random")
    picks which family of laws to invert. Grid targets use the exact grid
    moment formulas (circular spread only); random targets invert the
    exponential-limit moments.
    """
    check_positive("area", area)
    check_positive("target", target_value)
    if target_kind not in ("area", "time"):
        raise ParameterError(f"unknown target kind {target_kind!r}")
    assumptions = []
    if placement_kind == "grid":
        if not isinstance(model, CircularModel):
            raise ParameterError("grid planning laws assume circular spread")
        if target_kind == "area":
            d = math.sqrt(6.0 * target_value / math.pi)
            assumptions.append("grid: mean burned area at detection = (pi/6) D^2")
        else:
            d = 6.0 * model.rate * target_value / _GRID_MEAN_CONST
            assumptions.append(
                "grid: mean detection time = (sqrt(2)+log(1+sqrt(2)))/6 * D/rate"
            )
    elif placement_kind == "random":
        if target_kind == "area":
            d = math.sqrt(target_value)
            assumptions.append("random placement, many sensors: mean burned area = D^2")
        else:
            k = model.time_scale
            d = 2.0 * model.rate * target_value / k
            assumptions.append("random placement, many sensors: mean detection time = k*D/(2*rate)")
            assumptions.append(f"time scale k = 2*sqrt(lb)/(1 + 1/hb) = {k!r}")
    else:
        raise ParameterError(f"unknown placement kind {placement_kind!r}")
    quotient = area / (d * d) if 0 < d * d < math.inf else math.inf
    if not math.isfinite(quotient):
        raise ParameterError(f"target {target_value} is out of range for area {area}")
    # Relative guard so exact-intent quotients (e.g. 10000.0) don't round up.
    n = math.ceil(quotient * (1.0 - 1e-12))
    return {"D": d, "N": int(n), "assumptions": assumptions}
