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
from typing import Callable, Literal, Optional

import numpy as np

from .errors import DomainError, ParameterError
from .propagation import CircularModel, SpreadModel, burned_area, elliptical_time_scale

__all__ = [
    "AnalyticLaw",
    "GridMoments",
    "TdMoments",
    "grid_td_cdf",
    "grid_moments",
    "random_ad_survival_exact",
    "random_ad_survival_limit",
    "random_td_survival",
    "random_td_moments",
    "grid_td_law",
    "grid_ad_law",
    "exact_burned_area_law",
    "limit_burned_area_law",
    "random_td_law",
    "PlanRequest",
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

    def cdf(self, x):
        return 1.0 - self.survival(x)


@dataclass(frozen=True)
class GridMoments:
    mean_td: float
    second_moment_td: float
    var_td: float
    mean_ad: float


@dataclass(frozen=True)
class TdMoments:
    mean_td: float
    second_moment_td: float
    var_td: float


def _check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be positive and finite, got {value}")


def grid_td_cdf(x, spacing: float, rate: float):
    """P(T_d <= x) for a regular grid with the given spacing and spread rate.

    Piecewise in u = 2 * rate * x / spacing: (pi/4) u^2 while the growing
    disk fits in the quarter cell (u <= 1), a disk-minus-corner expression
    for 1 <= u <= sqrt(2), and 1 beyond.  The quadratic power on the first
    branch is forced by the area-ratio derivation (quarter-disk area over
    quarter-cell area).
    """
    _check_positive("spacing", spacing)
    _check_positive("rate", rate)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise DomainError("detection time must be nonnegative")
    u2 = (2.0 * rate / spacing) ** 2 * xa * xa
    excess = np.sqrt(np.maximum(u2 - 1.0, 0.0))
    middle = (math.pi / 4.0 - np.arctan(excess)) * u2 + excess
    cdf = np.where(u2 <= 1.0, (math.pi / 4.0) * u2, np.where(u2 < 2.0, middle, 1.0))
    return float(cdf) if np.ndim(x) == 0 else cdf


def grid_moments(spacing: float, rate: float) -> GridMoments:
    """Closed-form detection-time and burned-area moments for a grid.

    mean T_d = (sqrt(2) + log(1 + sqrt(2))) / 6 * spacing / rate,
    E[T_d^2] = spacing^2 / (6 rate^2), and the mean burned area at detection
    is (pi/6) spacing^2 independent of the rate.
    """
    _check_positive("spacing", spacing)
    _check_positive("rate", rate)
    ratio = spacing / rate
    mean_td = _GRID_MEAN_CONST / 6.0 * ratio
    second = ratio * ratio / 6.0
    var = (6.0 - _GRID_MEAN_CONST**2) / 36.0 * ratio * ratio
    return GridMoments(
        mean_td=mean_td,
        second_moment_td=second,
        var_td=var,
        mean_ad=math.pi / 6.0 * spacing * spacing,
    )


def random_ad_survival_exact(x, area: float, n: int, clamp: bool = False):
    """P(A_d > x) = (1 - x/area)^n for n uniformly placed sensors.

    This is the void probability of the burned region and holds exactly for
    every n, every spread model and every number of ignition points, as long
    as the burned area is measured inside the region.  With ``clamp`` the
    survival is clipped to [0, 1] instead of raising on out-of-range x.
    """
    _check_positive("area", area)
    if n < 1:
        raise ParameterError(f"sensor count must be >= 1, got {n}")
    xa = np.asarray(x, dtype=float)
    if clamp:
        frac = np.clip(xa / area, 0.0, 1.0)
    else:
        if np.any(xa < 0) or np.any(xa > area):
            raise DomainError("burned area must lie in [0, region area] (use clamp=True to clip)")
        frac = xa / area
    s = (1.0 - frac) ** n
    return float(s) if np.ndim(x) == 0 else s


def random_ad_survival_limit(x, char_distance: float):
    """Large-N limit P(A_d > x) = exp(-x / D^2) for random placement."""
    _check_positive("characteristic distance", char_distance)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise DomainError("burned area must be nonnegative")
    s = np.exp(-xa / (char_distance * char_distance))
    return float(s) if np.ndim(x) == 0 else s


def random_td_survival(t, model: SpreadModel, char_distance: float):
    """Large-N limit P(T_d > t) = exp(-F(t) / D^2) for random placement."""
    _check_positive("characteristic distance", char_distance)
    s = np.exp(-np.asarray(burned_area(model, t)) / (char_distance * char_distance))
    return float(s) if np.ndim(t) == 0 else s


def random_td_moments(model: SpreadModel, char_distance: float) -> TdMoments:
    """Limit-law detection-time moments for random placement.

    Circular spread gives mean D / (2 rate), E[T_d^2] = D^2 / (pi rate^2)
    and variance (4 - pi)/(4 pi) (D/rate)^2.  Elliptical spread rescales
    time by k = 2 sqrt(lb) / (1 + 1/hb): the mean picks up k, the second
    moment and variance k^2.
    """
    _check_positive("characteristic distance", char_distance)
    k = elliptical_time_scale(model)
    ratio = char_distance / model.rate
    mean = k * ratio / 2.0
    second = k * k * ratio * ratio / math.pi
    var = k * k * (4.0 - math.pi) / (4.0 * math.pi) * ratio * ratio
    return TdMoments(mean_td=mean, second_moment_td=second, var_td=var)


def grid_td_law(spacing: float, rate: float, ignitions: int = 1) -> AnalyticLaw:
    """Detection-time law of a regular grid: ``(1 - c(t))^k`` for ``k``
    independent ignitions, with closed-form moments for one."""
    m = grid_moments(spacing, rate)
    if ignitions < 1:
        raise ParameterError(f"ignition count must be >= 1, got {ignitions}")

    def survival(x):
        xa = np.clip(np.asarray(x, dtype=float), 0.0, None)
        s = (1.0 - grid_td_cdf(xa, spacing, rate)) ** ignitions
        return float(s) if np.ndim(x) == 0 else s

    one = ignitions == 1
    return AnalyticLaw(
        survival=survival,
        mean=m.mean_td if one else None,
        second_moment=m.second_moment_td if one else None,
        variance=m.var_td if one else None,
        support_upper=spacing / (math.sqrt(2.0) * rate),
        name="grid detection time" if one else f"grid detection time ({ignitions} ignitions)",
    )


def grid_ad_law(spacing: float, rate: float) -> AnalyticLaw:
    """Burned-area-at-detection law of a grid (unclipped circular growth).

    A_d = pi (rate T_d)^2, so the survival is the detection-time survival
    evaluated at t(a) = sqrt(a / pi) / rate; the support ends at
    pi spacing^2 / 2.
    """
    m = grid_moments(spacing, rate)

    def survival(a):
        aa = np.clip(np.asarray(a, dtype=float), 0.0, None)
        t = np.sqrt(aa / math.pi) / rate
        s = 1.0 - grid_td_cdf(t, spacing, rate)
        return float(s) if np.ndim(a) == 0 else s

    return AnalyticLaw(
        survival=survival,
        mean=m.mean_ad,
        support_upper=math.pi * spacing * spacing / 2.0,
        name="grid burned area",
    )


def exact_burned_area_law(area: float, n: int) -> AnalyticLaw:
    """Exact finite-N burned-area law (1 - x/area)^n with its moments."""
    _check_positive("area", area)
    if n < 1:
        raise ParameterError(f"sensor count must be >= 1, got {n}")

    def survival(x):
        return random_ad_survival_exact(x, area, n, clamp=True)

    return AnalyticLaw(
        survival=survival,
        mean=area / (n + 1),
        second_moment=2.0 * area * area / ((n + 1) * (n + 2)),
        variance=n * area * area / ((n + 1) ** 2 * (n + 2)),
        support_upper=area,
        name=f"exact burned area (n={n})",
    )


def limit_burned_area_law(char_distance: float) -> AnalyticLaw:
    """Exponential burned-area limit law: mean D^2, variance D^4."""
    _check_positive("characteristic distance", char_distance)
    d2 = char_distance * char_distance

    def survival(x):
        xa = np.clip(np.asarray(x, dtype=float), 0.0, None)
        s = np.exp(-xa / d2)
        return float(s) if np.ndim(x) == 0 else s

    return AnalyticLaw(
        survival=survival,
        mean=d2,
        second_moment=2.0 * d2 * d2,
        variance=d2 * d2,
        name="limit burned area",
    )


def random_td_law(model: SpreadModel, char_distance: float) -> AnalyticLaw:
    """Limit detection-time law exp(-F(t)/D^2) for random placement."""
    m = random_td_moments(model, char_distance)

    def survival(t):
        ta = np.clip(np.asarray(t, dtype=float), 0.0, None)
        s = random_td_survival(ta, model, char_distance)
        return float(s) if np.ndim(t) == 0 else s

    return AnalyticLaw(
        survival=survival,
        mean=m.mean_td,
        second_moment=m.second_moment_td,
        variance=m.var_td,
        name="limit detection time",
    )


@dataclass(frozen=True)
class PlanRequest:
    """Inputs for network sizing.

    ``target_kind`` is "area" (mean burned area at detection, m^2) or
    "time" (mean detection time, s); ``placement_kind`` picks which family
    of laws to invert.
    """

    area: float
    model: SpreadModel
    placement_kind: Literal["grid", "random"]
    target_kind: Literal["area", "time"]
    target_value: float


def plan(req: PlanRequest) -> dict:
    """Size a network: spacing D and sensor count N hitting a mean target.

    Grid targets use the exact grid moment formulas (circular spread only);
    random targets invert the exponential-limit moments.
    """
    if not (req.area > 0 and math.isfinite(req.area)):
        raise ParameterError(f"area must be positive and finite, got {req.area}")
    if not (req.target_value > 0 and math.isfinite(req.target_value)):
        raise ParameterError(f"target must be positive and finite, got {req.target_value}")
    assumptions = []
    if req.placement_kind == "grid":
        if not isinstance(req.model, CircularModel):
            raise ParameterError("grid planning laws assume circular spread")
        if req.target_kind == "area":
            d = math.sqrt(6.0 * req.target_value / math.pi)
            assumptions.append("grid: mean burned area at detection = (pi/6) D^2")
        else:
            d = 6.0 * req.model.rate * req.target_value / _GRID_MEAN_CONST
            assumptions.append(
                "grid: mean detection time = (sqrt(2)+log(1+sqrt(2)))/6 * D/rate"
            )
    elif req.placement_kind == "random":
        if req.target_kind == "area":
            d = math.sqrt(req.target_value)
            assumptions.append("random placement, many sensors: mean burned area = D^2")
        else:
            k = elliptical_time_scale(req.model)
            d = 2.0 * req.model.rate * req.target_value / k
            assumptions.append("random placement, many sensors: mean detection time = k*D/(2*rate)")
            assumptions.append(f"time scale k = 2*sqrt(lb)/(1 + 1/hb) = {k!r}")
    else:
        raise ParameterError(f"unknown placement kind {req.placement_kind!r}")
    quotient = req.area / (d * d) if 0 < d * d < math.inf else math.inf
    if not math.isfinite(quotient):
        raise ParameterError(f"target {req.target_value} is out of range for area {req.area}")
    # Relative guard so exact-intent quotients (e.g. 10000.0) don't round up.
    n = math.ceil(quotient * (1.0 - 1e-12))
    return {"D": d, "N": int(n), "assumptions": assumptions}
