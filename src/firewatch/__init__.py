"""Detection statistics for wildfire-detecting sensor networks.

Closed-form laws for detection time and burned area under regular-grid and
uniform-random sensor placement, plus a deterministic Monte Carlo engine
that validates them.
"""

from .analytic import (
    AnalyticLaw,
    exact_burned_area_law,
    grid_ad_law,
    grid_moments,
    grid_td_cdf,
    grid_td_law,
    limit_burned_area_law,
    random_ad_survival_exact,
    random_ad_survival_limit,
    random_td_law,
    random_td_moments,
    random_td_survival,
)
from .errors import DomainError, EstimatorError, ParameterError
from .geometry import Point, RectRegion, burned_union_area, disk_rect_area, ellipse_reach_time
from .montecarlo import (
    Outcomes,
    ScenarioConfig,
    SummaryStats,
    detection_time,
    ks_critical,
    ks_distance,
    run_trials,
    summarize,
)
from .placement import (
    GridPlacement,
    RandomPlacement,
    SensorLayout,
    characteristic_distance,
    grid_layout,
    uniform_layout,
)
from .propagation import (
    CircularModel,
    EllipticalModel,
    SpreadModel,
    burned_area,
    elliptical_time_scale,
    inverse_burned_area,
    reach_time,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticLaw",
    "CircularModel",
    "DomainError",
    "EllipticalModel",
    "EstimatorError",
    "GridPlacement",
    "ParameterError",
    "Outcomes",
    "Point",
    "RandomPlacement",
    "RectRegion",
    "ScenarioConfig",
    "SensorLayout",
    "SpreadModel",
    "SummaryStats",
    "burned_area",
    "burned_union_area",
    "characteristic_distance",
    "detection_time",
    "disk_rect_area",
    "ellipse_reach_time",
    "elliptical_time_scale",
    "exact_burned_area_law",
    "grid_ad_law",
    "grid_layout",
    "grid_moments",
    "grid_td_cdf",
    "grid_td_law",
    "inverse_burned_area",
    "ks_critical",
    "ks_distance",
    "limit_burned_area_law",
    "random_ad_survival_exact",
    "random_ad_survival_limit",
    "random_td_law",
    "random_td_moments",
    "random_td_survival",
    "reach_time",
    "run_trials",
    "summarize",
    "uniform_layout",
]
