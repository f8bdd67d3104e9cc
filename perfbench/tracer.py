"""In-memory span tracer that wraps firewatch's public names from outside.

Nothing under ``src/`` is edited: ``Tracer`` replaces module attributes and
model methods while it is installed and puts the originals back when it is
removed. Names the package no longer has are listed in ``Tracer.missing``,
and the layer metrics that need them are reported as absent.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

import firewatch
import firewatch.cli  # noqa: F401  (imported so its copies of the names get wrapped too)

# (span name, defining module, attribute). Every firewatch module that holds
# the same function object under any name gets the wrapper.
FUNCTIONS = (
    ("montecarlo.run_trials", "firewatch.montecarlo", "run_trials"),
    ("montecarlo.detection_time", "firewatch.montecarlo", "detection_time"),
    ("geometry.burned_union_area", "firewatch.geometry", "burned_union_area"),
    ("geometry.disk_rect_area", "firewatch.geometry", "disk_rect_area"),
    ("placement.build_layout", "firewatch.placement", "build_layout"),
    ("montecarlo.summarize", "firewatch.montecarlo", "summarize"),
    ("montecarlo.ks_distance", "firewatch.montecarlo", "ks_distance"),
    ("montecarlo.outcomes_to_csv", "firewatch.montecarlo", "outcomes_to_csv"),
)
# (span name, spread-model method, position of the x-coordinate argument
# counting ``self``, or None when the call takes no points).
METHODS = (
    ("propagation.reach_times", "reach_times", 2),
    ("geometry.covers", "covers", 3),
    ("geometry.clipped_area_exact", "clipped_area_exact", None),
)
MODEL_CLASSES = ("CircularModel", "EllipticalModel")
# Law factories whose returned ``survival`` gets an "analytic.survival" span.
LAW_FACTORIES = (
    "grid_td_law",
    "grid_ad_law",
    "exact_burned_area_law",
    "limit_burned_area_law",
    "random_td_law",
)

AREA_PATHS = ("interior", "exact_clip", "sampled")
_AREA_NAMES = ("geometry.burned_union_area", "geometry.covers", "geometry.clipped_area_exact")

# Per-layer metric -> span names it needs; it is absent if one is missing.
REQUIRES = {
    "placement.build_layout_ms": ("placement.build_layout",),
    "propagation.reach_times_us": ("propagation.reach_times",),
    "propagation.reach_points_per_trial": ("propagation.reach_times", "montecarlo.detection_time"),
    "montecarlo.detection_time_self_us": ("montecarlo.detection_time", "propagation.reach_times"),
    "montecarlo.trial_self_us": (
        "montecarlo.run_trials",
        "montecarlo.detection_time",
        "geometry.burned_union_area",
    ),
    **{f"geometry.area_calls.{p}": _AREA_NAMES for p in AREA_PATHS},
    **{f"geometry.area_us.{p}": _AREA_NAMES for p in AREA_PATHS},
    "geometry.sampled_time_share": _AREA_NAMES + ("montecarlo.run_trials",),
    "geometry.covers_points_per_sampled_call": _AREA_NAMES,
    "geometry.disk_rect_area_us": ("geometry.disk_rect_area",),
    "montecarlo.summarize_ms": ("montecarlo.summarize",),
    "montecarlo.ks_distance_self_ms": ("montecarlo.ks_distance", "analytic.survival"),
    "analytic.survival_ms": ("analytic.survival",),
    "montecarlo.outcomes_to_csv_ms": ("montecarlo.outcomes_to_csv",),
    "cli.simulate_self_ms": (
        "montecarlo.run_trials",
        "montecarlo.summarize",
        "montecarlo.ks_distance",
        "montecarlo.outcomes_to_csv",
    ),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    trial: int  # trial index inside the enclosing run_trials call
    points: int  # points passed to reach_times or covers, else 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for every call of the wrapped names while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trial = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, points_arg: int | None = None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == "montecarlo.run_trials":
                self._trial = -1
            elif name == "montecarlo.detection_time":
                self._trial += 1  # called exactly once per trial
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            trial = self._trial
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                points = int(np.size(args[points_arg])) if points_arg is not None else 0
                spans[idx] = Span(name, start, end, parent, trial, points)

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "firewatch" or key.startswith("firewatch.")
        ]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr, None)
            if original is None:
                self.missing.append(name)
            else:
                self._replace(modules, original, self.wrap(name, original))
        for name, method, points_arg in METHODS:
            classes = {getattr(firewatch, c, None) for c in MODEL_CLASSES} - {None}
            owners = [cls for cls in classes if method in vars(cls)]
            if not owners:
                self.missing.append(name)
            for cls in owners:
                original = vars(cls)[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, points_arg))
        factories = [getattr(firewatch.analytic, f, None) for f in LAW_FACTORIES]
        if not any(factories):
            self.missing.append("analytic.survival")
        for factory in filter(None, factories):
            self._replace(modules, factory, self._traced_law_factory(factory))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _traced_law_factory(self, factory):
        def traced_factory(*args, **kwargs):
            law = factory(*args, **kwargs)
            return dataclasses.replace(law, survival=self.wrap("analytic.survival", law.survival))

        return traced_factory


def layer_samples(spans: list[Span]) -> dict[str, list[float] | float]:
    """Per-layer metrics from recorded spans.

    A timing maps to its per-call samples in the metric's unit; a count or a
    ratio maps to one number. Self time is a span's duration minus that of
    its direct children.
    """
    kids: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        if s.parent >= 0:
            kids[s.parent].append(i)

    def durations(name, scale):
        return [spans[i].duration * scale for i in by_name[name]]

    def self_times(name, scale):
        return [
            (spans[i].duration - sum(spans[k].duration for k in kids[i])) * scale
            for i in by_name[name]
        ]

    # Per-trial time outside every traced span: from the start of one
    # trial's detection_time to the next one's, minus the trial's spans.
    trial_self = []
    for r in by_name["montecarlo.run_trials"]:
        covered: dict[int, float] = defaultdict(float)
        starts = {}
        for k in kids[r]:
            covered[spans[k].trial] += spans[k].duration
            if spans[k].name == "montecarlo.detection_time":
                starts[spans[k].trial] = spans[k].start
        for t in range(len(starts) - 1):
            trial_self.append((starts[t + 1] - starts[t] - covered[t]) * 1e6)

    area_us: dict[str, list[float]] = {p: [] for p in AREA_PATHS}
    for i in by_name["geometry.burned_union_area"]:
        child_names = {spans[k].name for k in kids[i]}
        if "geometry.covers" in child_names:
            path = "sampled"
        elif "geometry.clipped_area_exact" in child_names:
            path = "exact_clip"
        else:
            path = "interior"
        area_us[path].append(spans[i].duration * 1e6)

    trials = len(by_name["montecarlo.detection_time"])
    run_time = sum(durations("montecarlo.run_trials", 1.0))
    n_sampled = len(area_us["sampled"])
    covers_points = sum(spans[i].points for i in by_name["geometry.covers"])
    reach_points = sum(spans[i].points for i in by_name["propagation.reach_times"])
    return {
        "placement.build_layout_ms": durations("placement.build_layout", 1e3),
        "propagation.reach_times_us": durations("propagation.reach_times", 1e6),
        "propagation.reach_points_per_trial": reach_points / trials if trials else 0.0,
        "montecarlo.detection_time_self_us": self_times("montecarlo.detection_time", 1e6),
        "montecarlo.trial_self_us": trial_self,
        **{f"geometry.area_calls.{p}": len(v) for p, v in area_us.items()},
        **{f"geometry.area_us.{p}": v for p, v in area_us.items()},
        "geometry.sampled_time_share": sum(area_us["sampled"]) * 1e-6 / run_time if run_time else 0.0,
        "geometry.covers_points_per_sampled_call": covers_points / n_sampled if n_sampled else 0.0,
        "geometry.disk_rect_area_us": durations("geometry.disk_rect_area", 1e6),
        "montecarlo.summarize_ms": durations("montecarlo.summarize", 1e3),
        "montecarlo.ks_distance_self_ms": self_times("montecarlo.ks_distance", 1e3),
        "analytic.survival_ms": durations("analytic.survival", 1e3),
        "montecarlo.outcomes_to_csv_ms": durations("montecarlo.outcomes_to_csv", 1e3),
        "cli.simulate_self_ms": self_times("cli.simulate", 1e3),
    }
