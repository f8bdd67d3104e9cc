"""The public surface of the package, the names the benchmark's tracer wraps
by name (perfbench/tracer.py), and the input its constructors and law
factories reject.

A rename or move that breaks ``python -m pytest perfbench`` fails here first.
"""

import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import firewatch
from firewatch import geometry

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


PUBLIC = [
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
    "burned_union_area",
    "characteristic_distance",
    "detection_time",
    "disk_rect_area",
    "exact_burned_area_law",
    "grid_ad_law",
    "grid_layout",
    "grid_td_cdf",
    "grid_td_law",
    "ks_critical",
    "ks_distance",
    "limit_burned_area_law",
    "random_td_law",
    "run_trials",
    "summarize",
    "uniform_layout",
]


def test_public_names_are_exactly_these():
    assert firewatch.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(firewatch, name) is not None, name


def test_functions_the_tracer_wraps_exist():
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for factory in tracer.LAW_FACTORIES:
        assert callable(getattr(firewatch.analytic, factory, None)), factory
    # The tracer wraps each law's survival with dataclasses.replace.
    assert dataclasses.is_dataclass(firewatch.AnalyticLaw)


@pytest.mark.parametrize("cls", tracer.MODEL_CLASSES)
def test_each_model_has_what_burned_union_area_reads(cls):
    # hasattr: the frame methods are inherited from one base class.
    for name in ("area", "bounding_box", "frame", "frame_centre", "covers", "clipped_area_exact"):
        assert hasattr(getattr(firewatch, cls), name), f"{cls}.{name}"


_UNION_CALLS = {
    # Two fronts that meet, beside a lone one: one group.
    "a group": ([(1.0, 5.0), (2.0, 5.5), (8.0, 8.0)], 1),
    "one front": ([(5.0, 5.0)], 0),
    "fronts apart": ([(2.0, 2.0), (8.0, 8.0)], 0),
}


@pytest.mark.parametrize("cls", tracer.MODEL_CLASSES)
@pytest.mark.parametrize("ignitions,calls", _UNION_CALLS.values(), ids=_UNION_CALLS.keys())
def test_a_union_call_calls_covers_once_if_it_has_a_group(cls, ignitions, calls, monkeypatch):
    # The tracer classes a burned_union_area call by the covers call in it:
    # every group of the call is classified in one covers call, and a call
    # without a group makes none.
    model = getattr(firewatch, cls)(1.0)
    covers, seen = vars(type(model))["covers"], []

    def counted(self, *args):
        seen.append(args)
        return covers(self, *args)

    monkeypatch.setattr(type(model), "covers", counted)
    fronts = [(firewatch.Point(x, y), model, 1.0) for x, y in ignitions]
    firewatch.burned_union_area(fronts, _REGION)
    assert len(seen) == calls
    # So does a call for a block: a row per set of fronts, each with its time.
    seen.clear()
    xs, ys = zip(*ignitions)
    block = [(geometry._Ignitions(np.full(4, x), np.full(4, y)), model, np.full(4, 1.0))
             for x, y in zip(xs, ys)]
    firewatch.burned_union_area(block, _REGION)
    assert len(seen) == calls


@pytest.mark.parametrize("cls", tracer.MODEL_CLASSES)
def test_methods_the_tracer_wraps_are_defined_in_each_model_class(cls):
    # The tracer wraps a method only where the class itself defines it.
    for _, method, _ in tracer.METHODS:
        assert method in vars(getattr(firewatch, cls)), f"{cls}.{method}"


def test_cli_is_a_thin_parser():
    # The law choice, the run-and-score step and the sweeps live in the
    # library; the CLI only parses flags and calls them.
    import firewatch.cli

    assert firewatch.cli.__all__ == ["main"]
    for name in (
        "run_trials",
        "summarize",
        "ks_distance",
        "sweep_seed",
        "characteristic_distance",
        "_check_master_seed",
    ):
        assert not hasattr(firewatch.cli, name), name


def _config(**fields):
    values = dict(
        region=firewatch.RectRegion(10.0, 10.0),
        placement=firewatch.RandomPlacement(5),
        model=firewatch.CircularModel(1.0),
        trials=2,
        master_seed=0,
    )
    return firewatch.ScenarioConfig(**{**values, **fields})


_BIG = 10**400  # an int too large for a float
_REGION = firewatch.RectRegion(10.0, 10.0)
_BAD_INPUTS = {
    "grid spacing too large": lambda: firewatch.run_trials(
        _config(placement=firewatch.GridPlacement(_BIG))
    ),
    "point too large": lambda: firewatch.Point(_BIG, 0.0),
    "grid law spacing too large": lambda: firewatch.grid_td_law(_BIG, 1.0),
    "limit law distance too large": lambda: firewatch.limit_burned_area_law(_BIG),
    "exact law area too large": lambda: firewatch.exact_burned_area_law(_BIG, 3),
    "random law distance too large": lambda: firewatch.random_td_law(
        firewatch.CircularModel(1.0), _BIG
    ),
    "char distance area too large": lambda: firewatch.characteristic_distance(_BIG, 3),
    "plan area too large": lambda: firewatch.analytic.plan(
        _BIG, firewatch.CircularModel(1.0), "random", "area", 1.0
    ),
    "plan target kind unknown": lambda: firewatch.analytic.plan(
        100.0, firewatch.CircularModel(1.0), "random", "bogus", 1.0
    ),
    "grid layout spacing too large": lambda: firewatch.grid_layout(_REGION, _BIG),
    "trials not an integer": lambda: _config(trials=2.5),
    "ignitions not an integer": lambda: _config(ignition_count=1.5),
    "layout count not an integer": lambda: firewatch.uniform_layout(_REGION, 2.5, 0),
    "grid spacing negative": lambda: firewatch.GridPlacement(-1.0),
    "grid spacing nan": lambda: firewatch.GridPlacement(math.nan),
    "exact law count not an integer": lambda: firewatch.exact_burned_area_law(100.0, 2.5),
    "exact law count above 2^53": lambda: firewatch.exact_burned_area_law(1.0, 2**53 + 1),
    "grid law ignitions not an integer": lambda: firewatch.grid_td_law(1.0, 1.0, 1.5),
    "workers not an integer": lambda: firewatch.run_trials(_config(), workers=1.5),
    "trials a bool": lambda: _config(trials=True),
    "master seed a bool": lambda: _config(master_seed=True),
}


@pytest.mark.parametrize("call", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_constructors_and_law_factories_reject_bad_input(call):
    # Not an OverflowError or TypeError from deeper down, nor a silent answer.
    with pytest.raises(firewatch.ParameterError):
        call()


_TOO_LARGE_ARGUMENTS = {
    "disk radius": lambda: firewatch.disk_rect_area(
        firewatch.Point(1.0, 1.0), _BIG, firewatch.RectRegion(2.0, 2.0)
    ),
    "grid CDF time": lambda: firewatch.grid_td_cdf(_BIG, 1.0, 1.0),
    "exact law survival argument": lambda: firewatch.exact_burned_area_law(1.0, 3).survival(_BIG),
    "union front time": lambda: firewatch.burned_union_area(
        [(firewatch.Point(5, 5), firewatch.CircularModel(1.0), _BIG)], _REGION
    ),
    "circular area time": lambda: firewatch.CircularModel(1.0).area(_BIG),
    "elliptical area time": lambda: firewatch.EllipticalModel(1.0, 2.0).area(_BIG),
    "circular clip time": lambda: firewatch.CircularModel(1.0).clipped_area_exact(
        firewatch.Point(1, 1), _BIG, _REGION
    ),
    "elliptical clip time": lambda: firewatch.EllipticalModel(1.0, 2.0).clipped_area_exact(
        firewatch.Point(1, 1), _BIG, _REGION
    ),
    "circular covers time": lambda: firewatch.CircularModel(1.0).covers(
        firewatch.Point(1, 1), _BIG, 2.0, 2.0
    ),
    "elliptical covers time": lambda: firewatch.EllipticalModel(1.0, 2.0).covers(
        firewatch.Point(1, 1), _BIG, 2.0, 2.0
    ),
}


@pytest.mark.parametrize("call", _TOO_LARGE_ARGUMENTS.values(), ids=_TOO_LARGE_ARGUMENTS.keys())
def test_arguments_too_large_for_a_float_are_out_of_domain(call):
    # An int past the largest float ends in a one-line DomainError, not in
    # numpy's or Python's OverflowError.
    with pytest.raises(firewatch.DomainError, match="at most the largest float") as raised:
        call()
    assert "\n" not in str(raised.value)
