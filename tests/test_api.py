"""The public surface of the package, and the names the benchmark's tracer
wraps by name (perfbench/tracer.py).

A rename or move that breaks ``python -m pytest perfbench`` fails here first.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import firewatch

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
