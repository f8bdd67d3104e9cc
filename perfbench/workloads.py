"""The benchmark's workloads and their closed-form oracles.

Each workload is one scenario, run as a batch job by one client in a closed
loop: the next call into firewatch starts only when the previous one has
returned. See README.md in this directory for why each workload exists and
which ROADMAP item it is meant to expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from firewatch import (
    AnalyticLaw,
    CircularModel,
    EllipticalModel,
    GridPlacement,
    RandomPlacement,
    RectRegion,
    ScenarioConfig,
    exact_burned_area_law,
    grid_td_law,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario.

    ``config(trials, master_seed)`` and ``argv`` describe the same scenario
    twice, once for the library API and once as ``firewatch simulate``
    flags; the benchmark checks that both give the same outcome bytes.
    ``chunk`` is the trial count of one timed ``run_trials`` call and of one
    ``simulate`` call, and ``trace_trials`` the fixed batch of the traced
    run. ``statistic`` names
    the outcome column ("t_d" or "a_d") that the correctness gate compares
    with ``law``.
    """

    name: str
    config: Callable[[int, int], ScenarioConfig]  # (trials, master_seed)
    argv: tuple[str, ...]
    chunk: int
    trace_trials: int
    statistic: str
    law: Callable[[], AnalyticLaw]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="random-dense",
            config=lambda trials, seed: ScenarioConfig(
                region=RectRegion(100.0, 100.0),
                placement=RandomPlacement(count=10_000),
                model=CircularModel(rate=1.0),
                trials=trials,
                master_seed=seed,
            ),
            argv=("--region", "100x100", "--sensors", "10000", "--model", "circular", "--rate", "1"),
            chunk=1000,
            trace_trials=3000,
            statistic="a_d",
            law=lambda: exact_burned_area_law(10_000.0, 10_000),
        ),
        Workload(
            name="ellipse3-sparse",
            config=lambda trials, seed: ScenarioConfig(
                region=RectRegion(10.0, 10.0),
                placement=RandomPlacement(count=100),
                model=EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=2.0, heading=0.0),
                trials=trials,
                master_seed=seed,
                ignition_count=3,
            ),
            argv=(
                "--region", "10x10", "--sensors", "100", "--model", "elliptical",
                "--rate", "1", "--hb", "2", "--lb", "2", "--heading", "0", "--ignitions", "3",
            ),
            chunk=500,
            trace_trials=1500,
            statistic="a_d",
            law=lambda: exact_burned_area_law(100.0, 100),
        ),
        Workload(
            name="grid-csv",
            config=lambda trials, seed: ScenarioConfig(
                region=RectRegion(10.0, 10.0),
                placement=GridPlacement(spacing=1.0),
                model=CircularModel(rate=1.0),
                trials=trials,
                master_seed=seed,
            ),
            argv=("--region", "10x10", "--spacing", "1", "--model", "circular", "--rate", "1"),
            chunk=50_000,
            trace_trials=100_000,
            statistic="t_d",
            law=lambda: grid_td_law(1.0, 1.0),
        ),
    )
}
