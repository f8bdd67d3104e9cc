"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``).  The
statistical criteria run 1e5-trial simulations under the frozen master seed
below; the calibration notes for that seed live outside the package.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

from firewatch.analytic import (
    exact_burned_area_law,
    grid_ad_law,
    grid_td_cdf,
    grid_td_law,
    limit_burned_area_law,
    random_td_law,
)
from firewatch.cli import main
from firewatch.geometry import Point, RectRegion, burned_union_area
from firewatch.montecarlo import (
    ScenarioConfig,
    compare_random_sweep,
    ks_critical,
    ks_distance,
    run_trials,
    summarize,
)
from firewatch.placement import GridPlacement, RandomPlacement
from firewatch.propagation import CircularModel, EllipticalModel

from helpers import bisect_reach_time, lens_union_area, time_to

SEED = 7
TRIALS = 100_000
WORKERS = 2

GRID_MEAN_CONST = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 6.0
CIRC_VAR_CONST = (4 - math.pi) / (4 * math.pi)


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num} FAIL ({time.perf_counter() - t0:.1f}s): {desc}")
        raise
    print(f"[acceptance] criterion {num} PASS ({time.perf_counter() - t0:.1f}s): {desc}")


def test_criterion_1_grid_closed_forms():
    with criterion(1, "grid closed-form moments and CDF breakpoint"):
        td, ad = grid_td_law(1.0, 1.0), grid_ad_law(1.0, 1.0)
        assert abs(td.mean - GRID_MEAN_CONST) <= 1e-9
        assert td.mean == pytest.approx(0.3826, abs=1e-4)
        assert td.variance == pytest.approx((6 - (6 * GRID_MEAN_CONST) ** 2) / 36, abs=1e-9)
        assert td.variance == pytest.approx(0.0203, abs=5e-5)
        assert ad.mean == pytest.approx(math.pi / 6, abs=1e-12)
        assert ad.mean == pytest.approx(0.5236, abs=1e-4)
        assert grid_td_cdf(0.5, 1.0, 1.0) == pytest.approx(math.pi / 4, abs=1e-12)


def test_criterion_2_grid_law_vs_quadrature():
    with criterion(2, "grid CDF quadrature reproduces the closed-form moments"):
        d, r = 1.0, 1.0
        upper = d / (math.sqrt(2) * r)
        surv = lambda t: 1.0 - grid_td_cdf(t, d, r)
        mean_q, _ = integrate.quad(surv, 0, upper, points=[d / (2 * r)], limit=200)
        sec_q, _ = integrate.quad(
            lambda t: 2 * t * surv(t), 0, upper, points=[d / (2 * r)], limit=200
        )
        law = grid_td_law(d, r)
        assert mean_q == pytest.approx(law.mean, abs=1e-6)
        assert sec_q == pytest.approx(law.second_moment, abs=1e-6)


def test_criterion_3_grid_simulation():
    with criterion(3, "grid simulation matches the exact law at 1e5 trials"):
        cfg = ScenarioConfig(
            region=RectRegion(10, 10),
            placement=GridPlacement(spacing=1.0),
            model=CircularModel(rate=1.0),
            trials=TRIALS,
            master_seed=SEED,
        )
        st = summarize(run_trials(cfg, workers=WORKERS))
        law = grid_td_law(1.0, 1.0)
        assert abs(st.mean_td - law.mean) < 3 * st.se_td
        assert st.ecdf_td[-1] <= 1 / math.sqrt(2) + 1e-12
        assert ks_distance(st.ecdf_td, law) < 0.005


def test_criterion_4_exact_finite_n_law():
    with criterion(4, "burned-area ECDF within the 99% KS band of (1-x/A)^N"):
        for n in (10, 100, 1000):
            side = math.sqrt(float(n))
            cfg = ScenarioConfig(
                region=RectRegion(side, side),
                placement=RandomPlacement(count=n),
                model=CircularModel(rate=1.0),
                trials=TRIALS,
                master_seed=SEED,
            )
            st = summarize(run_trials(cfg, workers=WORKERS))
            d = ks_distance(st.ecdf_ad, exact_burned_area_law(float(n), n))
            assert d < ks_critical(TRIALS, alpha=0.01), f"N={n}: ks={d}"


@pytest.mark.parametrize(
    "label,model,ignitions",
    [
        ("circular, 1 ignition", CircularModel(rate=1.0), 1),
        ("elliptical hb=lb=2, 1 ignition", EllipticalModel(1.0, 2.0, 2.0), 1),
        ("circular, 3 ignitions", CircularModel(rate=1.0), 3),
    ],
)
def test_criterion_5_limit_law_model_independence(label, model, ignitions):
    with criterion(5, f"exponential limit law, {label}"):
        cfg = ScenarioConfig(
            region=RectRegion(100, 100),
            placement=RandomPlacement(count=10_000),
            model=model,
            trials=TRIALS,
            master_seed=SEED,
            ignition_count=ignitions,
        )
        st = summarize(run_trials(cfg, workers=WORKERS))
        assert ks_distance(st.ecdf_ad, limit_burned_area_law(1.0)) < ks_critical(TRIALS, 0.01)
        assert abs(st.mean_ad - 1.0) < 3 * st.se_ad
        assert abs(st.var_ad - 1.0) < 0.1  # = D^4, the corrected variance


def test_criterion_6_sweep_reproduction():
    with criterion(6, "sweep deviations shrink monotonically toward the limit values"):
        rows, _ = compare_random_sweep(
            [10, 100, 1000, 10_000],
            char_distance=1.0,
            model=CircularModel(rate=1.0),
            trials=TRIALS,
            master_seed=SEED,
            workers=WORKERS,
            ecdf_points=0,
        )
        mean_dev = [abs(r["mean_td"] - 0.5) for r in rows]
        var_dev = [abs(r["var_td"] - CIRC_VAR_CONST) for r in rows]
        assert all(b < a for a, b in zip(mean_dev, mean_dev[1:])), mean_dev
        assert all(b < a for a, b in zip(var_dev, var_dev[1:])), var_dev
        last = rows[-1]
        assert mean_dev[-1] < 3 * last["se_td"]
        assert var_dev[-1] < 3 * last["se_td"]


def test_criterion_7_elliptical_moments():
    with criterion(7, "elliptical detection-time moments vs quadrature"):
        law = random_td_law(EllipticalModel(1.0, 2.0, 2.0), 1.0)
        k = 2 * math.sqrt(2.0) / 1.5
        assert law.mean == pytest.approx(k * 0.5, rel=1e-12)
        mean_q, _ = integrate.quad(law.survival, 0, np.inf)
        assert mean_q == pytest.approx(law.mean, abs=1e-6)
        ident = random_td_law(EllipticalModel(1.0, 1.0, 1.0), 1.0)
        circ = random_td_law(CircularModel(1.0), 1.0)
        moments = lambda m: (m.mean, m.second_moment, m.variance)
        assert moments(ident) == moments(circ)


def test_criterion_8_determinism_across_workers(tmp_path, capsys):
    with criterion(8, "simulate output byte-identical across worker counts"):
        files = [tmp_path / f"run{i}.csv" for i in range(3)]
        argv = [
            "simulate", "--region", "20x20", "--sensors", "200", "--trials", "2000",
            "--seed", str(SEED),
        ]
        for f, w in zip(files, ("1", "2", "1")):
            assert main(argv + ["--out", str(f), "--workers", w]) == 0
        capsys.readouterr()
        blobs = [f.read_bytes() for f in files]
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_9_geometry_oracles():
    with criterion(9, "reach-time bisection oracle and two-circle lens closed form"):
        rng = np.random.Generator(np.random.Philox(key=[SEED, 0]))
        for _ in range(1000):
            rate = 0.5 + 3 * rng.random()
            hb = 1.0 + 4 * rng.random()
            lb = 1.0 + 3 * rng.random()
            heading = rng.random() * 2 * math.pi
            ign = Point(rng.random() * 10 - 5, rng.random() * 10 - 5)
            tgt = Point(ign.x + rng.random() * 8 - 4, ign.y + rng.random() * 8 - 4)
            got = time_to(EllipticalModel(rate, hb, lb, heading), ign, tgt)
            want = bisect_reach_time(rate, hb, lb, heading, ign, tgt)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

        circ = CircularModel(rate=1.0)
        region = RectRegion(10, 10)
        fronts = [(Point(4, 5), circ, 1.0), (Point(5, 5), circ, 1.0)]
        got = burned_union_area(fronts, region)
        assert got == pytest.approx(lens_union_area(1.0, 1.0), rel=1e-12)
