import dataclasses
import hashlib
import io
import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

import firewatch.montecarlo
from firewatch import geometry
from firewatch.analytic import (
    exact_burned_area_law,
    grid_td_law,
    limit_burned_area_law,
)
from firewatch.cli import main
from firewatch.errors import DomainError, EstimatorError, ParameterError
from firewatch.geometry import Point, RectRegion, disk_rect_area
from firewatch.montecarlo import (
    Outcomes,
    ScenarioConfig,
    SummaryStats,
    _Cells,
    _CellSampler,
    _FixedSensors,
    _beyond_reach,
    _burned_areas,
    _front_inside,
    _philox_words,
    _simulate_range,
    _trial_uniforms,
    compare_random_sweep,
    detection_time,
    ks_critical,
    ks_distance,
    outcomes_to_csv,
    run_trials,
    summarize,
    summary_to_json,
    sweep_seed,
)
from firewatch.philox import philox4x64
from firewatch.placement import GridPlacement, RandomPlacement, build_layout
from firewatch.propagation import CircularModel, EllipticalModel, ellipse_axis_rates

from helpers import dense_detection_times, per_trial_burned_areas, per_trial_outcomes


def same(a: Outcomes, b: Outcomes) -> bool:
    """Whether two runs gave the same outcome bytes."""
    return a.t_d.tobytes() == b.t_d.tobytes() and a.a_d.tobytes() == b.a_d.tobytes()


def outcomes(t_d, a_d) -> Outcomes:
    return Outcomes(np.array(t_d, dtype=float), np.array(a_d, dtype=float))


def small_random_config(**kw):
    base = dict(
        region=RectRegion(10, 10),
        placement=RandomPlacement(count=100),
        model=CircularModel(rate=1.0),
        trials=500,
        master_seed=5,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def count_rings(monkeypatch) -> list:
    """Log the radius of each ring step of every search from here on."""
    rings = []
    ring_cells = _Cells.ring_cells

    def logged(self, cx, cy, r):
        rings.append(r)
        return ring_cells(self, cx, cy, r)

    monkeypatch.setattr(_Cells, "ring_cells", logged)
    return rings


class TestConfig:
    def test_defaults_by_placement_kind(self):
        c = small_random_config()
        assert c.resample_layout_each_trial is True
        assert c.clip_to_region is True
        g = ScenarioConfig(
            region=RectRegion(10, 10),
            placement=GridPlacement(spacing=1.0),
            model=CircularModel(rate=1.0),
            trials=10,
            master_seed=0,
        )
        assert g.resample_layout_each_trial is False
        assert g.clip_to_region is False

    def test_validation(self):
        with pytest.raises(ParameterError):
            small_random_config(trials=0)
        with pytest.raises(ParameterError):
            small_random_config(ignition_count=0)
        with pytest.raises(ParameterError):
            small_random_config(ignition_count=2**10 + 1)
        with pytest.raises(ParameterError):
            small_random_config(placement=RandomPlacement(count=2**53 + 1))
        with pytest.raises(ParameterError):
            small_random_config(master_seed=-1)
        # Philox keys are 64 bits: 2^64 + 5 would silently run as seed 5
        with pytest.raises(ParameterError):
            small_random_config(master_seed=2**64 + 5)
        assert small_random_config(master_seed=2**64 - 1).master_seed == 2**64 - 1
        with pytest.raises(ParameterError):
            ScenarioConfig(
                region=RectRegion(10, 10),
                placement=GridPlacement(spacing=1.0),
                model=CircularModel(rate=1.0),
                trials=10,
                master_seed=0,
                resample_layout_each_trial=True,
            )

    @pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5)])
    def test_numpy_integer_seed_runs_as_the_python_int(self, seed):
        want = run_trials(small_random_config(trials=20))
        got = run_trials(small_random_config(trials=20, master_seed=seed))
        assert got.t_d.tobytes() == want.t_d.tobytes() and got.a_d.tobytes() == want.a_d.tobytes()
        # numpy's own arithmetic would wrap (uint64) or raise (int64) in splitmix64.
        assert sweep_seed(seed, np.int64(40)) == sweep_seed(5, 40)

    def test_bad_grid_spacing_surfaces_as_parameter_error(self):
        cfg = ScenarioConfig(
            region=RectRegion(10, 10),
            placement=GridPlacement(spacing=0.7),
            model=CircularModel(rate=1.0),
            trials=10,
            master_seed=0,
        )
        with pytest.raises(ParameterError):
            run_trials(cfg)

    def test_random_layout_is_not_built_to_validate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_layout called")

        monkeypatch.setattr(firewatch.montecarlo, "build_layout", refuse)
        assert run_trials(small_random_config(trials=5)).t_d.size == 5


class TestDetectionTime:
    def test_sensor_at_ignition_detects_immediately(self):
        model = CircularModel(rate=1.0)
        positions = np.array([[3.0, 4.0], [7.0, 7.0]])
        t = detection_time(model, positions, np.array([[3.0, 4.0]]))
        assert t == 0.0
        assert model.area(t) == 0.0

    def test_min_over_all_pairs(self):
        model = CircularModel(rate=2.0)
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        ignitions = np.array([[6.0, 0.0], [0.0, 3.0]])
        # pair distances: 6, 4 (first ignition); 3, ~10.4 (second)
        assert detection_time(model, positions, ignitions) == pytest.approx(1.5)

    def test_elliptical(self):
        model = EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=1.0, heading=0.0)
        positions = np.array([[-1.0, 0.0], [4.0, 0.0]])
        t = detection_time(model, positions, np.array([[0.0, 0.0]]))
        assert t == pytest.approx(2.0)  # back point at distance 1, back rate 1/2


class TestRunTrials:
    def test_deterministic_for_fixed_seed(self):
        c = small_random_config()
        assert same(run_trials(c), run_trials(c))

    def test_workers_do_not_change_results(self):
        c = small_random_config(trials=200)
        assert same(run_trials(c, workers=1), run_trials(c, workers=2))

    def test_different_seeds_differ(self):
        a = run_trials(small_random_config(master_seed=1))
        b = run_trials(small_random_config(master_seed=2))
        assert not same(a, b)

    def test_grid_detection_time_bounded(self):
        cfg = ScenarioConfig(
            region=RectRegion(5, 5),
            placement=GridPlacement(spacing=1.0),
            model=CircularModel(rate=1.0),
            trials=5000,
            master_seed=2,
        )
        out = run_trials(cfg)
        assert out.t_d.max() <= 1 / math.sqrt(2) + 1e-12
        # unclipped grid burned area is F(t_d)
        assert out.a_d == pytest.approx(math.pi * out.t_d**2, rel=1e-12)

    def test_random_clip_mode_uses_clipped_area(self):
        cfg = small_random_config(trials=300, placement=RandomPlacement(count=5), master_seed=8)
        out = run_trials(cfg)
        assert np.all((0 <= out.a_d) & (out.a_d <= 100.0 + 1e-9))
        # some fires near the border must have been clipped below F(t_d)
        assert np.any(out.a_d < math.pi * out.t_d**2 * (1 - 1e-9))

    def test_mean_burned_area_matches_exact_law(self):
        cfg = small_random_config(trials=4000, master_seed=13)
        st = summarize(run_trials(cfg))
        # E[A_d] = A/(N+1) for the exact finite-N law
        assert abs(st.mean_ad - 100.0 / 101) < 3 * st.se_ad

    def test_multi_ignition_runs_and_detects_faster(self):
        one = summarize(run_trials(small_random_config(trials=400, master_seed=3)))
        three = summarize(
            run_trials(small_random_config(trials=400, master_seed=3, ignition_count=3))
        )
        assert three.mean_td < one.mean_td

    def test_fixed_layout_mode(self):
        cfg = small_random_config(trials=50, resample_layout_each_trial=False)
        assert same(run_trials(cfg), run_trials(cfg, workers=2))

    def test_outcome_invariants_over_random_scenarios(self):
        # Mini-fuzz: whatever the scenario, detection times are nonnegative
        # and areas sit between 0 and min(region area, k * F(t_d)).
        rng = np.random.Generator(np.random.Philox(key=[97, 0]))
        for case in range(15):
            region = RectRegion(2.0 + 8 * rng.random(), 2.0 + 8 * rng.random())
            k = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                model = CircularModel(rate=0.3 + rng.random())
            else:
                model = EllipticalModel(
                    rate=0.3 + rng.random(),
                    hb_ratio=1 + 3 * rng.random(),
                    lb_ratio=1 + 2 * rng.random(),
                    heading=rng.random() * 7,
                )
            cfg = ScenarioConfig(
                region=region,
                placement=RandomPlacement(count=int(rng.integers(1, 40))),
                model=model,
                trials=40,
                master_seed=1000 + case,
                ignition_count=k,
                clip_to_region=bool(rng.random() < 0.7),
            )
            clipped = cfg.clip_to_region or k > 1
            out = run_trials(cfg)
            assert np.all(out.t_d >= 0)
            assert np.all(out.a_d >= -1e-12)
            if clipped:
                assert np.all(out.a_d <= region.area + 1e-9)
            # a union of k fronts burns at most k F(t), up to rounding
            bound = k * model.area(out.t_d) * (1 + 1e-12) + 1e-9
            assert np.all(out.a_d <= bound)


POOL_CASES = {
    # Resampled, three blocks of 2^9 trials: the in-process part ends after
    # block 0, and the other ranges meet inside blocks (at 1006 for two
    # workers, at 841 and 1170 for three).
    "resampled": small_random_config(
        region=RectRegion(100, 100), placement=RandomPlacement(count=10_000), trials=1500,
    ),
    # Two blocks of 2^11 trials and a short third one.
    "grid": ScenarioConfig(
        region=RectRegion(10, 10),
        placement=GridPlacement(spacing=1.0),
        model=CircularModel(rate=1.0),
        trials=5000,
        master_seed=9,
    ),
    # Union areas of three clipped ellipses, checked trial by trial, over
    # three blocks: a run of one block ends before the rule could fork.
    "ellipse3": small_random_config(
        model=EllipticalModel(rate=1.0, hb_ratio=2.0, lb_ratio=2.0, heading=0.0),
        ignition_count=3,
        trials=1100,
    ),
}


class TestPoolRule:
    """run_trials at workers > 1 runs the start of a run in-process and forks
    only when the rest pays for a pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The size of each pool that run_trials starts, as seen by a
        process that may run on 8 CPUs."""
        sizes = []

        class Recorded(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(firewatch.montecarlo, "ProcessPoolExecutor", Recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        return sizes

    @pytest.fixture
    def forced(self, pools, monkeypatch):
        """Forces the pool on: with no start-up allowance the rule forks at
        its first check, whatever the clock reads."""
        monkeypatch.setattr(firewatch.montecarlo, "_POOL_START_S", 0.0)
        return pools

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("case", list(POOL_CASES))
    def test_forced_pool_keeps_bytes(self, forced, case, workers):
        cfg = POOL_CASES[case]
        reference = run_trials(cfg, workers=1)
        assert forced == []
        assert same(run_trials(cfg, workers=workers), reference)
        assert forced == [workers - 1]

    @pytest.mark.parametrize("share, forks", [(0.9, False), (1.1, True)])
    def test_forks_only_when_the_rest_pays(self, pools, monkeypatch, share, forks):
        # The clock reads 0 when the run starts and `elapsed` at every check.
        # The first check follows the grid's first block of 2^11 trials, so
        # the other 2952 are estimated at elapsed * 2952 / 2048: `share` of
        # the four start-ups above which the rule forks.
        cfg = POOL_CASES["grid"]
        reference = run_trials(cfg, workers=1)
        elapsed = share * 4 * firewatch.montecarlo._POOL_START_S * 2048 / 2952
        clock = itertools.chain([0.0], itertools.repeat(elapsed))
        monkeypatch.setattr(firewatch.montecarlo, "perf_counter", lambda: next(clock))
        assert same(run_trials(cfg, workers=2), reference)
        assert pools == ([1] if forks else [])

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
        # The stand-in pool records its size and raises before any process
        # starts, so the test forks nothing even if the cap is missing.
        sizes = []

        class NoPool(Exception):
            pass

        def refused(max_workers):
            sizes.append(max_workers)
            raise NoPool

        monkeypatch.setattr(firewatch.montecarlo, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(firewatch.montecarlo, "_POOL_START_S", 0.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        with pytest.raises(NoPool):
            run_trials(POOL_CASES["grid"], workers=5000)
        assert sizes == [3]

    def test_resampled_split_falls_inside_a_block(self):
        # The rule is asked only at block ends: a stop after block 0 returns
        # exactly its trials. The rest is split where run_trials splits it
        # for two workers, inside block 1, and each range replays its block.
        cfg = POOL_CASES["resampled"]
        block = firewatch.montecarlo._BLOCK
        full = run_trials(cfg)
        t, a = _simulate_range(cfg, 0, cfg.trials, stop=lambda j: True)
        assert t.size == block
        cut = (block + cfg.trials) // 2
        assert cut % block != 0
        parts = [(t, a), _simulate_range(cfg, block, cut), _simulate_range(cfg, cut, cfg.trials)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == full.t_d.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == full.a_d.tobytes()

    def test_a_worker_error_ends_the_run(self, forced, monkeypatch, capsys):
        parent, burned_areas = os.getpid(), firewatch.montecarlo._burned_areas

        def failing_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise DomainError("worker failed")
            return burned_areas(*args, **kwargs)

        monkeypatch.setattr(firewatch.montecarlo, "_burned_areas", failing_in_workers)
        argv = ["simulate", "--region", "10x10", "--spacing", "1", "--trials", "5000",
                "--seed", "9", "--workers", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "worker failed" in captured.err
        assert forced == [1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "cfg",
        [
            # One block and no per-trial union area: the only check comes
            # after the last trial, so the rule cannot fork, however slow.
            dataclasses.replace(POOL_CASES["grid"], trials=2000),
            small_random_config(clip_to_region=False),
        ],
        ids=["grid", "resampled"],
    )
    def test_short_run_starts_no_pool(self, cfg, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a short run started a pool")

        monkeypatch.setattr(firewatch.montecarlo, "ProcessPoolExecutor", no_pool)
        assert same(run_trials(cfg, workers=2), run_trials(cfg, workers=1))


class TestRateScaling:
    """A run at rate 2^e is the rate-1 run with every detection time divided
    by 2^e and the same burned areas, bit for bit: each product with a power
    of two is exact, so only arithmetic that does not scale with the rate
    (an overflow or underflow) can tell the two apart."""

    @pytest.mark.parametrize("exponent", [300, -300])
    @pytest.mark.parametrize("ignitions", [1, 3])
    @pytest.mark.parametrize(
        "placement", [RandomPlacement(count=100), GridPlacement(spacing=1.0)],
        ids=["resampled", "grid"],
    )
    @pytest.mark.parametrize("kind", ["circular", "elliptical"])
    def test_outcomes_scale_exactly_with_the_rate(self, kind, placement, ignitions, exponent):
        def run(rate):
            if kind == "circular":
                model = CircularModel(rate=rate)
            else:
                model = EllipticalModel(rate, 2.0, 1.5, heading=0.7)
            return run_trials(ScenarioConfig(
                region=RectRegion(10, 10), placement=placement, model=model, trials=300,
                master_seed=17, ignition_count=ignitions,
            ))

        one, scaled = run(1.0), run(2.0**exponent)
        assert scaled.t_d.tobytes() == (one.t_d * 2.0**-exponent).tobytes()
        assert scaled.a_d.tobytes() == one.a_d.tobytes()


class TestRegionScaling:
    """A run in the region scaled by 2^e, grid spacing included, is the
    unscaled run with every detection time times 2^e and every burned area
    times 4^e, bit for bit: positions, times and areas all scale exactly, so
    only arithmetic that underflows or overflows can tell the two apart. At
    e = -1000 every burned area underflows to 0 in both runs; the times
    still scale."""

    @pytest.mark.parametrize("exponent", [300, -300, -1000])
    @pytest.mark.parametrize("ignitions", [1, 3])
    @pytest.mark.parametrize("placement", ["resampled", "grid"])
    @pytest.mark.parametrize("kind", ["circular", "elliptical"])
    def test_outcomes_scale_exactly_with_the_region(self, kind, placement, ignitions, exponent):
        if kind == "circular":
            model = CircularModel(rate=1.0)
        else:
            model = EllipticalModel(1.0, 2.0, 1.5, heading=0.7)

        def run(scale):
            if placement == "resampled":
                layout = RandomPlacement(count=100)
            else:
                layout = GridPlacement(spacing=scale)
            return run_trials(ScenarioConfig(
                region=RectRegion(10 * scale, 10 * scale), placement=layout, model=model,
                trials=300, master_seed=17, ignition_count=ignitions, clip_to_region=True,
            ))

        one, scaled = run(1.0), run(2.0**exponent)
        assert scaled.t_d.tobytes() == (one.t_d * 2.0**exponent).tobytes()
        assert scaled.a_d.tobytes() == (one.a_d * 4.0**exponent).tobytes()


class TestGoldenOutcomes:
    """sha256 of ``t_d.tobytes() + a_d.tobytes()`` at seed 7, at workers 1
    and 2: the three benchmark workloads, several ignitions in dense, sparse
    and long narrow regions, clipped grids, a fixed random layout and lone
    clipped fronts in a region scaled by 2^-300. A refactor of the geometry
    or the spread models must keep every byte."""

    CASES = {
        "random-dense": (
            RectRegion(100, 100), RandomPlacement(10_000), CircularModel(1.0), 2000, {},
            "ca0a7d14ae997672d353607a50c55b26df6fb2d4380c97211c1e9892adfdc2db",
        ),
        "ellipse3-sparse": (
            RectRegion(10, 10), RandomPlacement(100), EllipticalModel(1.0, 2.0, 2.0), 3000,
            {"ignition_count": 3},
            "90c02e84b11bbf7422ac0e04419338fd7d041c9f6173ecc03688f1e141ffb036",
        ),
        "grid-csv": (
            RectRegion(10, 10), GridPlacement(1.0), CircularModel(1.0), 20000, {},
            "6b896c58f9f6a0c612a512d8783b811d2f0647a50cd0727fbb1dc7cac4bb2bd1",
        ),
        "circular-k3-dense": (
            RectRegion(100, 100), RandomPlacement(10_000), CircularModel(1.0), 1000,
            {"ignition_count": 3},
            "005d692b7b496f5917a1074d3c4c0d2fcba5177bd37b996d53d3cb6a9f929e58",
        ),
        "circular-k3-sparse": (
            RectRegion(10, 10), RandomPlacement(100), CircularModel(1.0), 3000,
            {"ignition_count": 3},
            "e67eb61c2ae3b3721cf73581ed15bd78dbb447a0abfd97a5d6bb6c63dcf25b21",
        ),
        "elliptical-k3-strip": (
            RectRegion(40, 5), RandomPlacement(100), EllipticalModel(1.0, 2.5, 1.7, heading=0.7),
            3000, {"ignition_count": 3},
            "7751fcb5bab961267c2c75298fa3dff273453dee80c8845ee397e5018fa4c43e",
        ),
        "elliptical-grid-clipped-k2": (
            RectRegion(10, 10), GridPlacement(1.0), EllipticalModel(1.0, 2.5, 1.7, heading=0.7),
            3000, {"ignition_count": 2, "clip_to_region": True},
            "754ae0cd75d2e449d97629d03a63917ca39d2b238540f791b32e28c351788686",
        ),
        "fixed-random-k3": (
            RectRegion(10, 10), RandomPlacement(100), CircularModel(1.0), 1500,
            {"ignition_count": 3, "resample_layout_each_trial": False},
            "c3eca437d5fc5405c20c570570e272da91bc403ee08d19b2e421b3e4ae5e40ec",
        ),
        "circular-grid-clipped": (
            RectRegion(10, 10), GridPlacement(1.0), CircularModel(1.0), 5000,
            {"clip_to_region": True},
            "5b33a27536909d26f46d502ffba291341d3583fae1a5d299ea919e3028aa1757",
        ),
        # About three fronts in four are lone and cross the strip's long edges.
        "elliptical-k3-lone-clipped-tiny": (
            RectRegion(80 * 2.0**-300, 2.0**-300), RandomPlacement(40),
            EllipticalModel(1.0, 2.0, 2.0, heading=0.7), 2000, {"ignition_count": 3},
            "a257beb91daef36b3fd6904872d436a525bb3d35085ddd13c50ff4c8c3eb9d7e",
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_outcome_digest(self, case, workers):
        region, placement, model, trials, extra, want = self.CASES[case]
        got = run_trials(ScenarioConfig(
            region=region, placement=placement, model=model, trials=trials, master_seed=7,
            **extra,
        ), workers=workers)
        assert hashlib.sha256(got.t_d.tobytes() + got.a_d.tobytes()).hexdigest() == want


class TestBurnedAreaPass:
    """The burned areas of a block of trials, measured as arrays, against the
    scalar routine of tests/helpers.py one trial at a time, bit for bit and
    group for group. The blocks hold random trials, pairs of fronts whose
    frame centres lie 2t apart to within a few ulps, fronts whose boxes lie
    within 2e-9 of the region's sides, and times that are not finite, zero,
    subnormal or past the region."""

    REGION = RectRegion(10.0, 10.0)

    @staticmethod
    def centre_gap(model, p, q, t):
        # The scalar rule's distance of two fronts' frame centres, less 2t.
        (xp, yp), (xq, yq) = model.frame_centre(*p, t), model.frame_centre(*q, t)
        return math.hypot(xp - xq, yp - yq) - 2.0 * t

    def block(self, model, k, seed):
        """Ignitions (trials, k) and times of random, near-tangent and
        edge-hugging trials."""
        rng = np.random.Generator(np.random.Philox(key=[seed, k]))
        w, h = self.REGION.width, self.REGION.height
        t = 0.05 + 1.5 * rng.random(240)
        xs, ys = rng.random((240, k)) * w, rng.random((240, k)) * h
        a, b, _, cos_h, sin_h = model.shape
        for i in range(40, 120 if k > 1 else 40):
            # Fronts 0 and 1 at frame distance 2t: the plane offset of the
            # frame offset 2t (cos phi, sin phi), then t moved to within a few
            # ulps of half the scalar distance.
            phi = 2 * math.pi * rng.random()
            u = 2 * t[i] * math.cos(phi) * a * model.rate
            v = 2 * t[i] * math.sin(phi) * b * model.rate
            p = (2.0 + 6.0 * rng.random(), 2.0 + 6.0 * rng.random())
            q = (p[0] + u * cos_h - v * sin_h, p[1] + u * sin_h + v * cos_h)
            xs[i, :2], ys[i, :2] = (p[0], q[0]), (p[1], q[1])
            ti = float(t[i])
            for _ in range(3):
                ti += 0.5 * self.centre_gap(model, p, q, ti)
            t[i] = ti
            for _ in range(i % 5):
                t[i] = np.nextafter(t[i], math.inf if i % 2 else 0.0)
        for i in range(120, 200):
            # A front whose box edge lies from -2e-9 to 2e-9 of the side from
            # it, in steps of 5e-10: on the side, and in and past the margin.
            x0, y0, x1, y1 = model.bounding_box(Point(0.0, 0.0), float(t[i]))
            gap = (i % 9 - 4) * 5e-10 * w
            j = i % k
            if i % 2:
                xs[i, j] = -x0 + gap
            else:
                ys[i, j] = h - y1 - gap
        t[200:205] = [math.inf, math.nan, 0.0, 5e-324, 40.0]
        return t, xs, ys

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("model", [CircularModel(1.0), EllipticalModel(1.0, 2.0, 2.0, 0.7)],
                             ids=["circular", "elliptical"])
    def test_matches_one_union_per_trial(self, model, k, monkeypatch):
        config = ScenarioConfig(self.REGION, RandomPlacement(100), model, 240, 0, ignition_count=k)
        t, xs, ys = self.block(model, k, 11)
        union, groups = geometry._union_area, []

        def recorded(fronts, region):
            groups.append([(p.x, p.y, ti) for p, _, ti in fronts])
            return union(fronts, region)

        monkeypatch.setattr(geometry, "_union_area", recorded)
        with np.errstate(all="ignore"):
            got = _burned_areas(config, t, xs, ys)
            engine_groups, groups[:] = groups[:], []
            want = per_trial_burned_areas(config, t, xs, ys)
        assert got.tobytes() == want.tobytes()
        # The same groups, in the same order, as the per-trial union-find.
        assert engine_groups == groups

        # The trials with a group are exactly those with fronts that meet;
        # besides those, the block holds pairs that miss by 2e-12 or less.
        meet, near = set(), set()
        for i in np.flatnonzero(np.isfinite(t)).tolist():
            ti = float(t[i])
            for p, q in itertools.combinations(zip(xs[i].tolist(), ys[i].tolist()), 2):
                gap = self.centre_gap(model, p, q, ti)
                if not gap > 0.0:
                    meet.add(i)
                elif gap <= 2e-12 * ti + 1e-320:
                    near.add(i)
        trial_of = {
            front: i for i in range(t.size) for front in zip(xs[i].tolist(), ys[i].tolist())
        }
        assert {trial_of[g[0][:2]] for g in engine_groups} == meet
        if k > 1:
            assert len(meet & set(range(40, 120))) > 10 and len(near) > 10


class TestLazySampler:
    """The cell-by-cell sampler against a dense draw of all N sensors."""

    @pytest.mark.parametrize(
        "region,n,model,ignitions,trials",
        [
            (RectRegion(40, 5), 1, CircularModel(rate=1.0), 1, 3000),
            (RectRegion(40, 5), 7, CircularModel(rate=2.0), 3, 1000),
            (RectRegion(10, 10), 7, EllipticalModel(1.0, 3.0, 2.0, heading=2.3), 1, 600),
            (RectRegion(40, 5), 500, EllipticalModel(1.0, 2.0, 2.0, heading=0.6), 1, 2000),
            (RectRegion(10, 10), 500, EllipticalModel(1.0, 2.0, 1.5, heading=4.0), 3, 1500),
        ],
        ids=["N=1 40x5", "N=7 40x5 3 ignitions", "N=7 elliptical", "N=500 40x5 elliptical",
             "N=500 elliptical 3 ignitions"],
    )
    def test_matches_dense_draw_and_exact_area_law(self, region, n, model, ignitions, trials):
        cfg = ScenarioConfig(
            region=region,
            placement=RandomPlacement(count=n),
            model=model,
            trials=trials,
            master_seed=21,
            ignition_count=ignitions,
        )
        st = summarize(run_trials(cfg))
        dense = dense_detection_times(cfg, seed=22)
        assert stats.ks_2samp(st.ecdf_td, dense).pvalue > 0.01
        law = exact_burned_area_law(region.area, n)
        assert ks_distance(st.ecdf_ad, law) < ks_critical(st.n, alpha=0.01)

    @staticmethod
    def _record_draws(monkeypatch):
        """Stop the sampler only when every sensor is drawn, and log each
        batch of sensor coordinates passed to the circular reach times."""
        monkeypatch.setattr(
            firewatch.montecarlo, "_front_inside", lambda s, xs, ys, t, *a: np.zeros(t.shape, bool)
        )
        draws = []
        reach_times = CircularModel.reach_times

        def logged(self, ignition, xs, ys):
            draws.append((np.array(xs), np.array(ys)))
            return reach_times(self, ignition, xs, ys)

        monkeypatch.setattr(CircularModel, "reach_times", logged)
        return draws

    def test_stopping_early_never_changes_detection_time(self, monkeypatch):
        # A one-trial run with one ignition draws its rings from the block's
        # stream in the same order whether or not the search stops, so it
        # must find the same minimum: a stop test called with the wrong
        # ring, cell or time would stop too soon and miss it.
        configs = [
            small_random_config(
                region=RectRegion(40, 5), placement=RandomPlacement(count=2000), model=model,
                trials=1, master_seed=seed,
            )
            for model in (CircularModel(rate=1.0), EllipticalModel(1.0, 3.0, 2.0, heading=0.7))
            for seed in range(150)
        ]
        stopped = [run_trials(cfg) for cfg in configs]
        self._record_draws(monkeypatch)
        assert all(same(run_trials(cfg), out) for cfg, out in zip(configs, stopped))

    def test_stop_rule_keeps_the_front_inside_the_drawn_square(self):
        # Wherever the search would stop, the front at t, clipped to the
        # region, must lie in the square of cells of radius r around the
        # ignition's cell, whose sides at the region's edge are open. Checked
        # on points of the front's boundary, from the axis rates alone.
        rng = np.random.Generator(np.random.Philox(key=[41, 0]))
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        stops = 0
        for _ in range(3000):
            w, h = 2.0 + 60.0 * rng.random(2)
            if rng.random() < 0.5:
                model = CircularModel(rate=0.2 + rng.random())
                a = b = model.rate
                c = heading = 0.0
            else:
                model = EllipticalModel(
                    0.2 + rng.random(), 1 + 3 * rng.random(), 1 + 2 * rng.random(),
                    heading=2 * np.pi * rng.random(),
                )
                a, b, c = ellipse_axis_rates(model.rate, model.hb_ratio, model.lb_ratio)
                heading = model.heading
            config = small_random_config(
                region=RectRegion(w, h), model=model,
                placement=RandomPlacement(count=int(rng.integers(1, 2000))),
            )
            sampler = _CellSampler(config)
            nx, ny, cw, ch = sampler.nx, sampler.ny, sampler.cw, sampler.ch
            # Edge cells half the time.
            cx = int(rng.choice([0, nx - 1])) if rng.random() < 0.5 else int(rng.integers(nx))
            cy = int(rng.choice([0, ny - 1])) if rng.random() < 0.5 else int(rng.integers(ny))
            x, y = (cx + rng.random()) * cw, (cy + rng.random()) * ch
            r = int(rng.integers(0, 3))
            t = (r + 1) * max(cw, ch) / model.rate * rng.random()
            if not _front_inside(
                sampler, np.array([x]), np.array([y]), np.array([t]), cx, cy, r
            )[0]:
                continue
            stops += 1
            u, v = a * t * np.cos(theta) + c * t, b * t * np.sin(theta)
            px = x + u * math.cos(heading) - v * math.sin(heading)
            py = y + u * math.sin(heading) + v * math.cos(heading)
            keep = (px >= 0) & (px <= w) & (py >= 0) & (py <= h)
            px, py = px[keep], py[keep]
            eps = 1e-9 * (w + h)
            assert cx - r <= 0 or np.all(px >= (cx - r) * cw - eps)
            assert cy - r <= 0 or np.all(py >= (cy - r) * ch - eps)
            assert cx + r >= nx - 1 or np.all(px <= (cx + r + 1) * cw + eps)
            assert cy + r >= ny - 1 or np.all(py <= (cy + r + 1) * ch + eps)
        assert stops > 300

    @pytest.mark.parametrize("resample", [True, False], ids=["resampled", "fixed"])
    def test_search_out_of_finite_reach_ends(self, monkeypatch, resample):
        # At this rate a reach time overflows beyond ~1.8e-12 of the
        # ignition. A search that went on until it held every cell would
        # never end among 2^53 resampled sensors (2^51 cells), and would walk
        # hundreds of rings of a fixed layout of 10^6 sensors.
        rings = count_rings(monkeypatch)
        for model in (CircularModel(rate=1e-320), EllipticalModel(1e-320, 2.0, 1.5, heading=0.7)):
            cfg = small_random_config(
                region=RectRegion(10, 10), placement=RandomPlacement(count=2**53 if resample else 10**6),
                model=model, trials=3, ignition_count=2, resample_layout_each_trial=resample,
            )
            rings.clear()
            t_d, _ = _simulate_range(cfg, 0, cfg.trials)
            assert np.isinf(t_d).all()
            assert len(rings) <= 2

    def test_cells_of_a_region_near_the_largest_floats_are_square(self):
        # cells * width overflows here; a grid of one row would take ~500
        # times as many rings to search.
        cfg = small_random_config(
            region=RectRegion(1e308, 1e308), placement=RandomPlacement(count=10**6)
        )
        sampler = _CellSampler(cfg)
        assert (sampler.nx, sampler.ny) == (500, 500)

    @pytest.mark.parametrize("resample", [True, False], ids=["resampled", "fixed"])
    def test_search_with_a_nan_time_ends(self, monkeypatch, resample):
        # A NaN time, which no later sensor can undo, ends its search: among
        # 2^53 resampled sensors a search that went on would never end, and
        # it would walk hundreds of rings of a fixed layout of 10^6 sensors.
        monkeypatch.setattr(
            EllipticalModel, "reach_times", lambda self, ign, xs, ys: np.full(np.shape(xs), np.nan)
        )
        rings = count_rings(monkeypatch)
        cfg = small_random_config(
            region=RectRegion(10, 10), placement=RandomPlacement(count=2**53 if resample else 10**6),
            model=EllipticalModel(1.0, 2.0, 1.5), trials=3, resample_layout_each_trial=resample,
        )
        t_d, _ = _simulate_range(cfg, 0, cfg.trials)
        assert np.isnan(t_d).all()
        assert len(rings) <= 2

    def test_a_ring_within_finite_reach_is_searched(self):
        # A reach time is at least the distance over the head's rate: the
        # next ring 1e-13 away can still hold a finite time at rate 1e-320,
        # one half a cell (~1e-7) away cannot.
        cfg = small_random_config(
            region=RectRegion(10, 10), placement=RandomPlacement(count=2**53),
            model=CircularModel(rate=1e-320),
        )
        sampler = _CellSampler(cfg)
        cw, ch = sampler.cw, sampler.ch
        x, y = np.array([5 * cw - 1e-13, 5.5 * cw]), np.array([5.5 * ch, 5.5 * ch])
        cx, cy = np.array([4, 5]), np.array([5, 5])
        assert _beyond_reach(sampler, x, y, cx, cy, 0).tolist() == [False, True]
        slower = _CellSampler(dataclasses.replace(cfg, model=CircularModel(rate=1e-300)))
        assert _beyond_reach(slower, x, y, cx, cy, 0).tolist() == [False, False]

    def test_full_draw_is_n_uniform_sensors(self, monkeypatch):
        draws = self._record_draws(monkeypatch)
        n, trials = 300, 200
        cfg = small_random_config(
            region=RectRegion(40, 5), placement=RandomPlacement(count=n), trials=trials
        )
        run_trials(cfg)
        xs = np.concatenate([x for x, _ in draws])
        ys = np.concatenate([y for _, y in draws])
        assert xs.size == n * trials
        assert stats.kstest(xs / 40, "uniform").pvalue > 0.01
        assert stats.kstest(ys / 5, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("ignitions", [1, 3])
    def test_sub_range_matches_full_run(self, ignitions):
        # Neither end is a block boundary, so both end blocks are replayed.
        cfg = small_random_config(
            region=RectRegion(100, 100), placement=RandomPlacement(count=10_000),
            trials=9500, ignition_count=ignitions,
        )
        t, a = _simulate_range(cfg, 0, cfg.trials)
        t_sub, a_sub = _simulate_range(cfg, 37, 9001)
        assert t_sub.tobytes() == t[37:9001].tobytes()
        assert a_sub.tobytes() == a[37:9001].tobytes()

    def test_workers_do_not_change_results(self):
        cfg = small_random_config(
            region=RectRegion(100, 100), placement=RandomPlacement(count=10_000), trials=1500,
        )
        assert same(run_trials(cfg, workers=1), run_trials(cfg, workers=2))

    def test_million_sensors(self):
        cfg = ScenarioConfig(
            region=RectRegion(1000, 1000),
            placement=RandomPlacement(count=1_000_000),
            model=CircularModel(rate=1.0),
            trials=400,
            master_seed=23,
        )
        st = summarize(run_trials(cfg))
        assert abs(st.mean_ad - 1e6 / (1e6 + 1)) < 4 * st.se_ad


def fixed_config(region=RectRegion(10, 10), placement=GridPlacement(spacing=1.0), **kw):
    base = dict(
        region=region,
        placement=placement,
        model=CircularModel(rate=1.0),
        trials=20_000,
        master_seed=31,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestFixedLayoutBatch:
    """Batched fixed-layout runs against the trial-by-trial oracle, byte for byte."""

    @pytest.mark.parametrize(
        "config,trials",
        [
            (fixed_config(), 3000),
            (fixed_config(clip_to_region=True), 1000),
            (fixed_config(ignition_count=3), 300),
            (fixed_config(ignition_count=3, clip_to_region=True), 300),
            (fixed_config(model=EllipticalModel(1.0, 2.0, 1.5, heading=0.7)), 1000),
            (fixed_config(region=RectRegion(40, 5), placement=GridPlacement(spacing=2.5)), 3000),
            (fixed_config(placement=RandomPlacement(count=50), resample_layout_each_trial=False),
             1000),
            (fixed_config(
                placement=RandomPlacement(count=50),
                model=EllipticalModel(1.0, 3.0, 2.0, heading=2.3),
                resample_layout_each_trial=False,
            ), 1000),
            # A large layout, whose searches stop long before they cover the grid.
            (fixed_config(region=RectRegion(100, 100), placement=RandomPlacement(count=9000),
                          resample_layout_each_trial=False), 2100),
        ],
        ids=["grid", "grid clipped", "grid 3 ignitions", "grid 3 ignitions clipped",
             "grid elliptical", "grid 40x5", "fixed random", "fixed random elliptical",
             "fixed random large"],
    )
    def test_matches_per_trial_oracle(self, config, trials):
        t, a = _simulate_range(config, 0, trials)
        t_ref, a_ref = per_trial_outcomes(config, 0, trials)
        assert t.tobytes() == t_ref.tobytes()
        assert a.tobytes() == a_ref.tobytes()

    @pytest.mark.parametrize(
        "config",
        [fixed_config(), fixed_config(placement=RandomPlacement(count=50),
                                      resample_layout_each_trial=False)],
        ids=["grid", "fixed random"],
    )
    def test_sub_range_across_blocks(self, config):
        # Neither end is a multiple of the block size.
        t, a = _simulate_range(config, 37, 9001)
        t_ref, a_ref = per_trial_outcomes(config, 37, 9001)
        assert t.tobytes() == t_ref.tobytes()
        assert a.tobytes() == a_ref.tobytes()

    def test_workers_do_not_change_results(self):
        cfg = fixed_config(trials=20_001)
        assert same(run_trials(cfg, workers=1), run_trials(cfg, workers=2))


def adversarial_ignitions(sensors: _FixedSensors, positions: np.ndarray, w: float, h: float):
    """Ignition points where the ring search's stop rule is closest to
    rounding the wrong way: on sensors, on cell edges and corners, at
    midpoints between sensors (ties), and at the region's corners."""
    rng = np.random.Generator(np.random.Philox(key=[53, 0]))
    nodes = positions[rng.permutation(len(positions))[:400]]
    ex = np.arange(sensors.nx + 1) * sensors.cw
    ey = np.arange(sensors.ny + 1) * sensors.ch
    corners = np.stack(np.meshgrid(ex, ey), axis=-1).reshape(-1, 2)
    on_x = np.column_stack([rng.choice(ex, 200), rng.random(200) * h])
    on_y = np.column_stack([rng.random(200) * w, rng.choice(ey, 200)])
    i, j = rng.integers(len(positions), size=(2, 400))
    ties = (positions[i] + positions[j]) / 2
    near = positions[i] + sensors.cw * np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5], [-0.5, 0.0]])[i % 4]
    ends = [[0.0, 0.0], [np.nextafter(w, 0), np.nextafter(h, 0)], [0.0, np.nextafter(h, 0)],
            [np.nextafter(w, 0), 0.0]]
    points = np.concatenate([nodes, corners, on_x, on_y, ties, near, ends])
    return np.clip(points, 0.0, [np.nextafter(w, 0), np.nextafter(h, 0)])


class TestRingSearch:
    """The fixed layout's ring search against timing every sensor, bit for
    bit, at ignitions chosen to sit where rounding decides."""

    @pytest.mark.parametrize("model", [CircularModel(rate=1.0),
                                       EllipticalModel(1.0, 2.0, 1.5, heading=0.7)],
                             ids=["circular", "elliptical"])
    @pytest.mark.parametrize("ignitions", [1, 3])
    @pytest.mark.parametrize(
        "region,placement",
        [
            (RectRegion(10, 10), GridPlacement(spacing=1.0)),
            (RectRegion(40, 5), GridPlacement(spacing=1.0)),
            (RectRegion(10, 10), RandomPlacement(count=1)),
            (RectRegion(10, 10), RandomPlacement(count=3)),
            (RectRegion(10, 10), RandomPlacement(count=50)),
        ],
        ids=["grid", "grid 40x5", "fixed N=1", "fixed N=3", "fixed N=50"],
    )
    def test_matches_timing_every_sensor(self, region, placement, model, ignitions):
        config = fixed_config(
            region=region, placement=placement, model=model, ignition_count=ignitions,
            resample_layout_each_trial=False if isinstance(placement, RandomPlacement) else None,
        )
        sensors = _FixedSensors(config)
        positions = build_layout(placement, region, seed=config.master_seed).positions
        points = adversarial_ignitions(sensors, positions, region.width, region.height)
        # With several ignitions a trial takes consecutive points, so each
        # point is also a trial's second and third ignition.
        trials = np.stack([np.roll(points, -j, axis=0) for j in range(ignitions)], axis=1)
        got = sensors.first_reach(0, trials[:, :, 0], trials[:, :, 1])
        want = np.array([detection_time(model, positions, ign) for ign in trials])
        assert got.tobytes() == want.tobytes()


class TestPhiloxWords:
    """The vectorised Philox must give numpy's words; if numpy ever changes
    its Philox, these fail and the fixed-layout bytes must be revisited."""

    SEEDS = [0, 1, 2**64 - 1, 0x9B3F_21C4_07D2_E855]
    INDICES = [0, 1, 2**62 - 1, 0x1D0C_57A2_8E41_963]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_words_match_numpy(self, seed, index):
        words = _philox_words(seed, index, index + 1, 8)
        key = np.array([seed, index], dtype=np.uint64)
        assert words.tolist() == [np.random.Philox(key=key).random_raw(8).tolist()]

    def test_core_matches_numpy_at_any_key_and_counter(self):
        # Keys and counters with their high bits set too; numpy's Philox
        # adds one to the counter before its first block.
        def numpy_blocks(k0, k1, c, blocks=1):
            key = np.array([k0, k1], dtype=np.uint64)
            counter = np.array([c, 0, 0, 0], dtype=np.uint64)
            return np.random.Philox(key=key, counter=counter).random_raw(4 * blocks).tolist()

        rng = np.random.Generator(np.random.Philox(key=[59, 0]))
        draws = rng.integers(0, 2**64 - 1, (60, 3), dtype=np.uint64)
        draws[::2] |= np.uint64(1 << 63)
        for k0, k1, c in draws.tolist():
            assert [int(w[0]) for w in philox4x64(k0, k1, c + 1)] == numpy_blocks(k0, k1, c)
        # Arrays of keys or counters give the blocks of each at once.
        k0, k1, c = draws[0].tolist()
        got = np.stack(philox4x64(k0, draws[:, 1], c + 1), axis=1)
        assert got.tolist() == [numpy_blocks(k0, k, c) for k in draws[:, 1].tolist()]
        got = np.stack(philox4x64(k0, k1, np.arange(1, 9, dtype=np.uint64)), axis=1)
        assert got.ravel().tolist() == numpy_blocks(k0, k1, 0, blocks=8)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_doubles_match_generator(self, seed, k):
        lo = 2**62 - 5
        u = _trial_uniforms(seed, lo, lo + 5, 2 * k)
        for row, i in zip(u, range(lo, lo + 5)):
            key = np.array([seed, i], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key)).random((k, 2))
            assert row.tobytes() == want.ravel().tobytes()


class TestSummarize:
    def test_two_point_sample(self):
        st = summarize(outcomes([1.0, 3.0], [1.0, 3.0]))
        assert st.mean_td == 2.0
        assert st.var_td == 2.0
        assert st.mean_ad == 2.0
        assert st.se_td == pytest.approx(1.0)

    def test_constant_sample_zero_variance(self):
        st = summarize(outcomes([2.0] * 10, [5.0] * 10))
        assert st.var_td == 0.0
        assert st.var_ad == 0.0

    def test_requires_two_outcomes(self):
        with pytest.raises(EstimatorError):
            summarize(outcomes([1.0], [1.0]))

    def test_ecdfs_sorted(self):
        st = summarize(outcomes([3.0, 1.0, 2.0], [1.0, 3.0, 2.0]))
        assert list(st.ecdf_td) == [1.0, 2.0, 3.0]
        assert list(st.ecdf_ad) == [1.0, 2.0, 3.0]


class TestKsDistance:
    def test_single_point_at_median(self):
        law = limit_burned_area_law(1.0)
        median = math.log(2.0)
        assert ks_distance(np.array([median]), law) == pytest.approx(0.5, rel=1e-12)

    def test_sample_from_the_law_itself(self):
        # Inverse-transform sample from the exact finite-N law; the KS
        # statistic should sit below the 99.9% asymptotic critical value.
        area, n_sensors = 100.0, 25
        law = exact_burned_area_law(area, n_sensors)
        rng = np.random.Generator(np.random.Philox(key=[71, 0]))
        u = rng.random(100_000)
        sample = np.sort(area * (1.0 - u ** (1.0 / n_sensors)))
        assert ks_distance(sample, law) < 1.95 / math.sqrt(sample.size)

    def test_shifted_law_detected(self):
        # Sample from Exp(mean 1) against Exp(mean 4): the KS distance must
        # approach the analytic sup-gap between the two CDFs.
        rng = np.random.Generator(np.random.Philox(key=[73, 0]))
        sample = np.sort(rng.exponential(1.0, 50_000))
        law = limit_burned_area_law(2.0)
        xs = np.linspace(0, 20, 20001)
        true_gap = np.max(np.abs(np.exp(-xs) - np.exp(-xs / 4.0)))
        got = ks_distance(sample, law)
        assert got >= true_gap - 3 / math.sqrt(sample.size)

    def test_unsorted_rejected(self):
        law = limit_burned_area_law(1.0)
        with pytest.raises(EstimatorError):
            ks_distance(np.array([2.0, 1.0]), law)
        with pytest.raises(EstimatorError):
            ks_distance(np.array([]), law)
        # A NaN compares false either way, so it passes the sorted check.
        for sample in ([0.1, np.nan], [np.nan], [np.nan, 0.1]):
            with pytest.raises(EstimatorError):
                ks_distance(np.array(sample), law)

    def test_grid_law_against_engine(self):
        cfg = ScenarioConfig(
            region=RectRegion(4, 4),
            placement=GridPlacement(spacing=1.0),
            model=CircularModel(rate=1.0),
            trials=20_000,
            master_seed=6,
        )
        st = summarize(run_trials(cfg))
        d = ks_distance(st.ecdf_td, grid_td_law(1.0, 1.0))
        assert d < ks_critical(st.n, alpha=0.01)


class TestKsCritical:
    def test_known_constants(self):
        assert ks_critical(10_000, 0.01) == pytest.approx(1.6276 / 100, abs=1e-4)
        assert ks_critical(10_000, 0.001) == pytest.approx(1.9495 / 100, abs=1e-4)

    def test_validation(self):
        with pytest.raises(EstimatorError):
            ks_critical(0)
        with pytest.raises(ParameterError):
            ks_critical(100, alpha=1.5)

    @pytest.mark.parametrize("n", [2.5, True, 10**400], ids=["2.5", "True", "10**400"])
    def test_sample_size_is_an_integer_below_2_53(self, n):
        with pytest.raises(ParameterError, match="sample size"):
            ks_critical(n)


class TestCompareRandomSweep:
    @pytest.mark.parametrize("points", [2.5, True, -1])
    def test_ecdf_points_checked_before_any_trial(self, points, monkeypatch):
        ran = []
        monkeypatch.setattr(firewatch.montecarlo, "run_trials", lambda *a, **k: ran.append(a))
        with pytest.raises(ParameterError, match="ECDF points"):
            compare_random_sweep([10], 1.0, CircularModel(1.0), 3, 0, ecdf_points=points)
        assert ran == []


class TestWireFormats:
    def test_outcomes_csv(self):
        buf = io.StringIO()
        outcomes_to_csv(outcomes([0.5, 1.5], [0.25, 2.25]), buf)
        assert buf.getvalue() == "trial,t_d,a_d\n0,0.5,0.25\n1,1.5,2.25\n"

    def test_summary_json_fields(self):
        import json

        st = summarize(outcomes([1.0, 3.0], [1.0, 3.0]))
        payload = json.loads(summary_to_json(st, ks_td=0.1, ks_ad=None))
        assert set(payload) == {
            "n", "mean_td", "se_td", "var_td", "mean_ad", "se_ad", "var_ad", "ks_td", "ks_ad",
        }
        assert payload["n"] == 2
        assert payload["ks_ad"] is None

    def test_summary_json_rejects_non_finite_values(self):
        st = summarize(outcomes([1.0, 3.0], [1.0, 3.0]))
        with pytest.raises(DomainError):
            summary_to_json(st, ks_td=math.nan)
