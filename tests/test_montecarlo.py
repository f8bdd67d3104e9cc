import io
import math

import numpy as np
import pytest
from scipy import stats

import firewatch.montecarlo
from firewatch.analytic import (
    exact_burned_area_law,
    grid_td_law,
    limit_burned_area_law,
)
from firewatch.errors import DomainError, EstimatorError, ParameterError
from firewatch.geometry import Point, RectRegion, disk_rect_area, ellipse_axis_rates
from firewatch.montecarlo import (
    Outcomes,
    ScenarioConfig,
    SummaryStats,
    _CellSampler,
    _front_inside,
    _philox_words,
    _simulate_range,
    _trial_uniforms,
    detection_time,
    ks_critical,
    ks_distance,
    outcomes_to_csv,
    run_trials,
    summarize,
    summary_to_json,
)
from firewatch.placement import GridPlacement, RandomPlacement, build_layout
from firewatch.propagation import CircularModel, EllipticalModel, burned_area

from helpers import dense_detection_times, per_trial_outcomes


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
        assert burned_area(model, t) == 0.0

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
            # sampled unions may overshoot by the area tolerance
            bound = k * burned_area(model, out.t_d) * (1 + 5 * cfg.area_tol) + 1e-9
            assert np.all(out.a_d <= bound)


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
            # More sensors than one slice of pairs holds: one trial per slice.
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
