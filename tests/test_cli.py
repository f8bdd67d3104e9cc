import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import firewatch.cli
import firewatch.geometry
import firewatch.montecarlo
from firewatch.analytic import plan
from firewatch.cli import main
from firewatch.propagation import CircularModel, EllipticalModel
from firewatch.errors import ParameterError
from firewatch.montecarlo import ks_critical


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyticCommand:
    def test_grid_td_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "grid-td", "--spacing", "1", "--rate", "1", "--x", "0,0.5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,cdf,survival"
        x, cdf, surv = map(float, lines[2].split(","))
        assert cdf == pytest.approx(math.pi / 4, abs=1e-12)
        assert surv == pytest.approx(1 - math.pi / 4, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "ad-limit", "--char-distance", "1", "--x", "1.0",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["survival"] == pytest.approx(math.exp(-1))

    def test_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "grid-td", "--spacing", "1", "--moments"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(0.3826, abs=1e-4)

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "grid-td")
        assert code == 2
        assert "spacing" in err

    def test_domain_error_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "grid-td", "--spacing", "1", "--x", "-0.5"
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rate", "inf", "--x", "0.5"],
            ["--rate", "nan", "--x", "0.5"],
            ["--x", "nan"],
            ["--x", "0.5,inf"],
            ["--x-range", "0:inf:3"],
        ],
        ids=["rate inf", "rate nan", "x nan", "x inf", "x-range inf"],
    )
    def test_non_finite_input_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "analytic", "grid-td", "--spacing", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("configuration error:")


# A valid config file; each bad-config case changes one thing in it.
_CFG = {"region": "10x10", "placement": {"kind": "random", "count": 20}, "trials": 10}


class TestSimulateCommand:
    def test_summary_and_outcomes(self, capsys, tmp_path):
        out_file = tmp_path / "outcomes.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--region", "10x10", "--sensors", "50", "--trials", "200",
            "--seed", "3", "--out", str(out_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 200
        assert summary["ks_td"] is not None and summary["ks_ad"] is not None
        lines = out_file.read_text().splitlines()
        assert lines[0] == "trial,t_d,a_d"
        assert len(lines) == 201

    def test_byte_reproducible_and_worker_independent(self, capsys, tmp_path):
        f1, f2, f3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        argv = ["simulate", "--region", "10x10", "--sensors", "30", "--trials", "150",
                "--seed", "9"]
        code1, out1, _ = run_cli(capsys, *argv, "--out", str(f1), "--workers", "1")
        code2, out2, _ = run_cli(capsys, *argv, "--out", str(f2), "--workers", "1")
        code3, out3, _ = run_cli(capsys, *argv, "--out", str(f3), "--workers", "2")
        assert code1 == code2 == code3 == 0
        assert out1 == out2 == out3
        assert f1.read_bytes() == f2.read_bytes() == f3.read_bytes()

    def test_grid_simulation(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--region", "4x4", "--spacing", "1",
            "--trials", "500", "--seed", "1",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["mean_td"] == pytest.approx(0.3826, abs=0.03)

    @pytest.mark.parametrize(
        "placement,ad_law",
        [(("--region", "10x10", "--spacing", "1"), False),
         (("--region", "100x100", "--sensors", "10000"), True)],
        ids=["grid", "random"],
    )
    def test_ignition_count_sets_the_detection_time_law(self, capsys, placement, ad_law):
        # k ignitions: (1 - c(t))^k on a grid, exp(-k F(t) / D^2) at random.
        # Against the one-ignition laws ks_td reads about 0.38 in both cases.
        code, out, _ = run_cli(
            capsys, "simulate", *placement, "--ignitions", "3", "--trials", "20000",
            "--seed", "7",
        )
        assert code == 0
        summary = json.loads(out)
        band = ks_critical(20_000, alpha=0.01)
        assert summary["ks_td"] < band
        # Several fronts are clipped to the region: only the random law covers them.
        if ad_law:
            assert summary["ks_ad"] < band
        else:
            assert summary["ks_ad"] is None

    @pytest.mark.parametrize(
        "flags",
        [["--spacing", "1", "--trials", "10", "--seed", "1"],
         ["--sensors", "1000000", "--no-resample", "--trials", "3", "--seed", "7"]],
        ids=["grid", "fixed random layout"],
    )
    def test_non_finite_outcomes_exit_3(self, capsys, flags):
        # A subnormal rate overflows every reach time; the fixed layout's
        # search ends once every ring left is out of finite reach.
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--rate", "1e-320", *flags
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("domain error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flags",
        [["--region", "1e200x1e200", "--spacing", "1e199"],
         ["--region", "10x10", "--sensors", "100", "--rate", "1e-160"]],
        ids=["burned area overflows", "variance overflows"],
    )
    def test_overflow_exit_3(self, capsys, flags):
        # No traceback and no numpy warning: the domain error is the only output.
        code, out, err = run_cli(capsys, "simulate", *flags, "--trials", "10", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("domain error:")

    def test_layout_too_large_for_memory_exit_2(self, capsys):
        # 10^15 + 1 nodes a side: numpy refuses the allocation outright.
        code, out, err = run_cli(
            capsys, "simulate", "--region", "1x1e15", "--spacing", "1", "--trials", "2"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "does not fit in memory" in err

    def test_non_finite_times_skip_the_union_area(self, capsys, monkeypatch):
        # At this rate every reach time overflows; the union area of fronts
        # at an infinite time is never asked for, and the run fails at once.
        union = firewatch.montecarlo.burned_union_area

        def finite_only(fronts, *args, **kwargs):
            finite = all(np.isfinite(t).all() for _, _, t in fronts)
            assert finite, "union area at a non-finite time"
            return union(fronts, *args, **kwargs)

        monkeypatch.setattr(firewatch.montecarlo, "burned_union_area", finite_only)
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--spacing", "1", "--rate", "1e-320",
            "--model", "elliptical", "--hb", "2", "--ignitions", "3", "--trials", "10",
            "--seed", "1",
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("domain error:")

    def test_grid_with_elliptical_model_omits_ks(self, capsys):
        # grid closed forms are circular-only; the engine still runs
        code, out, _ = run_cli(
            capsys, "simulate", "--region", "4x4", "--spacing", "1",
            "--model", "elliptical", "--hb", "2", "--lb", "2",
            "--trials", "100", "--seed", "1",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["ks_td"] is None and summary["ks_ad"] is None
        assert summary["n"] == 100

    def test_front_with_a_huge_head_to_back_ratio(self, capsys):
        # At hb = 1e17 the back of the front once moved at speed 0 in the
        # reach-time solve (1 - e^2 cancelled), so a trial could get an
        # infinite T_d.
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "100",
            "--model", "elliptical", "--hb", "1e17", "--lb", "1.5",
        )
        assert code == 0, err
        assert json.loads(out)["n"] == 10000

    @pytest.mark.parametrize("lb", ["1e12", "1e308"])
    def test_a_front_too_narrow_to_search_exits_2(self, capsys, lb):
        # So narrow a front spans the region long before it meets a sensor,
        # and the ring search would go on through all 2^51 cells.
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "9007199254740992",
            "--model", "elliptical", "--lb", lb, "--trials", "2",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "length-to-breadth" in err

    def test_fixed_random_layout_has_no_clipped_burned_area_law(self, capsys):
        # (1 - x/A)^N is the law of A_d averaged over layouts; one fixed
        # layout has another, and here ks_ad read 0.0317 against it, with a
        # 99% band of 0.0115.
        code, out, _ = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "100", "--no-resample",
            "--trials", "20000", "--seed", "16",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["ks_ad"] is None
        assert summary["ks_td"] is not None

    def test_config_file_with_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "region": "10x10",
            "placement": {"kind": "random", "count": 20},
            "model": {"kind": "circular", "rate": 1.0},
            "trials": 50,
            "seed": 4,
        }))
        code1, out1, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code1 == 0
        # flag overrides the file's trial count
        code2, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--trials", "80")
        assert code2 == 0
        assert json.loads(out2)["n"] == 80

    def test_missing_placement_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--region", "10x10", "--trials", "10")
        assert code == 2
        assert "placement" in err

    def test_conflicting_placement_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "5", "--spacing", "1",
            "--trials", "10",
        )
        assert code == 2

    def test_seed_beyond_64_bits_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "5", "--trials", "10",
            "--seed", str(2**64 + 5),
        )
        assert code == 2
        assert out == "" and "seed" in err

    @pytest.mark.parametrize(
        "flags",
        [["--model", "elliptical", "--heading", "nan"], ["--rate", "inf"]],
        ids=["heading nan", "rate inf"],
    )
    def test_non_finite_model_parameter_exit_2(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "5", "--trials", "10", *flags,
        )
        assert code == 2
        assert out == "" and err.startswith("configuration error:")

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"region": "10x10", "placement": {"kind": "random"}}, "has no key 'count'"),
            ({"region": {"width": 10}, "placement": {"kind": "grid", "spacing": 1}},
             "has no key 'height'"),
            ({"region": 7, "placement": {"kind": "grid", "spacing": 1}}, "mistyped value"),
            ({"region": "10x10", "placement": "grid"}, "mistyped value"),
            ({"region": "10x10", "placement": {"kind": "random", "count": [5]}},
             "mistyped value"),
            ({"region": "10x10", "placement": {"kind": "grid", "spacing": 1},
              "model": {"rate": "fast"}}, "mistyped value"),
            ([1, 2], "mistyped value"),
            (dict(_CFG, clip_to_region="false"), "clip_to_region must be a JSON boolean"),
            (dict(_CFG, resample_layout="no"), "resample_layout must be a JSON boolean"),
            (dict(_CFG, placement={"kind": "random", "count": True}),
             "count must be a JSON integer"),
            (dict(_CFG, trials=50.9), "trials must be a JSON integer"),
            (dict(_CFG, seed=3.9), "seed must be a JSON integer"),
            (dict(_CFG, ignitions=True), "ignitions must be a JSON integer"),
            (dict(_CFG, model={"rate": "2"}), "rate must be a JSON number"),
            (dict(_CFG, model={"kind": "elliptical", "hb": True}), "hb must be a JSON number"),
            (dict(_CFG, region={"width": 10, "height": "10"}), "height must be a JSON number"),
            (dict(_CFG, clip=False), "unknown top-level key 'clip'"),
            (dict(_CFG, sensors=100), "unknown top-level key 'sensors'"),
            (dict(_CFG, placement={"kind": "grid", "spacing": 1, "count": 5}),
             "unknown grid key 'count'"),
            (dict(_CFG, model={"kind": "circular", "speed": 2}), "unknown model key 'speed'"),
            (dict(_CFG, region={"width": 10, "height": 10, "depth": 1}),
             "unknown region key 'depth'"),
        ],
        ids=["no count", "no height", "region number", "placement string", "count list",
             "rate string", "not an object", "clip string", "resample string", "count bool",
             "trials float", "seed float", "ignitions bool", "rate numeric string", "hb bool",
             "height string", "key clip", "key sensors", "grid with count", "model key",
             "region key"],
    )
    def test_bad_config_file_exit_2(self, capsys, tmp_path, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_readme_config_example_runs(self, capsys, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("Scenario configs can also be given as JSON"):]
        path = tmp_path / "cfg.json"
        path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--trials", "2")
        assert code == 0, err
        assert json.loads(out)["n"] == 2

    def test_region_whose_area_underflows_exit_2_before_any_trial(self, capsys):
        # Its cells would have zero width: a ring search among 2^53 sensors
        # would never end.
        code, out, err = run_cli(
            capsys, "simulate", "--region", "1e-320x1e-320", "--sensors", str(2**53),
            "--trials", "2",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "area must be positive" in err

    def test_fronts_that_meet_in_a_region_of_subnormal_width(self, capsys, monkeypatch):
        # The union routine's frame gives the region's bottom and top edges
        # no length; the run still measures every group of fronts that meet.
        union = firewatch.geometry._union_area
        groups = []

        def counted(fronts, region):
            groups.append(len(fronts))
            return union(fronts, region)

        monkeypatch.setattr(firewatch.geometry, "_union_area", counted)
        code, out, err = run_cli(
            capsys, "simulate", "--region", "1e-320x10", "--sensors", "1", "--ignitions", "3",
            "--trials", "50", "--seed", "3",
        )
        assert code == 0, err
        assert groups
        assert 0.0 <= json.loads(out)["mean_ad"] <= 1e-319

    def test_zero_sensors_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--sensors", "0", "--trials", "10",
        )
        assert code == 2
        assert "sensor count" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--region", "10x10", "--sensors", "5", "--trials", "1"],
        ["compare", "--sensor-counts", "10", "--trials", "1"],
        ["compare", "--region", "4x4", "--spacing", "1", "--trials", "1"],
        ["compare", "--sensor-counts", "10", "--trials", "10", "--seed", str(2**64)],
        ["compare", "--region", "4x4", "--spacing", "1", "--model", "elliptical",
         "--hb", "2", "--lb", "2", "--trials", "10"],
        ["compare", "--sensor-counts", "-1", "--trials", "1"],
        ["compare", "--sensor-counts", "10,-1", "--trials", "10"],
    ],
    ids=["simulate one trial", "compare one trial", "compare grid one trial", "compare seed",
         "compare elliptical grid", "compare negative count", "compare negative later count"],
)
def test_rejected_before_any_trial_runs(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("run_trials called")

    # Every run goes through montecarlo's run_trials, whoever calls it.
    monkeypatch.setattr(firewatch.montecarlo, "run_trials", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("configuration error:")


class TestCompareCommand:
    def test_random_sweep_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--sensor-counts", "10,50", "--trials", "300", "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["n_sensors"] for r in payload["rows"]] == [10, 50]
        for row in payload["rows"]:
            assert row["analytic_mean_td"] == pytest.approx(0.5)
            assert row["analytic_mean_ad"] == pytest.approx(1.0)
        # ECDF table monotone in x for all three CDF columns, per sweep entry
        for n in (10, 50):
            rows = [r for r in payload["ecdf"] if r["n_sensors"] == n]
            for col in ("empirical", "exact", "limit"):
                vals = [r[col] for r in rows]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ignitions_scale_the_detection_time_moments(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--sensor-counts", "50", "--trials", "100", "--seed", "2",
            "--ignitions", "4", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        # D -> D / sqrt(4): half the mean, a quarter of the variance.
        assert row["analytic_mean_td"] == pytest.approx(0.25)
        assert row["analytic_var_td"] == pytest.approx((4 - math.pi) / (4 * math.pi) / 4)

    def test_csv_output_with_ecdf_file(self, capsys, tmp_path):
        table = tmp_path / "rows.csv"
        ecdf = tmp_path / "ecdf.csv"
        code, _, _ = run_cli(
            capsys,
            "compare", "--sensor-counts", "25", "--trials", "200", "--seed", "2",
            "--out", str(table), "--ecdf-out", str(ecdf),
        )
        assert code == 0
        header = table.read_text().splitlines()[0]
        assert header.startswith("n_sensors,char_distance,mean_td")
        assert ecdf.read_text().splitlines()[0] == "n_sensors,x,empirical,exact,limit"

    def test_grid_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--region", "4x4", "--spacing", "1", "--trials", "400",
            "--seed", "2", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["n_sensors"] == 25
        assert row["analytic_mean_td"] == pytest.approx(0.3826, abs=1e-4)
        assert row["analytic_mean_ad"] == pytest.approx(math.pi / 6, abs=1e-12)

    def test_grid_mode_honours_ignitions(self, capsys):
        from firewatch.analytic import grid_td_law
        from firewatch.geometry import RectRegion
        from firewatch.montecarlo import ScenarioConfig, ks_distance, run_trials, summarize
        from firewatch.placement import GridPlacement

        code, out, _ = run_cli(
            capsys,
            "compare", "--region", "4x4", "--spacing", "1", "--ignitions", "2",
            "--trials", "300", "--seed", "2",
        )
        assert code == 0
        header, line = out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        config = ScenarioConfig(
            RectRegion(4.0, 4.0), GridPlacement(1.0), CircularModel(1.0), 300, 2, 2
        )
        ecdf_td = summarize(run_trials(config)).ecdf_td
        assert float(row["ks_td"]) == ks_distance(ecdf_td, grid_td_law(1.0, 1.0, 2))
        # Two ignitions have no closed-form moments and always clip the area.
        for column in ("analytic_mean_td", "analytic_var_td", "analytic_mean_ad",
                       "analytic_var_ad", "ks_ad_exact", "ks_ad_limit"):
            assert row[column] == "", column


class TestPlanCommand:
    def test_random_area_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--placement", "random", "--area", "10000",
            "--target-area", "1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == pytest.approx(1.0)
        assert payload["N"] == 10000
        assert payload["assumptions"]

    def test_grid_area_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--placement", "grid", "--area", "100",
            "--target-area", str(math.pi / 6),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == pytest.approx(1.0, rel=1e-12)
        assert payload["N"] == 100

    def test_random_time_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--placement", "random", "--area", "10000",
            "--rate", "1", "--target-time", "0.5",
        )
        assert code == 0
        assert json.loads(out)["D"] == pytest.approx(1.0)

    def test_elliptical_time_target_divides_by_k(self):
        k = 2 * math.sqrt(2) / 1.5
        result = plan(10000.0, EllipticalModel(1.0, 2.0, 2.0), "random", "time", 0.5)
        assert result["D"] == pytest.approx(1.0 / k)

    def test_grid_time_target(self):
        const = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 6
        result = plan(100.0, CircularModel(1.0), "grid", "time", const)
        assert result["D"] == pytest.approx(1.0, rel=1e-12)

    def test_grid_rejects_elliptical(self):
        with pytest.raises(ParameterError):
            plan(100.0, EllipticalModel(1.0, 2.0, 2.0), "grid", "area", 1.0)

    def test_exactly_one_target_required(self, capsys):
        code, _, _ = run_cli(capsys, "plan", "--placement", "random", "--area", "100")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "plan", "--placement", "random", "--area", "100",
            "--target-area", "1", "--target-time", "1",
        )
        assert code == 2

    def test_nonpositive_target_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--placement", "random", "--area", "100",
            "--target-area", "-1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--area", "100", "--target-area", "inf"], ["--area", "inf", "--target-area", "1"],
         ["--area", "100", "--target-time", "nan"], ["--area", "100", "--target-area", "1e-320"],
         ["--area", "100", "--target-time", "1e308"]],
        ids=["target inf", "area inf", "target nan", "spacing underflows", "spacing overflows"],
    )
    def test_non_finite_request_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "plan", "--placement", "grid", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("configuration error:")

    def test_export_random_layout(self, capsys, tmp_path):
        path = tmp_path / "layout.csv"
        code, out, _ = run_cli(
            capsys, "plan", "--placement", "random", "--region", "100x100",
            "--target-area", "1.0", "--seed", "5", "--export-layout", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 10001

    def test_export_negative_seed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "layout.csv"
        code, out, err = run_cli(
            capsys, "plan", "--placement", "random", "--region", "10x10",
            "--target-area", "1.0", "--seed", "-1", "--export-layout", str(path),
        )
        assert code == 2
        assert out == "" and "seed" in err
        assert not path.exists()

    def test_export_grid_layout_needs_multiple_sides(self, capsys, tmp_path):
        path = tmp_path / "layout.csv"
        code, _, err = run_cli(
            capsys, "plan", "--placement", "grid", "--region", "100x100",
            "--target-area", "1.0", "--export-layout", str(path),
        )
        # planned D = sqrt(6/pi) does not divide 100: configuration error
        assert code == 2
        assert "remainder" in err

    def test_plan_then_simulate_hits_target(self):
        # Planned (D, N) must reproduce the requested mean burned area.
        import math as _math

        from firewatch.geometry import RectRegion
        from firewatch.montecarlo import ScenarioConfig, run_trials, summarize
        from firewatch.placement import RandomPlacement

        target = 1.0
        result = plan(1000.0, CircularModel(1.0), "random", "area", target)
        assert result["N"] == 1000
        side = _math.sqrt(result["N"] * result["D"] ** 2)
        cfg = ScenarioConfig(
            region=RectRegion(side, side),
            placement=RandomPlacement(count=result["N"]),
            model=CircularModel(1.0),
            trials=10_000,
            master_seed=21,
        )
        st = summarize(run_trials(cfg))
        assert abs(st.mean_ad - target) < 3 * st.se_ad


class TestReproducibility:
    def test_compare_byte_reproducible(self, capsys, tmp_path):
        f1, f2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        argv = ["compare", "--sensor-counts", "20", "--trials", "150", "--seed", "4"]
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2), "--workers", "2"]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_plan_export_byte_reproducible(self, capsys, tmp_path):
        f1, f2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        argv = ["plan", "--placement", "random", "--region", "10x10",
                "--target-area", "1.0", "--seed", "6"]
        assert main(argv + ["--export-layout", str(f1)]) == 0
        assert main(argv + ["--export-layout", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


# The exact stdout of each law's moments, two survival tables, two plans, two
# compare tables and five simulate summaries, one for each way the summary's
# laws are chosen.
# Every value is printed with repr, so a change of one ulp shows.
GOLDEN = [
    (
        "analytic grid-td --spacing 2 --rate 1.3 --moments",
        """\
{
  "law": "grid detection time",
  "mean": 0.5886120895878558,
  "second_moment": 0.3944773175542406,
  "variance": 0.048013125545258516,
  "support_upper": 1.0878565864408423
}
""",
    ),
    (
        "analytic grid-ad --spacing 2 --rate 1.3 --moments",
        """\
{
  "law": "grid burned area",
  "mean": 2.0943951023931953,
  "second_moment": null,
  "variance": null,
  "support_upper": 6.283185307179586
}
""",
    ),
    (
        "analytic random-td --char-distance 1.5 --model elliptical --hb 2.5 --lb 1.7 --rate 0.9 --moments",
        """\
{
  "law": "limit detection time",
  "mean": 1.5521910488577735,
  "second_moment": 3.0676122818165767,
  "variance": 0.6583152296623819,
  "support_upper": null
}
""",
    ),
    (
        "analytic random-td --char-distance 1.5 --rate 0.9 --moments",
        """\
{
  "law": "limit detection time",
  "mean": 0.8333333333333333,
  "second_moment": 0.8841941282883072,
  "variance": 0.18974968384386295,
  "support_upper": null
}
""",
    ),
    (
        "analytic ad-exact --area 100 --sensors 7 --moments",
        """\
{
  "law": "exact burned area (n=7)",
  "mean": 12.5,
  "second_moment": 277.77777777777777,
  "variance": 121.52777777777777,
  "support_upper": 100.0
}
""",
    ),
    (
        "analytic ad-limit --char-distance 1.5 --moments",
        """\
{
  "law": "limit burned area",
  "mean": 2.25,
  "second_moment": 10.125,
  "variance": 5.0625,
  "support_upper": null
}
""",
    ),
    (
        "analytic random-td --char-distance 1.5 --rate 0.9 --x 0,0.1,1,2.5",
        """\
x,cdf,survival
0.0,0.0,1.0
0.1,0.011246018941042935,0.9887539810589571
1.0,0.677281016732951,0.322718983267049
2.5,0.9991485616571948,0.0008514383428051582
""",
    ),
    (
        "analytic ad-exact --area 100 --sensors 7 --x 0,5,99,100,150",
        """\
x,cdf,survival
0.0,0.0,1.0
5.0,0.30166270390625005,0.69833729609375
99.0,0.99999999999999,1.0000000000000058e-14
100.0,1.0,0.0
150.0,1.0,0.0
""",
    ),
    (
        "plan --area 10000 --placement random --target-time 0.37 --model elliptical --hb 2.3 --lb 1.9 --rate 1.7",
        """\
{
  "D": 0.6547265445014572,
  "N": 23329,
  "assumptions": [
    "random placement, many sensors: mean detection time = k*D/(2*rate)",
    "time scale k = 2*sqrt(lb)/(1 + 1/hb) = 1.92141285635197"
  ]
}
""",
    ),
    (
        "plan --area 10000 --placement grid --target-time 0.37 --rate 3",
        """\
{
  "D": 2.9012185408696376,
  "N": 1189,
  "assumptions": [
    "grid: mean detection time = (sqrt(2)+log(1+sqrt(2)))/6 * D/rate"
  ]
}
""",
    ),
    (
        "compare --sensor-counts 10,40 --char-distance 1.5 --trials 200 --seed 5",
        """\
n_sensors,char_distance,mean_td,se_td,var_td,mean_ad,se_ad,var_ad,analytic_mean_td,analytic_var_td,analytic_mean_ad,analytic_var_ad,ks_td,ks_ad_exact,ks_ad_limit
10,1.5,0.8700193417833486,0.03607184688890849,0.26023562759537144,2.2378110362991332,0.14780604379918266,4.369325316713181,0.75,0.153697243913529,2.25,5.0625,0.13740445534713996,0.06432151983030687,0.04237712851140768
40,1.5,0.8157748484028302,0.03386481285568619,0.22936510995012976,2.2480880045718465,0.16869925023730276,5.69188740612562,0.75,0.153697243913529,2.25,5.0625,0.056448439880805945,0.04176831364700892,0.04256998591407102
""",
    ),
    (
        "compare --spacing 1 --region 5x4 --trials 200 --seed 3",
        """\
n_sensors,char_distance,mean_td,se_td,var_td,mean_ad,se_ad,var_ad,analytic_mean_td,analytic_var_td,analytic_mean_ad,analytic_var_ad,ks_td,ks_ad_exact,ks_ad_limit
30,1.0,0.3882909738877096,0.009697883142093465,0.01880978748754012,0.5324547753911362,0.022891031159066474,0.10479986150507045,0.38259785823210635,0.020285545542871725,0.5235987755982988,,0.05200976612410557,0.05200976612410557,
""",
    ),
    (
        "simulate --region 10x10 --sensors 50 --ignitions 3 --trials 200 --seed 5",
        """\
{
  "n": 200,
  "mean_td": 0.43058355345174093,
  "se_td": 0.016403697088321498,
  "var_td": 0.053816255633081435,
  "mean_ad": 2.0619901850238107,
  "se_ad": 0.1487904911433359,
  "var_ad": 4.427722050935023,
  "ks_td": 0.05763977797898562,
  "ks_ad": 0.04421516731333869
}
""",
    ),
    (
        "simulate --region 10x10 --sensors 50 --no-clip --trials 200 --seed 5",
        """\
{
  "n": 200,
  "mean_td": 0.8134022572139736,
  "se_td": 0.03219281056220452,
  "var_td": 0.20727541037879743,
  "mean_ad": 2.7264697172069314,
  "se_ad": 0.25730944516504406,
  "var_ad": 13.241630114228563,
  "ks_td": 0.12070239329248378,
  "ks_ad": 0.12070239329248378
}
""",
    ),
    (
        "simulate --region 10x10 --sensors 50 --no-resample --trials 200 --seed 5",
        """\
{
  "n": 200,
  "mean_td": 0.7656918593506012,
  "se_td": 0.032172766976123354,
  "var_td": 0.20701738697998673,
  "mean_ad": 2.0675256411149316,
  "se_ad": 0.1599097067655586,
  "var_ad": 5.114222863569387,
  "ks_td": 0.08088354393324548,
  "ks_ad": null
}
""",
    ),
    (
        "simulate --region 5x4 --spacing 1 --ignitions 2 --trials 200 --seed 3",
        """\
{
  "n": 200,
  "mean_td": 0.3117260532296735,
  "se_td": 0.008753511085694122,
  "var_td": 0.01532479126547398,
  "mean_ad": 0.6473465782089641,
  "se_ad": 0.03042197916703176,
  "var_ad": 0.1850993632878629,
  "ks_td": 0.10264498391781585,
  "ks_ad": null
}
""",
    ),
    (
        "simulate --region 5x4 --spacing 1 --model elliptical --hb 2 --lb 2 --trials 200 --seed 3",
        """\
{
  "n": 200,
  "mean_td": 0.7789950466266344,
  "se_td": 0.02286634737745829,
  "var_td": 0.10457396847731872,
  "mean_ad": 0.6281181983968965,
  "se_ad": 0.03264325282186321,
  "var_ad": 0.21311639095841606,
  "ks_td": null,
  "ks_ad": null
}
""",
    ),
]


@pytest.mark.parametrize("command, want", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes(capsys, command, want):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == want
