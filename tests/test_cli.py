import json
import math

import pytest

import firewatch.cli
from firewatch.cli import PlanRequest, main, plan
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

    def test_non_finite_outcomes_exit_3(self, capsys):
        # A subnormal rate overflows every reach time.
        code, out, err = run_cli(
            capsys, "simulate", "--region", "10x10", "--spacing", "1", "--rate", "1e-320",
            "--trials", "10", "--seed", "1",
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
            ([1, 2], "a region is required"),
        ],
        ids=["no count", "no height", "region number", "placement string", "count list",
             "rate string", "not an object"],
    )
    def test_bad_config_file_exit_2(self, capsys, tmp_path, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

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
    ],
    ids=["simulate one trial", "compare one trial", "compare grid one trial", "compare seed"],
)
def test_rejected_before_any_trial_runs(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("run_trials called")

    monkeypatch.setattr(firewatch.cli, "run_trials", refuse)
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
        req = PlanRequest(10000.0, EllipticalModel(1.0, 2.0, 2.0), "random", "time", 0.5)
        assert plan(req)["D"] == pytest.approx(1.0 / k)

    def test_grid_time_target(self):
        const = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 6
        req = PlanRequest(100.0, CircularModel(1.0), "grid", "time", const)
        assert plan(req)["D"] == pytest.approx(1.0, rel=1e-12)

    def test_grid_rejects_elliptical(self):
        with pytest.raises(ParameterError):
            plan(PlanRequest(100.0, EllipticalModel(1.0, 2.0, 2.0), "grid", "area", 1.0))

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
        result = plan(PlanRequest(1000.0, CircularModel(1.0), "random", "area", target))
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
