"""Command-line interface.

Subcommands: ``analytic`` evaluates the closed-form laws at given points,
``simulate`` runs the Monte Carlo engine, ``compare`` sweeps sensor counts
and tabulates empirical statistics against the analytic laws (plot-ready
CSV/JSON, no plotting), and ``plan`` inverts the laws to size a network for
a target detection statistic.

Exit codes: 0 success, 2 configuration error, 3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import analytic
from .analytic import PlanRequest, plan
from .errors import DomainError, ParameterError
from .geometry import RectRegion
from .montecarlo import (
    ScenarioConfig,
    _splitmix64,
    ks_distance,
    outcomes_to_csv,
    run_trials,
    summarize,
    summary_to_json,
)
from .placement import (
    GridPlacement,
    RandomPlacement,
    _check_master_seed,
    build_layout,
    characteristic_distance,
    layout_to_csv,
)
from .propagation import CircularModel, EllipticalModel, SpreadModel

__all__ = ["main", "PlanRequest", "plan", "compare_random_sweep", "compare_grid"]


# ---------------------------------------------------------------------------
# parsing helpers

def _parse_region(text: str) -> RectRegion:
    try:
        w, h = text.lower().split("x")
        return RectRegion(float(w), float(h))
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"bad region {text!r}: expected WIDTHxHEIGHT") from exc


def _parse_counts(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ParameterError(f"bad count list {text!r}") from exc


def _parse_points(args) -> Optional[np.ndarray]:
    if args.x is not None:
        try:
            xs = np.array([float(tok) for tok in args.x.split(",") if tok])
        except ValueError as exc:
            raise ParameterError(f"bad point list {args.x!r}") from exc
    elif args.x_range is not None:
        try:
            start, stop, count = args.x_range.split(":")
            start, stop = float(start), float(stop)
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError("the range must be finite")
            xs = np.linspace(start, stop, int(count))
        except ValueError as exc:
            raise ParameterError(f"bad range {args.x_range!r}: expected START:STOP:COUNT") from exc
    else:
        return None
    if not np.all(np.isfinite(xs)):
        raise ParameterError("evaluation points must be finite")
    return xs


def _model_from_args(args, cfg: dict) -> SpreadModel:
    """The spread model of the model flags; a flag left out takes its value
    from ``cfg`` (a config file's ``model`` section), else its default."""
    kind = args.model or cfg.get("kind", "circular")
    values = []
    for flag, default in (("rate", 1.0), ("hb", 1.0), ("lb", 1.0), ("heading", 0.0)):
        given = getattr(args, flag)
        values.append(given if given is not None else float(cfg.get(flag, default)))
    rate, hb, lb, heading = values
    if kind == "circular":
        return CircularModel(rate=rate)
    if kind == "elliptical":
        return EllipticalModel(rate=rate, hb_ratio=hb, lb_ratio=lb, heading=heading)
    raise ParameterError(f"unknown model kind {kind!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc


def _scenario_from_args(args) -> ScenarioConfig:
    """Merge the optional JSON config file with flag overrides."""
    cfg = _load_config_file(args.config) if args.config else {}
    try:
        return _scenario_from(cfg, args)
    except (ParameterError, DomainError):
        raise
    except KeyError as exc:
        raise ParameterError(f"config file {args.config} has no key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"config file {args.config} has a mistyped value: {exc}") from exc


def _scenario_from(cfg: dict, args) -> ScenarioConfig:
    region = None
    if "region" in cfg:
        raw = cfg["region"]
        region = _parse_region(raw) if isinstance(raw, str) else RectRegion(raw["width"], raw["height"])
    if args.region:
        region = _parse_region(args.region)
    if region is None:
        raise ParameterError("a region is required (--region WxH or config file)")

    placement = None
    if "placement" in cfg:
        raw = cfg["placement"]
        if raw.get("kind") == "grid":
            placement = GridPlacement(spacing=float(raw["spacing"]))
        elif raw.get("kind") == "random":
            placement = RandomPlacement(count=int(raw["count"]))
        else:
            raise ParameterError(f"unknown placement kind in config: {raw!r}")
    if args.spacing is not None and args.sensors is not None:
        raise ParameterError("--spacing and --sensors are mutually exclusive")
    if args.spacing is not None:
        placement = GridPlacement(spacing=args.spacing)
    if args.sensors is not None:
        placement = RandomPlacement(count=args.sensors)
    if placement is None:
        raise ParameterError("a placement is required (--spacing D or --sensors N or config file)")

    model = _model_from_args(args, cfg.get("model", {}))

    trials = args.trials if args.trials is not None else int(cfg.get("trials", 10000))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    ignitions = args.ignitions if args.ignitions is not None else int(cfg.get("ignitions", 1))
    resample = args.resample if args.resample is not None else cfg.get("resample_layout")
    clip = args.clip if args.clip is not None else cfg.get("clip_to_region")
    area_tol = float(cfg.get("area_tol", 1e-3))

    return ScenarioConfig(
        region=region,
        placement=placement,
        model=model,
        trials=trials,
        master_seed=seed,
        ignition_count=ignitions,
        resample_layout_each_trial=resample,
        clip_to_region=clip,
        area_tol=area_tol,
    )


def _write_text(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    """JSON text of ``payload``; a NaN or infinite value is a domain error."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError("the result has a value that is not finite") from exc


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(columns)]
    lines.extend(",".join(fmt(row.get(c)) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_rows(rows: list[dict], columns: list[str], fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _write_text(_json(rows), out)
    else:
        _write_text(_rows_to_csv(rows, columns), out)


# ---------------------------------------------------------------------------
# analytic

def _law_from_args(args) -> analytic.AnalyticLaw:
    name = args.law
    if name in ("grid-td", "grid-ad"):
        if args.spacing is None:
            raise ParameterError(f"law {name} requires --spacing")
        maker = analytic.grid_td_law if name == "grid-td" else analytic.grid_ad_law
        return maker(args.spacing, args.rate if args.rate is not None else 1.0)
    if name == "random-td":
        if args.char_distance is None:
            raise ParameterError("law random-td requires --char-distance")
        return analytic.random_td_law(_model_from_args(args, {}), args.char_distance)
    if name == "ad-exact":
        if args.area is None or args.sensors is None:
            raise ParameterError("law ad-exact requires --area and --sensors")
        return analytic.exact_burned_area_law(args.area, args.sensors)
    if name == "ad-limit":
        if args.char_distance is None:
            raise ParameterError("law ad-limit requires --char-distance")
        return analytic.limit_burned_area_law(args.char_distance)
    raise ParameterError(f"unknown law {name!r}")


def _cmd_analytic(args) -> int:
    law = _law_from_args(args)
    if args.moments:
        payload = {
            "law": law.name,
            "mean": law.mean,
            "second_moment": law.second_moment,
            "variance": law.variance,
            "support_upper": law.support_upper,
        }
        _write_text(_json(payload), args.out)
        return 0
    xs = _parse_points(args)
    if xs is None:
        upper = law.support_upper if law.support_upper is not None else 4.0 * (law.mean or 1.0)
        xs = np.linspace(0.0, upper, 101)
    if np.any(xs < 0):
        raise DomainError("evaluation points must be nonnegative")
    surv = np.asarray(law.survival(xs), dtype=float)
    rows = [
        {"x": float(x), "cdf": float(1.0 - s), "survival": float(s)}
        for x, s in zip(xs, surv)
    ]
    _emit_rows(rows, ["x", "cdf", "survival"], args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate

def _summary_laws(config: ScenarioConfig, char_distance: Optional[float] = None):
    """Laws for the KS columns of the detection time and the burned area,
    chosen by placement kind and ignition count; None where no law applies.

    ``char_distance`` is the D that a random region was built from, as a
    square of area n D^2: the laws then take D and n D^2 as given, not as
    the region's sides give them back after rounding.
    """
    k = config.ignition_count
    clipped = config.clip_to_region or k > 1  # several fronts are always clipped
    if isinstance(config.placement, GridPlacement):
        if not isinstance(config.model, CircularModel):
            return None, None  # the grid closed forms assume circular spread
        spacing = config.placement.spacing
        rate = config.model.rate
        td_law = analytic.grid_td_law(spacing, rate, k)
        ad_law = None if clipped else analytic.grid_ad_law(spacing, rate)
        return td_law, ad_law
    n = config.placement.count
    if char_distance is None:
        area = config.region.area
        d = characteristic_distance(area, n)
    else:
        d, area = char_distance, n * char_distance * char_distance
    # k independent ignitions: exp(-k F(t) / D^2), the law of D / sqrt(k).
    td_law = analytic.random_td_law(config.model, d / math.sqrt(k))
    if clipped:
        ad_law = analytic.exact_burned_area_law(area, n)
    else:
        ad_law = analytic.limit_burned_area_law(d)
    return td_law, ad_law


def _check_trials(trials: int) -> None:
    # summarize needs two outcomes; say so before running any trial.
    if trials < 2:
        raise ParameterError(f"trials must be >= 2 to summarize, got {trials}")


def _cmd_simulate(args) -> int:
    config = _scenario_from_args(args)
    _check_trials(config.trials)
    outcomes = run_trials(config, workers=args.workers)
    stats = summarize(outcomes)
    td_law, ad_law = _summary_laws(config)
    ks_td = ks_distance(stats.ecdf_td, td_law) if td_law else None
    ks_ad = ks_distance(stats.ecdf_ad, ad_law) if ad_law else None
    if args.out:
        with open(args.out, "w") as fh:
            outcomes_to_csv(outcomes, fh)
    sys.stdout.write(summary_to_json(stats, ks_td=ks_td, ks_ad=ks_ad) + "\n")
    return 0


# ---------------------------------------------------------------------------
# compare

_COMPARE_COLUMNS = [
    "n_sensors",
    "char_distance",
    "mean_td",
    "se_td",
    "var_td",
    "mean_ad",
    "se_ad",
    "var_ad",
    "analytic_mean_td",
    "analytic_var_td",
    "analytic_mean_ad",
    "analytic_var_ad",
    "ks_td",
    "ks_ad_exact",
    "ks_ad_limit",
]

_ECDF_COLUMNS = ["n_sensors", "x", "empirical", "exact", "limit"]


def _compare_row(n, char_distance, stats, td_law, ad_law, limit_law=None) -> dict:
    """One row of the compare table. ``ad_law`` is the exact burned-area law;
    the analytic burned-area moments are those of ``limit_law`` where there
    is one (random sweeps), else of ``ad_law``."""
    moments = limit_law or ad_law
    return {
        "n_sensors": n,
        "char_distance": char_distance,
        "mean_td": stats.mean_td,
        "se_td": stats.se_td,
        "var_td": stats.var_td,
        "mean_ad": stats.mean_ad,
        "se_ad": stats.se_ad,
        "var_ad": stats.var_ad,
        "analytic_mean_td": td_law.mean,
        "analytic_var_td": td_law.variance,
        "analytic_mean_ad": moments.mean,
        "analytic_var_ad": moments.variance,
        "ks_td": ks_distance(stats.ecdf_td, td_law),
        "ks_ad_exact": ks_distance(stats.ecdf_ad, ad_law),
        "ks_ad_limit": ks_distance(stats.ecdf_ad, limit_law) if limit_law else None,
    }


def compare_random_sweep(
    sensor_counts: Sequence[int],
    char_distance: float,
    model: SpreadModel,
    trials: int,
    master_seed: int,
    ignition_count: int = 1,
    workers: int = 1,
    ecdf_points: int = 256,
) -> tuple[list[dict], list[dict]]:
    """Simulate each sensor count at fixed D and tabulate against the laws.

    The region per entry is the square of area ``n * D^2``; each entry runs
    under a seed derived from (master_seed, n) so sweep entries are
    decorrelated but reproducible.
    """
    _check_master_seed(master_seed)
    rows = []
    ecdf_rows = []
    for n in sensor_counts:
        side = math.sqrt(n * char_distance * char_distance)
        config = ScenarioConfig(
            region=RectRegion(side, side),
            placement=RandomPlacement(count=n),
            model=model,
            trials=trials,
            master_seed=_splitmix64(master_seed ^ n) >> 1,
            ignition_count=ignition_count,
        )
        stats = summarize(run_trials(config, workers=workers))
        # Random placement clips: the burned-area law is the exact one.
        td_law, exact_law = _summary_laws(config, char_distance)
        limit_law = analytic.limit_burned_area_law(char_distance)
        rows.append(_compare_row(n, char_distance, stats, td_law, exact_law, limit_law))
        if ecdf_points:
            sample = stats.ecdf_ad
            idx = np.unique(np.linspace(0, sample.size - 1, min(ecdf_points, sample.size)).astype(int))
            for j in idx:
                x = float(sample[j])
                ecdf_rows.append(
                    {
                        "n_sensors": n,
                        "x": x,
                        "empirical": float((j + 1) / sample.size),
                        "exact": float(1.0 - exact_law.survival(x)),
                        "limit": float(1.0 - limit_law.survival(x)),
                    }
                )
    return rows, ecdf_rows


def compare_grid(
    region: RectRegion,
    spacing: float,
    model: SpreadModel,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[dict]:
    """Single-row comparison of a grid scenario against its exact laws."""
    if not isinstance(model, CircularModel):
        raise ParameterError("grid comparison laws assume circular spread")
    config = ScenarioConfig(
        region=region,
        placement=GridPlacement(spacing=spacing),
        model=model,
        trials=trials,
        master_seed=master_seed,
    )
    stats = summarize(run_trials(config, workers=workers))
    td_law, ad_law = _summary_laws(config)
    n = len(build_layout(config.placement, region))
    return [_compare_row(n, spacing, stats, td_law, ad_law)]


def _cmd_compare(args) -> int:
    model = _model_from_args(args, {})
    seed = args.seed if args.seed is not None else 0
    trials = args.trials if args.trials is not None else 10000
    _check_trials(trials)
    if args.spacing is not None:
        if not args.region:
            raise ParameterError("grid comparison requires --region")
        rows = compare_grid(
            _parse_region(args.region), args.spacing, model, trials, seed, workers=args.workers
        )
        ecdf_rows = []
    else:
        counts = _parse_counts(args.sensor_counts)
        if not counts:
            raise ParameterError("--sensor-counts must name at least one count")
        rows, ecdf_rows = compare_random_sweep(
            counts,
            args.char_distance,
            model,
            trials,
            seed,
            ignition_count=args.ignitions if args.ignitions is not None else 1,
            workers=args.workers,
            ecdf_points=args.ecdf_points,
        )
    if args.format == "json":
        payload = {"rows": rows, "ecdf": ecdf_rows}
        _write_text(_json(payload), args.out)
    else:
        _write_text(_rows_to_csv(rows, _COMPARE_COLUMNS), args.out)
        if args.ecdf_out:
            with open(args.ecdf_out, "w") as fh:
                fh.write(_rows_to_csv(ecdf_rows, _ECDF_COLUMNS))
    return 0


# ---------------------------------------------------------------------------
# plan

def _cmd_plan(args) -> int:
    if (args.target_area is None) == (args.target_time is None):
        raise ParameterError("exactly one of --target-area / --target-time is required")
    region = _parse_region(args.region) if args.region else None
    area = args.area if args.area is not None else (region.area if region else None)
    if area is None:
        raise ParameterError("an area is required (--area or --region WxH)")
    model = _model_from_args(args, {})
    if args.target_area is not None:
        req = PlanRequest(area, model, args.placement, "area", args.target_area)
    else:
        req = PlanRequest(area, model, args.placement, "time", args.target_time)
    result = plan(req)
    if args.export_layout:
        if region is None:
            raise ParameterError("--export-layout requires --region WxH")
        if args.placement == "grid":
            placement = GridPlacement(spacing=result["D"])
        else:
            placement = RandomPlacement(count=result["N"])
        layout = build_layout(placement, region, seed=args.seed if args.seed is not None else 0)
        with open(args.export_layout, "w") as fh:
            layout_to_csv(layout, fh)
        result = dict(result, layout_file=args.export_layout)
    sys.stdout.write(_json(result))
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["circular", "elliptical"], help="spread model kind")
    p.add_argument("--rate", type=float, help="rate of spread, m/s (default 1)")
    p.add_argument("--hb", type=float, help="head-to-back ratio (elliptical)")
    p.add_argument("--lb", type=float, help="length-to-breadth ratio (elliptical)")
    p.add_argument("--heading", type=float, help="head direction, radians (elliptical)")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON scenario file; flags override its fields")
    p.add_argument("--region", help="protected rectangle, WIDTHxHEIGHT in meters")
    p.add_argument("--spacing", type=float, help="grid placement with this spacing, m")
    p.add_argument("--sensors", type=int, help="random placement with this sensor count")
    _add_model_flags(p)
    p.add_argument("--ignitions", type=int, help="simultaneous ignition points (default 1)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (default 10000)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument(
        "--resample",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="resample the random layout every trial (default: yes for random placement)",
    )
    p.add_argument(
        "--clip",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="measure burned area clipped to the region (default: yes for random placement)",
    )
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firewatch",
        description="Detection-time and burned-area statistics for wildfire sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate a closed-form law at given points")
    p_an.add_argument(
        "law", choices=["grid-td", "grid-ad", "random-td", "ad-exact", "ad-limit"]
    )
    p_an.add_argument("--x", help="comma-separated evaluation points")
    p_an.add_argument("--x-range", help="START:STOP:COUNT linspace of evaluation points")
    p_an.add_argument("--spacing", type=float, help="grid spacing D, m")
    p_an.add_argument("--char-distance", type=float, help="characteristic distance D, m")
    p_an.add_argument("--area", type=float, help="region area, m^2 (ad-exact)")
    p_an.add_argument("--sensors", type=int, help="sensor count N (ad-exact)")
    _add_model_flags(p_an)
    p_an.add_argument("--moments", action="store_true", help="emit closed-form moments instead")
    p_an.add_argument("--format", choices=["csv", "json"], default="csv")
    p_an.add_argument("--out", help="write output here instead of stdout")
    p_an.set_defaults(func=_cmd_analytic)

    p_sim = sub.add_parser("simulate", help="run trials; summary JSON to stdout")
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--out", help="write per-trial outcomes CSV here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="empirical vs analytic across sensor counts")
    p_cmp.add_argument("--sensor-counts", default="10,100,1000,10000",
                       help="comma-separated N sweep (random placement)")
    p_cmp.add_argument("--char-distance", type=float, default=1.0,
                       help="characteristic distance D held fixed across the sweep")
    p_cmp.add_argument("--region", help="grid mode: protected rectangle WxH")
    p_cmp.add_argument("--spacing", type=float, help="grid mode: lattice spacing, m")
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--ignitions", type=int, help="ignition points per trial (default 1)")
    p_cmp.add_argument("--trials", type=int, help="trials per sweep entry (default 10000)")
    p_cmp.add_argument("--seed", type=int, help="master seed (default 0)")
    p_cmp.add_argument("--workers", type=int, default=1)
    p_cmp.add_argument("--ecdf-points", type=int, default=256,
                       help="ECDF table rows per sweep entry (0 disables)")
    p_cmp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_cmp.add_argument("--out", help="write the comparison table here")
    p_cmp.add_argument("--ecdf-out", help="write the ECDF table here (csv format)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_plan = sub.add_parser("plan", help="invert the laws: spacing and sensor count for a target")
    p_plan.add_argument("--area", type=float, help="protected area, m^2")
    p_plan.add_argument("--region", help="protected rectangle WxH (alternative to --area)")
    p_plan.add_argument("--placement", choices=["grid", "random"], required=True)
    _add_model_flags(p_plan)
    p_plan.add_argument("--target-area", type=float, help="max mean burned area at detection, m^2")
    p_plan.add_argument("--target-time", type=float, help="max mean detection time, s")
    p_plan.add_argument("--export-layout", help="write a concrete layout CSV here (needs --region)")
    p_plan.add_argument("--seed", type=int, help="seed for random layout export")
    p_plan.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
