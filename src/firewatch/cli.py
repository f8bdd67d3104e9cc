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
from .errors import DomainError, ParameterError
from .geometry import RectRegion
from .montecarlo import (
    ScenarioConfig,
    compare_grid,
    compare_random_sweep,
    outcomes_to_csv,
    simulate,
    summary_to_json,
)
from .placement import GridPlacement, RandomPlacement, build_layout, layout_to_csv
from .propagation import CircularModel, EllipticalModel, SpreadModel

__all__ = ["main"]


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
    from ``cfg`` (a config file's checked ``model`` object), else its default."""
    kind = _first_given(args.model, cfg.get("kind"), "circular")
    rate, hb, lb, heading = (
        _first_given(getattr(args, key), cfg.get(key), default)
        for key, default in (("rate", 1.0), ("hb", 1.0), ("lb", 1.0), ("heading", 0.0))
    )
    if kind == "circular":
        return CircularModel(rate=rate)
    if kind == "elliptical":
        return EllipticalModel(rate=rate, hb_ratio=hb, lb_ratio=lb, heading=heading)
    raise ParameterError(f"unknown model kind {kind!r}")


def _first_given(*values):
    """The first of ``values`` that is not None: a flag's, then a config
    file's, then a default."""
    return next((value for value in values if value is not None), None)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc


# The keys of each object in a config file and their JSON types. A region
# may instead be a "WxH" string; a placement holds only its kind's keys.
_CONFIG_KEYS = {
    "top-level": {"region": "object or string", "placement": "object", "model": "object",
                  "ignitions": "integer", "trials": "integer", "seed": "integer",
                  "resample_layout": "boolean", "clip_to_region": "boolean"},
    "region": {"width": "number", "height": "number"},
    "grid": {"kind": "string", "spacing": "number"},
    "random": {"kind": "string", "count": "integer"},
    "model": {"kind": "string", "rate": "number", "hb": "number", "lb": "number",
              "heading": "number"},
}
# The Python types that json.load gives for each JSON type. A bool is an
# int to Python, but JSON's true is no integer.
_JSON_TYPES = {"boolean": bool, "integer": int, "number": (int, float), "string": str,
               "object": dict, "object or string": (dict, str)}


def _config_object(value, name: str, path: str) -> dict:
    """``value``, which must be a JSON object holding only keys of ``name``
    in _CONFIG_KEYS, each of its JSON type; its numbers become floats."""
    if not isinstance(value, dict):
        raise TypeError(f"the {name} value must be a JSON object, got {json.dumps(value)}")
    types, checked = _CONFIG_KEYS[name], {}
    for key, item in value.items():
        if key not in types:
            raise ParameterError(f"config file {path} has an unknown {name} key {key!r}")
        kind = types[key]
        if isinstance(item, bool) != (kind == "boolean") or not isinstance(item, _JSON_TYPES[kind]):
            raise TypeError(f"{key} must be a JSON {kind}, got {json.dumps(item)}")
        checked[key] = float(item) if kind == "number" else item
    return checked


def _config_values(cfg, path: str) -> dict:
    """The checked values of the config file ``cfg`` read from ``path``,
    with its region and placement built."""
    try:
        values = _config_object(cfg, "top-level", path)
        region = values.get("region")
        if isinstance(region, str):
            values["region"] = _parse_region(region)
        elif region is not None:
            sides = _config_object(region, "region", path)
            values["region"] = RectRegion(sides["width"], sides["height"])
        if "placement" in values:
            kind = values["placement"]["kind"]
            if kind not in ("grid", "random"):
                raise ParameterError(f"unknown placement kind in config: {kind!r}")
            raw = _config_object(values["placement"], kind, path)
            grid = kind == "grid"
            values["placement"] = GridPlacement(raw["spacing"]) if grid else RandomPlacement(raw["count"])
        values["model"] = _config_object(values.get("model", {}), "model", path)
        return values
    except KeyError as exc:
        raise ParameterError(f"config file {path} has no key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ParameterError(f"config file {path} has a mistyped value: {exc}") from exc


def _scenario_from_args(args) -> ScenarioConfig:
    """The scenario of the flags, each left out taken from the config file,
    else its default; every value the file holds is checked, whether a flag
    overrides it or not."""
    cfg = _config_values(_load_config_file(args.config), args.config) if args.config else {}
    region = _parse_region(args.region) if args.region else cfg.get("region")
    if region is None:
        raise ParameterError("a region is required (--region WxH or config file)")
    if args.spacing is not None and args.sensors is not None:
        raise ParameterError("--spacing and --sensors are mutually exclusive")
    placement = (GridPlacement(spacing=args.spacing) if args.spacing is not None
                 else RandomPlacement(count=args.sensors) if args.sensors is not None
                 else cfg.get("placement"))
    if placement is None:
        raise ParameterError("a placement is required (--spacing D or --sensors N or config file)")
    return ScenarioConfig(
        region=region,
        placement=placement,
        model=_model_from_args(args, cfg.get("model", {})),
        trials=_first_given(args.trials, cfg.get("trials"), 10000),
        master_seed=_first_given(args.seed, cfg.get("seed"), 0),
        ignition_count=_first_given(args.ignitions, cfg.get("ignitions"), 1),
        resample_layout_each_trial=_first_given(args.resample, cfg.get("resample_layout")),
        clip_to_region=_first_given(args.clip, cfg.get("clip_to_region")),
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
            if not math.isfinite(v):
                raise DomainError("the result has a value that is not finite")
            return repr(v)
        return str(v)

    lines = [",".join(columns)]
    lines.extend(",".join(fmt(row.get(c)) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analytic

def _law_from_args(args) -> analytic.AnalyticLaw:
    name = args.law
    if name in ("grid-td", "grid-ad"):
        if args.spacing is None:
            raise ParameterError(f"law {name} requires --spacing")
        maker = analytic.grid_td_law if name == "grid-td" else analytic.grid_ad_law
        return maker(args.spacing, _first_given(args.rate, 1.0))
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
    if args.format == "json":
        _write_text(_json(rows), args.out)
    else:
        _write_text(_rows_to_csv(rows, ["x", "cdf", "survival"]), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> int:
    run = simulate(_scenario_from_args(args), workers=args.workers)
    if args.out:
        with open(args.out, "w") as fh:
            outcomes_to_csv(run.outcomes, fh)
    sys.stdout.write(summary_to_json(run.stats, ks_td=run.ks_td, ks_ad=run.ks_ad) + "\n")
    return 0


# ---------------------------------------------------------------------------
# compare

# The compare table's header is the keys of a row's dict; the ECDF table's
# is spelled out, since --ecdf-points 0 leaves it without rows.
_ECDF_COLUMNS = ["n_sensors", "x", "empirical", "exact", "limit"]


def _cmd_compare(args) -> int:
    model = _model_from_args(args, {})
    if args.spacing is not None:
        if not args.region:
            raise ParameterError("grid comparison requires --region")
        rows = compare_grid(
            _parse_region(args.region), args.spacing, model, args.trials, args.seed,
            ignition_count=args.ignitions, workers=args.workers,
        )
        ecdf_rows = []
    else:
        counts = _parse_counts(args.sensor_counts)
        if not counts:
            raise ParameterError("--sensor-counts must name at least one count")
        rows, ecdf_rows = compare_random_sweep(
            counts, args.char_distance, model, args.trials, args.seed,
            ignition_count=args.ignitions, workers=args.workers, ecdf_points=args.ecdf_points,
        )
    if args.format == "json":
        _write_text(_json({"rows": rows, "ecdf": ecdf_rows}), args.out)
    else:
        _write_text(_rows_to_csv(rows, list(rows[0])), args.out)
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
    target = ("area", args.target_area) if args.target_time is None else ("time", args.target_time)
    result = analytic.plan(area, _model_from_args(args, {}), args.placement, *target)
    if args.export_layout:
        if region is None:
            raise ParameterError("--export-layout requires --region WxH")
        grid = args.placement == "grid"
        placement = GridPlacement(result["D"]) if grid else RandomPlacement(result["N"])
        layout = build_layout(placement, region, seed=args.seed)
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
    p_cmp.add_argument("--ignitions", type=int, default=1,
                       help="ignition points per trial (default 1)")
    p_cmp.add_argument("--trials", type=int, default=10000,
                       help="trials per sweep entry (default 10000)")
    p_cmp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
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
    p_plan.add_argument("--seed", type=int, default=0,
                        help="seed for random layout export (default 0)")
    p_plan.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Every output is checked to be finite; numpy need not warn on the way.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"configuration error: the scenario does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
