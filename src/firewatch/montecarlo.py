"""Deterministic, seedable Monte Carlo trial engine.

Trial ``i`` draws its ignition points from its own counter-based substream,
Philox keyed by (master_seed, i). Trials run as array work over blocks of
trials: the Philox4x64-10 words of many trial keys are computed at once, bit
for bit as numpy's ``Philox(key=[master_seed, i])`` would give them. Results
are a pure function of the scenario configuration: independent of execution
order, chunking and worker count.

A fixed layout (a grid, or random sensors with resampling off) needs nothing
more, and the reach times of a block come from broadcast calls of the spread
model. The outcomes are byte for byte those of timing every sensor trial by
trial.

A resampled layout draws its sensors near the ignitions, for a block of
_BLOCK trials at a time, from one stream per block keyed by (master_seed,
_BLOCK_TAG | block index); blocks start at multiples of _BLOCK, and the last
one ends at the run's last trial. The region is split into a fixed grid of
equal cells, and rings of cells are visited outward from each ignition's
cell, one ring per step for every trial of the block that is still
searching. For each trial's new cells in a step, the sensor count is drawn as
Binomial(remaining sensors, new area / undrawn area), then that many
positions i.i.d. uniform in the new cells. A trial stops searching around an
ignition once that front's bounding box at the trial's best reach time so far
lies inside the drawn cells: fronts only grow, so no undrawn sensor can be
reached sooner. Given the counts drawn so far, the undrawn sensors of a trial
are i.i.d. uniform over its undrawn area, whichever cells were chosen from
what was drawn, and whatever the other trials of the block drew; so each
trial sees the binomial point process of N i.i.d. uniform sensors drawn in
another order, and ``(1 - x/A)^N`` holds exactly.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
# numpy loads numpy.random lazily; load it here, once, so that the worker
# processes run_trials forks do not each import it again.
import numpy.random  # noqa: F401

from .analytic import AnalyticLaw
from .errors import DomainError, EstimatorError, ParameterError
from .geometry import Point, RectRegion, burned_union_area
from .placement import GridPlacement, RandomPlacement, _check_master_seed, build_layout
from .propagation import SpreadModel

__all__ = [
    "ScenarioConfig",
    "Outcomes",
    "SummaryStats",
    "run_trials",
    "detection_time",
    "summarize",
    "ks_distance",
    "ks_critical",
    "outcomes_to_csv",
    "summary_to_json",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_TRIAL_INDEX = 1 << 62
# Mean sensors per cell of the lazy sampler. A step of the ring search is
# array work over every searching trial of a block, so its cost is the
# sensors it draws and times, not the steps: small cells are cheapest. At
# N=1e4 the resampled run cost 8-10 us per trial at 2 and 4 sensors per cell,
# 13 at 16 and 23 at 64, and at 4 almost every search ends by ring 1.
_SENSORS_PER_CELL = 4
# A resampled run draws its sensors in blocks of _BLOCK trials, block b from
# the key (master_seed, _BLOCK_TAG | b); trial keys stay below _BLOCK_TAG.
_BLOCK = 1 << 9
_BLOCK_TAG = 1 << 62
# Philox4x64-10 (Salmon et al., SC'11) round multipliers and key increments,
# as numpy's Philox uses them.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# A fixed-layout run draws the ignitions of _TRIAL_BLOCK trials at a time and
# times them against the sensors in slices of at most _PAIR_BLOCK (trial,
# sensor) pairs (one trial per slice once the layout alone is larger), so that
# each temporary holds 64 KB or less where it can: below glibc's mmap
# threshold, so the heap reuses them and peak memory does not grow.
_TRIAL_BLOCK = 1 << 11
_PAIR_BLOCK = 1 << 13


class Outcomes(NamedTuple):
    """The outcomes of a run in trial order: detection times (s) and burned
    areas (m^2), as float64 arrays."""

    t_d: np.ndarray
    a_d: np.ndarray


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully specified simulation experiment.

    ``resample_layout_each_trial`` and ``clip_to_region`` default by
    placement kind when left as None: random placement resamples sensors
    every trial (each trial is an i.i.d. draw of sensors and ignitions) and
    clips the burned area to the region; grid placement keeps the fixed
    lattice and reports the unclipped burned area F(t_d).  With multiple
    ignition points the burned area is always the union of the fronts
    clipped to the region, whatever ``clip_to_region`` says.
    """

    region: RectRegion
    placement: GridPlacement | RandomPlacement
    model: SpreadModel
    trials: int
    master_seed: int
    ignition_count: int = 1
    resample_layout_each_trial: Optional[bool] = None
    clip_to_region: Optional[bool] = None
    area_tol: float = 1e-3

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.trials > _MAX_TRIAL_INDEX:
            raise ParameterError(f"trials must be <= {_MAX_TRIAL_INDEX}")
        if self.ignition_count < 1:
            raise ParameterError(f"ignition count must be >= 1, got {self.ignition_count}")
        _check_master_seed(self.master_seed)
        if not self.area_tol > 0:
            raise ParameterError(f"area tolerance must be positive, got {self.area_tol}")
        is_random = isinstance(self.placement, RandomPlacement)
        if self.resample_layout_each_trial is None:
            object.__setattr__(self, "resample_layout_each_trial", is_random)
        if self.resample_layout_each_trial and not is_random:
            raise ParameterError("grid layouts have nothing to resample")
        if self.clip_to_region is None:
            object.__setattr__(self, "clip_to_region", is_random)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _area_seed(master_seed: int, trial_index: int) -> int:
    # Hash-derived key for the union-area jitter stream of one trial.
    return _splitmix64(master_seed ^ _splitmix64(trial_index))


def _mulhilo(a, b):
    """High and low words of the 128-bit products ``a * b`` of uint64 values."""
    a_lo, a_hi = a & _LO32, a >> _S32
    b_lo, b_hi = b & _LO32, b >> _S32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> _S32) + (lh & _LO32) + (hl & _LO32)
    return a_hi * b_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32), a * b


def _philox_words(master_seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """The first ``count`` words of ``Philox(key=[master_seed, i]).random_raw()``
    for each trial ``i`` in [lo, hi), as a (hi - lo, count) uint64 array.

    numpy's Philox4x64-10 adds one to its 256-bit counter before it computes
    each block of four words, so its first block is at counter 1.
    """
    n = hi - lo
    words = []
    for counter in range(1, (count + 3) // 4 + 1):
        c0 = np.full(n, counter, dtype=np.uint64)
        c1 = c2 = c3 = np.zeros(n, dtype=np.uint64)
        k0, k1 = master_seed, np.arange(lo, hi, dtype=np.uint64)
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & _MASK64
                k1 = k1 + np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        words += [c0, c1, c2, c3]
    return np.stack(words[:count], axis=1)


def _trial_uniforms(master_seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """Row ``i - lo`` holds ``Generator(Philox(key=[master_seed, i])).random(count)``:
    the top 53 bits of each word, scaled to [0, 1)."""
    return (_philox_words(master_seed, lo, hi, count) >> np.uint64(11)) * 2.0**-53


class _Ignitions(NamedTuple):
    """One ignition of each trial in a block, as column arrays: passed to a
    spread model in place of a ``Point``, it broadcasts against the sensors."""

    x: np.ndarray
    y: np.ndarray


class _FixedSensors:
    """A layout that stays put across trials, timed for blocks of trials."""

    def __init__(self, config: ScenarioConfig):
        positions = build_layout(config.placement, config.region, seed=config.master_seed).positions
        self.model = config.model
        self.sensors = (positions[:, 0], positions[:, 1])
        self.rows = max(1, _PAIR_BLOCK // len(positions))

    def first_reach(self, b0: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Detection times of the trials b0, b0 + 1, ... whose ignitions are
        the rows of ``(xs, ys)``."""
        best = np.full(len(xs), math.inf)
        for r0 in range(0, len(xs), self.rows):
            rows = slice(r0, r0 + self.rows)
            for x, y in zip(xs[rows].T, ys[rows].T):
                t = self.model.reach_times(_Ignitions(x[:, None], y[:, None]), *self.sensors)
                np.minimum(best[rows], t.min(axis=1), out=best[rows])
        return best


class _CellSampler:
    """Uniform random sensors, drawn cell by cell near the ignitions of a
    block of trials.

    Built once per run. See the module docstring for the draw and why it is
    exact.
    """

    def __init__(self, config: ScenarioConfig):
        region, count, model = config.region, config.placement.count, config.model
        cells = max(1, count // _SENSORS_PER_CELL)
        nx = min(cells, max(1, round(math.sqrt(cells * region.width / region.height))))
        ny = max(1, cells // nx)
        self.seed, self.count, self.model = config.master_seed, count, model
        self.nx, self.ny = nx, ny
        self.cw, self.ch = region.width / nx, region.height / ny

    def first_reach(self, b0: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Detection times of the trials of the block that starts at trial
        ``b0``, whose ignitions are the rows of ``(xs, ys)``: their sensors
        are drawn near the ignitions, from the block's stream."""
        key = np.array([self.seed, _BLOCK_TAG | b0 // _BLOCK], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        nx, ny, cells = self.nx, self.ny, self.nx * self.ny
        trials, k = xs.shape
        cx = np.minimum((xs / self.cw).astype(np.intp), nx - 1).ravel()
        cy = np.minimum((ys / self.ch).astype(np.intp), ny - 1).ravel()
        owner = np.repeat(np.arange(trials), k)  # trial of each (trial, ignition) pair
        best = np.full(trials, math.inf)
        remaining = np.full(trials, self.count)
        undrawn = np.full(trials, cells)
        drawn = np.empty(0, dtype=np.intp)  # keys trial * cells + cell
        live = np.arange(trials * k)
        r = 0
        while live.size:
            side = np.arange(-r, r + 1)
            dx, dy = np.repeat(side, 2 * r + 1), np.tile(side, 2 * r + 1)
            ring = np.maximum(abs(dx), abs(dy)) == r  # the 8r cells at distance r, or the cell
            gx, gy = cx[live, None] + dx[ring], cy[live, None] + dy[ring]
            inside = (gx >= 0) & (gx < nx) & (gy >= 0) & (gy < ny)
            keys = np.sort((owner[live, None] * cells + gx * ny + gy)[inside])
            keys = keys[_runs(keys)[0]]
            new = keys[~np.isin(keys, drawn, assume_unique=True, kind="sort")]
            drawn = np.concatenate([drawn, new])
            first, count = _runs(new // cells)
            trial = new[first] // cells
            n = rng.binomial(remaining[trial], count / undrawn[trial])
            remaining[trial] -= n
            undrawn[trial] -= count
            if n.any():
                ids = new[np.repeat(first, n) + rng.integers(0, np.repeat(count, n))]
                of, cell = np.divmod(ids, cells)
                gx, gy = np.divmod(cell, ny)
                u = rng.random((ids.size, 2))
                sx, sy = (gx + u[:, 0]) * self.cw, (gy + u[:, 1]) * self.ch
                t = self.model.reach_times(_Ignitions(xs[of], ys[of]), sx[:, None], sy[:, None])
                starts = _runs(of)[0]
                hit = of[starts]
                best[hit] = np.minimum(best[hit], np.minimum.reduceat(t.min(axis=1), starts))
            live = live[remaining[owner[live]] > 0]
            stop = _front_inside(
                self, xs.ravel()[live], ys.ravel()[live], best[owner[live]], cx[live], cy[live], r
            )
            live = live[~stop]
            r += 1
        return best


def _runs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the runs of equal values in the sorted array ``a``."""
    starts = np.flatnonzero(np.diff(a, prepend=a[:1] - 1))
    return starts, np.diff(starts, append=a.size)


def _box_inside(model: SpreadModel, xs, ys, t, x0, y0, x1, y1) -> np.ndarray:
    """Whether the bounding box of each front from ``(xs, ys)`` at time ``t``
    lies in the rectangle [x0, x1] x [y0, y1]; infinite sides hold any box."""
    # The box at t = 1 around an ignition at the origin; fronts grow
    # affinely, so at time t it is t times this box.
    bx0, by0, bx1, by1 = model.bounding_box(Point(0.0, 0.0), 1.0)
    return (
        (xs + t * bx0 >= x0) & (ys + t * by0 >= y0) & (xs + t * bx1 <= x1) & (ys + t * by1 <= y1)
    )


def _front_inside(sampler: _CellSampler, xs, ys, t, cx, cy, r: int) -> np.ndarray:
    """Whether each front from ``(xs, ys)`` at time ``t``, clipped to the
    region, lies in the square of cells of radius r around its cell
    ``(cx, cy)``. An infinite ``t`` (no sensor drawn yet) is inside only
    if the square holds every cell."""
    # Sides at the region's edge are open: the front is clipped there.
    return _box_inside(
        sampler.model, xs, ys, t,
        np.where(cx - r <= 0, -math.inf, (cx - r) * sampler.cw),
        np.where(cy - r <= 0, -math.inf, (cy - r) * sampler.ch),
        np.where(cx + r >= sampler.nx - 1, math.inf, (cx + r + 1) * sampler.cw),
        np.where(cy + r >= sampler.ny - 1, math.inf, (cy + r + 1) * sampler.ch),
    )


def detection_time(model: SpreadModel, positions, ignitions: np.ndarray) -> float:
    """Minimum reach time over all (ignition, sensor) pairs of an (n, 2) array
    of sensor ``positions``."""
    ignitions = np.atleast_2d(np.asarray(ignitions, dtype=float))
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ParameterError("sensor layout is empty")
    best = math.inf
    for ix, iy in ignitions:
        t = model.reach_times(Point(float(ix), float(iy)), positions[:, 0], positions[:, 1])
        best = min(best, float(np.min(t)))
    return best


def _burned_areas(config: ScenarioConfig, lo: int, t_d: np.ndarray, xs, ys) -> np.ndarray:
    """Burned areas of trials lo, lo + 1, ... with detection times ``t_d`` and
    ignitions the rows of ``(xs, ys)``."""
    model, region = config.model, config.region
    # A lone front clear of the region's edges burns F(t) = model.area(t).
    free = np.full(t_d.size, config.ignition_count == 1)
    if config.ignition_count == 1 and config.clip_to_region:
        # Clear by 1e-9 of the region's sides, a margin that covers rounding
        # against burned_union_area's own bounding box, which then gives F(t).
        mx, my = 1e-9 * region.width, 1e-9 * region.height
        free = _box_inside(
            model, xs[:, 0], ys[:, 0], t_d, mx, my, region.width - mx, region.height - my
        )
    # Python floats: numpy's square differs from libm pow in the last bit.
    areas = np.array([model.area(t) for t in t_d.tolist()])
    rest = np.flatnonzero(~free)
    ignitions = np.stack([xs[rest], ys[rest]], axis=2).tolist()
    areas[rest] = [
        burned_union_area(
            [(Point(x, y), model, t) for x, y in ign], region, tol=config.area_tol,
            seed=_area_seed(config.master_seed, lo + i),
        )
        for i, t, ign in zip(rest.tolist(), t_d[rest].tolist(), ignitions)
    ]
    return areas


def _simulate_range(config: ScenarioConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t_d, a_d)`` arrays of trials [lo, hi)."""
    region, k = config.region, config.ignition_count
    if config.resample_layout_each_trial:
        # A block's draws depend on all of its trials: run whole blocks.
        sensors = _CellSampler(config)
        first, step, end = lo - lo % _BLOCK, _BLOCK, config.trials
    else:
        sensors = _FixedSensors(config)
        first, step, end = lo, _TRIAL_BLOCK, hi
    t_out = np.empty(hi - lo)
    a_out = np.empty(hi - lo)
    # run_trials rejects outcomes that are not finite; numpy need not warn.
    with np.errstate(all="ignore"):
        for b0 in range(first, hi, step):
            b1 = min(b0 + step, end)
            u = _trial_uniforms(config.master_seed, b0, b1, 2 * k)
            xs, ys = u[:, 0::2] * region.width, u[:, 1::2] * region.height
            t_d = sensors.first_reach(b0, xs, ys)
            s0, s1 = max(lo, b0), min(hi, b1)
            keep = slice(s0 - b0, s1 - b0)
            t_out[s0 - lo : s1 - lo] = t_d[keep]
            a_out[s0 - lo : s1 - lo] = _burned_areas(config, s0, t_d[keep], xs[keep], ys[keep])
    return t_out, a_out


def run_trials(config: ScenarioConfig, workers: int = 1) -> Outcomes:
    """Run all trials of ``config`` and return outcomes in trial order.

    ``workers`` only controls the process count; the output is bit-identical
    for any value.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    # A grid spacing must divide the region; check it before any worker is
    # spawned. Random placements are checked when they are built.
    if isinstance(config.placement, GridPlacement):
        build_layout(config.placement, config.region)

    trials = config.trials
    workers = min(workers, trials)
    if workers == 1:
        t_all, a_all = _simulate_range(config, 0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_simulate_range, [config] * workers, bounds[:-1], bounds[1:]))
        t_all = np.concatenate([p[0] for p in parts])
        a_all = np.concatenate([p[1] for p in parts])
    if not (np.isfinite(t_all).all() and np.isfinite(a_all).all()):
        raise DomainError("a trial's detection time or burned area is not finite")
    return Outcomes(t_all, a_all)


@dataclass(frozen=True)
class SummaryStats:
    """Sample statistics of a batch of trial outcomes."""

    n: int
    mean_td: float
    var_td: float
    se_td: float
    mean_ad: float
    var_ad: float
    se_ad: float
    ecdf_td: np.ndarray
    ecdf_ad: np.ndarray


def summarize(outcomes: Outcomes) -> SummaryStats:
    """Unbiased means/variances, standard errors and sorted ECDF samples."""
    t, a = outcomes
    n = t.size
    if n < 2:
        raise EstimatorError(f"need at least 2 outcomes to summarize, got {n}")
    # A moment that overflows is inf; summary_to_json reports it, numpy need not warn.
    with np.errstate(all="ignore"):
        mean_t, var_t = float(t.mean()), float(np.var(t, ddof=1))
        mean_a, var_a = float(a.mean()), float(np.var(a, ddof=1))
    return SummaryStats(
        n=n,
        mean_td=mean_t,
        var_td=var_t,
        se_td=math.sqrt(var_t / n),
        mean_ad=mean_a,
        var_ad=var_a,
        se_ad=math.sqrt(var_a / n),
        ecdf_td=np.sort(t),
        ecdf_ad=np.sort(a),
    )


def ks_distance(sample: np.ndarray, law: AnalyticLaw) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sorted sample to a law."""
    s = np.asarray(sample, dtype=float)
    if s.size == 0:
        raise EstimatorError("sample is empty")
    if np.any(np.diff(s) < 0):
        raise EstimatorError("sample must be sorted ascending")
    n = s.size
    cdf = 1.0 - np.asarray(law.survival(s), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value at significance ``alpha``."""
    if n < 1:
        raise EstimatorError(f"sample size must be >= 1, got {n}")
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(-math.log(alpha / 2.0) / (2.0 * n))


def outcomes_to_csv(outcomes: Outcomes, fileobj) -> None:
    """Dump outcomes as CSV with header ``trial,t_d,a_d``, one row at a time."""
    fileobj.write("trial,t_d,a_d\n")
    for i, (t, a) in enumerate(zip(outcomes.t_d.tolist(), outcomes.a_d.tolist())):
        fileobj.write(f"{i},{t!r},{a!r}\n")


def summary_to_json(
    stats: SummaryStats,
    ks_td: Optional[float] = None,
    ks_ad: Optional[float] = None,
) -> str:
    """Serialize a summary to the stable JSON wire format."""
    payload = {
        "n": stats.n,
        "mean_td": stats.mean_td,
        "se_td": stats.se_td,
        "var_td": stats.var_td,
        "mean_ad": stats.mean_ad,
        "se_ad": stats.se_ad,
        "var_ad": stats.var_ad,
        "ks_td": ks_td,
        "ks_ad": ks_ad,
    }
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError("the summary has a value that is not finite") from exc
