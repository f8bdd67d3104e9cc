"""Deterministic, seedable Monte Carlo trial engine.

Every trial draws from its own counter-based substream (Philox keyed by
(master_seed, trial_index)), so results are a pure function of the scenario
configuration: independent of execution order, chunking and worker count.

Within a trial the draw order is fixed: ignition points first, then, when the
layout is resampled, the sensors near them.

A fixed layout (a grid, or random sensors with resampling off) needs only
each trial's ignitions from its stream, so such runs are array work over
blocks of trials: the Philox4x64-10 words of many trial keys are computed at
once, bit for bit as numpy's ``Philox(key=[master_seed, i])`` would give
them, and the reach times of a block come from broadcast calls of the
spread model. The outcomes are byte for byte those of timing every sensor
trial by trial.

A resampled layout runs trial by trial. The region is split into a fixed
grid of equal cells, and rings of cells are visited outward from each
ignition's cell. For each step's new cells the sensor count is drawn as
Binomial(remaining sensors, new area / undrawn area), then that many positions
i.i.d. uniform in the new cells. The search stops once every front's bounding
box at the best reach time so far lies inside the drawn cells: fronts only
grow, so no undrawn sensor can be reached sooner. Given the counts drawn so
far, the undrawn sensors are i.i.d. uniform over the undrawn area, whichever
cells were chosen from what was drawn; so this is the binomial point process
of N i.i.d. uniform sensors drawn in another order, and ``(1 - x/A)^N`` holds
exactly.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
# numpy loads numpy.random lazily; load it here, once, so that the worker
# processes run_trials forks do not each import it again.
import numpy.random  # noqa: F401

from .analytic import AnalyticLaw
from .errors import EstimatorError, ParameterError
from .geometry import Point, RectRegion, burned_union_area
from .placement import GridPlacement, RandomPlacement, _check_master_seed, build_layout
from .propagation import SpreadModel

__all__ = [
    "ScenarioConfig",
    "TrialOutcome",
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
# Mean sensors per cell of the lazy sampler. A step of the ring search costs
# about as much as drawing and timing a few hundred sensors, and the first
# cell holds the nearest sensor in most trials. From 16 to 128 the cost per
# trial at N=1e4 is flat; 64 also makes any layout of fewer than 128 sensors
# one cell, so that several ignitions at small N take one step, as a dense
# draw would.
_SENSORS_PER_CELL = 64
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


class TrialOutcome(NamedTuple):
    """One Monte Carlo sample: detection time (s) and burned area (m^2)."""

    t_d: float
    a_d: float


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


class _TrialStreams:
    """Reusable Philox generator rebased per trial, for resampled layouts.

    Resetting the key/counter through the state dict is bit-identical to
    constructing ``Philox(key=[master_seed, index])`` afresh, but an order
    of magnitude cheaper.
    """

    def __init__(self, master_seed: int):
        key = np.array([master_seed, 0], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self.generator = np.random.Generator(self._bitgen)
        self._template = self._bitgen.state

    def trial(self, index: int) -> np.random.Generator:
        state = self._template
        state["state"]["key"][1] = index
        state["state"]["counter"][:] = 0
        self._bitgen.state = state
        return self.generator


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

    def first_reach(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Detection times of the trials whose ignitions are the rows of ``(xs, ys)``."""
        best = np.full(len(xs), math.inf)
        for r0 in range(0, len(xs), self.rows):
            rows = slice(r0, r0 + self.rows)
            for x, y in zip(xs[rows].T, ys[rows].T):
                t = self.model.reach_times(_Ignitions(x[:, None], y[:, None]), *self.sensors)
                np.minimum(best[rows], t.min(axis=1), out=best[rows])
        return best


class _CellSampler:
    """Uniform random sensors, drawn cell by cell near the ignitions.

    Built once per run; each ``first_reach`` call is one trial's draw from
    ``rng``, a generator the caller rebases before every trial. See the
    module docstring for the draw and why it is exact.
    """

    def __init__(self, region: RectRegion, count: int, rng: np.random.Generator):
        cells = max(1, count // _SENSORS_PER_CELL)
        nx = min(cells, max(1, round(math.sqrt(cells * region.width / region.height))))
        ny = max(1, cells // nx)
        self.count = count
        self.rng = rng
        self.nx, self.ny = nx, ny
        self.cw, self.ch = region.width / nx, region.height / ny
        self._drawn = np.zeros(nx * ny, dtype=bool)
        origin = np.zeros(1, dtype=np.intp)
        self._rings = [(origin, origin, origin)]  # ring 0 is the cell itself

    def _ring(self, r: int):
        """Offsets (dx, dy, dx * ny + dy) of the 8r cells at Chebyshev distance r >= 1."""
        while len(self._rings) <= r:
            k = len(self._rings)
            side = np.arange(-k, k)
            edge = np.full(2 * k, k)
            dx = np.concatenate([side, edge, -side, -edge])
            dy = np.concatenate([-edge, side, edge, -side])
            self._rings.append((dx, dy, dx * self.ny + dy))
        return self._rings[r]

    def _ring_cells(self, cx: int, cy: int, r: int) -> np.ndarray:
        """Flat indices of the grid cells at Chebyshev distance r from (cx, cy)."""
        dx, dy, flat = self._ring(r)
        if r <= cx < self.nx - r and r <= cy < self.ny - r:
            return flat + (cx * self.ny + cy)
        gx, gy = dx + cx, dy + cy
        inside = (gx >= 0) & (gx < self.nx) & (gy >= 0) & (gy < self.ny)
        return (gx * self.ny + gy)[inside]

    def _covered(self, model: SpreadModel, ignition: Point, t: float, cx, cy, r) -> bool:
        """Whether the front at ``t``, clipped to the region, lies in the
        square of cells of radius r around (cx, cy)."""
        x0, y0, x1, y1 = model.bounding_box(ignition, t)
        return (
            (cx - r <= 0 or x0 >= (cx - r) * self.cw)
            and (cy - r <= 0 or y0 >= (cy - r) * self.ch)
            and (cx + r >= self.nx - 1 or x1 <= (cx + r + 1) * self.cw)
            and (cy + r >= self.ny - 1 or y1 <= (cy + r + 1) * self.ch)
        )

    def first_reach(self, model: SpreadModel, ignitions: np.ndarray) -> float:
        """Draw one trial's sensors near ``ignitions``; return the first reach time."""
        rng, drawn, ny = self.rng, self._drawn, self.ny
        points = [Point(x, y) for x, y in ignitions.tolist()]
        cells = [
            (min(int(p.x / self.cw), self.nx - 1), min(int(p.y / self.ch), ny - 1)) for p in points
        ]
        radius = [-1] * len(points)
        shared = len(points) > 1  # rings of different ignitions may overlap
        remaining, undrawn = self.count, self.nx * ny
        best = math.inf
        touched = []
        while remaining:
            new = []
            for j, p in enumerate(points):
                if best < math.inf and self._covered(model, p, best, *cells[j], radius[j]):
                    continue
                radius[j] += 1
                ring = self._ring_cells(*cells[j], radius[j])
                if shared:
                    ring = ring[~drawn[ring]]
                    drawn[ring] = True
                    touched.append(ring)
                new.append(ring)
            if not new:
                break
            ids = np.concatenate(new) if shared else new[0]
            if ids.size == 0:
                continue
            n = int(rng.binomial(remaining, ids.size / undrawn))
            remaining -= n
            undrawn -= ids.size
            if n == 0:
                continue
            if ids.size > 1:
                ids = ids[rng.integers(ids.size, size=n)]
            gx, gy = np.divmod(ids, ny)
            u = rng.random((n, 2))
            xs = (gx + u[:, 0]) * self.cw
            ys = (gy + u[:, 1]) * self.ch
            for p in points:
                best = min(best, float(model.reach_times(p, xs, ys).min()))
        for ids in touched:
            drawn[ids] = False
        return best


def detection_time(model: SpreadModel, positions, ignitions: np.ndarray) -> float:
    """Minimum reach time over all (ignition, sensor) pairs.

    ``positions`` is an (n, 2) array of sensors, or the lazy sampler of a run
    that resamples its layout, which draws only the sensors that can be first.
    """
    ignitions = np.atleast_2d(np.asarray(ignitions, dtype=float))
    if isinstance(positions, _CellSampler):
        return positions.first_reach(model, ignitions)
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ParameterError("sensor layout is empty")
    best = math.inf
    for ix, iy in ignitions:
        t = model.reach_times(Point(float(ix), float(iy)), positions[:, 0], positions[:, 1])
        best = min(best, float(np.min(t)))
    return best


def _union_area(config: ScenarioConfig, index: int, t_d: float, ignitions) -> float:
    """Burned area of trial ``index``: the union of its fronts, clipped to the region."""
    fronts = [(Point(x, y), config.model, t_d) for x, y in ignitions]
    return burned_union_area(
        fronts, config.region, tol=config.area_tol, seed=_area_seed(config.master_seed, index)
    )


def _simulate_fixed(config: ScenarioConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    region, model, k = config.region, config.model, config.ignition_count
    sensors = _FixedSensors(config)
    t_out = np.empty(hi - lo)
    a_out = np.empty(hi - lo)
    for b0 in range(lo, hi, _TRIAL_BLOCK):
        b1 = min(b0 + _TRIAL_BLOCK, hi)
        u = _trial_uniforms(config.master_seed, b0, b1, 2 * k)
        xs, ys = u[:, 0::2] * region.width, u[:, 1::2] * region.height
        t_d = sensors.first_reach(xs, ys)
        t_out[b0 - lo : b1 - lo] = t_d
        if k == 1 and not config.clip_to_region:
            # Python floats: numpy's square differs from libm pow in the last bit.
            a_out[b0 - lo : b1 - lo] = [model.area(t) for t in t_d.tolist()]
        else:
            ignitions = np.stack([xs, ys], axis=2).tolist()
            a_out[b0 - lo : b1 - lo] = [
                _union_area(config, i, t, ign)
                for i, t, ign in zip(range(b0, b1), t_d.tolist(), ignitions)
            ]
    return t_out, a_out


def _simulate_range(config: ScenarioConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    if not config.resample_layout_each_trial:
        return _simulate_fixed(config, lo, hi)
    region = config.region
    model = config.model
    k = config.ignition_count
    scale = np.array([region.width, region.height])
    streams = _TrialStreams(config.master_seed)
    sensors = _CellSampler(region, config.placement.count, streams.generator)

    t_out = np.empty(hi - lo)
    a_out = np.empty(hi - lo)
    for i in range(lo, hi):
        rng = streams.trial(i)
        ignitions = rng.random((k, 2)) * scale
        t_d = detection_time(model, sensors, ignitions)
        if k == 1 and not config.clip_to_region:
            a_d = model.area(t_d)
        else:
            a_d = _union_area(config, i, t_d, ignitions.tolist())
        t_out[i - lo] = t_d
        a_out[i - lo] = a_d
    return t_out, a_out


def run_trials(config: ScenarioConfig, workers: int = 1) -> list[TrialOutcome]:
    """Run all trials of ``config`` and return outcomes in trial order.

    ``workers`` only controls the process count; the per-trial substreams
    make the output bit-identical for any value.
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
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_simulate_range, [config] * workers, bounds[:-1], bounds[1:])
            )
        t_all = np.concatenate([p[0] for p in parts])
        a_all = np.concatenate([p[1] for p in parts])
    return [TrialOutcome(float(t), float(a)) for t, a in zip(t_all, a_all)]


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


def summarize(outcomes: Sequence[TrialOutcome]) -> SummaryStats:
    """Unbiased means/variances, standard errors and sorted ECDF samples."""
    n = len(outcomes)
    if n < 2:
        raise EstimatorError(f"need at least 2 outcomes to summarize, got {n}")
    t = np.fromiter((o.t_d for o in outcomes), dtype=float, count=n)
    a = np.fromiter((o.a_d for o in outcomes), dtype=float, count=n)
    var_t = float(np.var(t, ddof=1))
    var_a = float(np.var(a, ddof=1))
    return SummaryStats(
        n=n,
        mean_td=float(t.mean()),
        var_td=var_t,
        se_td=math.sqrt(var_t / n),
        mean_ad=float(a.mean()),
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


def outcomes_to_csv(outcomes: Sequence[TrialOutcome], fileobj) -> None:
    """Dump outcomes as CSV with header ``trial,t_d,a_d``."""
    fileobj.write("trial,t_d,a_d\n")
    for i, o in enumerate(outcomes):
        fileobj.write(f"{i},{o.t_d!r},{o.a_d!r}\n")


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
    return json.dumps(payload, indent=2)
