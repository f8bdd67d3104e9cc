"""Deterministic, seedable Monte Carlo trial engine.

Trial ``i`` draws its ignition points from its own counter-based substream,
Philox keyed by (master_seed, i). Trials run as array work over blocks of
trials: the Philox4x64-10 words of many trial keys are computed at once, bit
for bit as numpy's ``Philox(key=[master_seed, i])`` would give them. Results
are a pure function of the scenario configuration: independent of execution
order, chunking and worker count.

Both kinds of layout are searched the same way. The region is split into a
fixed grid of equal cells, and rings of cells are visited outward from each
ignition's cell, one ring per step for every trial of the block that is still
searching. A trial stops searching around an ignition once that front's
bounding box at the trial's best reach time so far lies inside the visited
cells: fronts only grow, so no sensor outside them can be reached sooner. A
trial's search also ends once its time is NaN, which no later sensor can
undo, once it has no sensors left, or once no sensor outside the visited
cells can have a finite time.

A fixed layout (a grid, or random sensors with resampling off) is bucketed
into the cells once, and each ring step times the sensors of the new cells.
Every reach time is the float that timing all sensors would give, and the
search ends only when the minimum is among the timed ones, so the outcomes
are byte for byte those of timing every sensor trial by trial.

A resampled layout draws its sensors in the cells as they are visited, for a
block of _BLOCK trials at a time, from one stream per block keyed by
(master_seed, _BLOCK_TAG | block index); blocks start at multiples of _BLOCK,
and the last one ends at the run's last trial. For each trial's new cells in
a step, the sensor count is drawn as Binomial(remaining sensors, new area /
undrawn area), then that many positions i.i.d. uniform in the new cells.
Given the counts drawn so far, the undrawn sensors of a trial are i.i.d.
uniform over its undrawn area, whichever cells were chosen from what was
drawn, and whatever the other trials of the block drew; so each trial sees
the binomial point process of N i.i.d. uniform sensors drawn in another
order, and ``(1 - x/A)^N`` holds exactly.

Burned areas are array work over the block too. All fronts of a trial share
its detection time t, and in the model's frame each is the disk of radius t
about its frame centre, so two meet iff those centres are at most 2t apart.
Only a trial with a pair that meets, or that comes within 1e-12 of touching,
calls ``burned_union_area``. The other fronts are lone: F(t) inside the
region, the array exact clip across its edge, nothing past it, each with the
bits that ``burned_union_area`` gives, and added in front order.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
# numpy loads numpy.random lazily; load it here, once, so that the worker
# processes run_trials forks do not each import it again.
import numpy.random  # noqa: F401

from .analytic import AnalyticLaw, limit_burned_area_law, scenario_laws
from .errors import DomainError, EstimatorError, ParameterError, check_count
from .geometry import Point, RectRegion, burned_union_area
from .philox import philox4x64
from .placement import GridPlacement, RandomPlacement, _check_master_seed, build_layout
from .propagation import SpreadModel

__all__ = [
    "ScenarioConfig",
    "Outcomes",
    "SummaryStats",
    "run_trials",
    "sweep_seed",
    "detection_time",
    "summarize",
    "ks_distance",
    "ks_critical",
    "outcomes_to_csv",
    "summary_to_json",
    "Simulation",
    "simulate",
    "compare_random_sweep",
    "compare_grid",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_TRIAL_INDEX = 1 << 62
# A block of trials draws, times and unions all of its ignitions as arrays,
# so a count far beyond any fire scenario would exhaust memory or never end.
_MAX_IGNITIONS = 1 << 10
# Mean sensors per cell of the ring search. A step is array work over every
# searching trial of a block, so its cost is the sensors it draws and times,
# not the steps: small cells are cheapest. At N=1e4 the resampled run cost
# 8-10 us per trial at 2 and 4 sensors per cell, 13 at 16 and 23 at 64, and
# at 4 almost every search ends by ring 1; its draws depend on the cells, so
# they stay at 4. A fixed layout's search took 1.2, 1.5 and 2.1 us per trial
# at 1, 2 and 4 sensors per cell on a 10x10 grid, and 1.1-1.5, 2.0 and 2.7 on
# N=1e4 random sensors (2 vCPUs).
_SENSORS_PER_CELL = 4
_FIXED_SENSORS_PER_CELL = 1
# A fixed layout's search stops only once the front's box is inside the
# visited square by this share of the region's side. It covers the rounding
# of cell indices, of the box and of the reach times, a few ulps of the side
# scaled by the front's fastest over its slowest speed (at most hb * lb), so
# no sensor outside the square can time below the best one inside it.
_STOP_MARGIN = 1e-6
# A resampled run draws its sensors in blocks of _BLOCK trials, block b from
# the key (master_seed, _BLOCK_TAG | b); trial keys stay below _BLOCK_TAG.
_BLOCK = 1 << 9
_BLOCK_TAG = 1 << 62
# A fixed-layout run draws and times the ignitions of _TRIAL_BLOCK trials at
# a time. The ring search's temporaries then peak near 2 MB on a 10x10 grid;
# blocks of 2^9 trials held 1 MB less and ran 10-20% slower.
_TRIAL_BLOCK = 1 << 11
# About what starting a pool of worker processes costs a run: a trivial
# two-worker map took 10.5 ms on 2 vCPUs, and a worker replays the block it
# starts in. run_trials at workers > 1 runs this long in-process before it
# decides whether the rest of the run pays for a pool.
_POOL_START_S = 0.02


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

    def __post_init__(self):
        check_count("trials", self.trials, 1, _MAX_TRIAL_INDEX)
        check_count("ignition count", self.ignition_count, 1, _MAX_IGNITIONS)
        _check_master_seed(self.master_seed)
        is_random = isinstance(self.placement, RandomPlacement)
        if self.resample_layout_each_trial is None:
            object.__setattr__(self, "resample_layout_each_trial", is_random)
        if self.resample_layout_each_trial and not is_random:
            raise ParameterError("grid layouts have nothing to resample")
        if self.clip_to_region is None:
            object.__setattr__(self, "clip_to_region", is_random)


def sweep_seed(master_seed: int, key: int) -> int:
    """The master seed of the run ``key`` of a sweep under ``master_seed``:
    splitmix64 of their xor as Python ints (numpy's would wrap), in [0, 2^63),
    so that the runs of a sweep are decorrelated but reproducible."""
    return _splitmix64(int(master_seed) ^ int(key)) >> 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _philox_words(master_seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """The first ``count`` words of ``Philox(key=[master_seed, i]).random_raw()``
    for each trial ``i`` in [lo, hi), as a (hi - lo, count) uint64 array."""
    keys = np.arange(lo, hi, dtype=np.uint64)
    words = []
    for counter in range(1, (count + 3) // 4 + 1):
        words += philox4x64(master_seed, keys, counter)
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


class _Cells:
    """A grid of nx x ny equal cells over the region, of about ``per_cell``
    of ``count`` sensors each, searched ring by ring around ignitions.

    A layout gives only where a ring's sensors come from: its ``_block(b0,
    trials, k)`` returns ``ring_sensors(pairs, cells)``, which gives the new
    sensors of the cells that the (trial, ignition) ``pairs`` visit as
    ``(pair, x, y)``, one entry per pair that times a sensor, grouped by
    trial, and the count of sensors each trial has left."""

    def __init__(self, config: ScenarioConfig, count: int, per_cell: int, margin: float):
        region = config.region
        cells = max(1, count // per_cell)
        # cells * width overflows for sides near the largest floats; the
        # aspect ratio then gives the same columns without it.
        nx2 = cells * region.width / region.height
        if nx2 == math.inf:
            nx2 = cells * (region.width / region.height)
        nx = max(1, round(min(cells, math.sqrt(nx2))))
        ny = max(1, cells // nx)
        self.model = config.model
        self.nx, self.ny = nx, ny
        self.cw, self.ch = region.width / nx, region.height / ny
        self.mx, self.my = margin * region.width, margin * region.height
        # Only where a distance inside the region can overflow a reach time
        # can a search run out of finite reach (see _beyond_reach).
        self.overflows = math.isinf(0.5 * (region.width + region.height) / config.model.rate)

    def cell_of(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column and row of the cell that holds each point."""
        return (
            np.minimum((xs / self.cw).astype(np.intp), self.nx - 1),
            np.minimum((ys / self.ch).astype(np.intp), self.ny - 1),
        )

    def ring_cells(self, cx, cy, r: int) -> tuple[np.ndarray, np.ndarray]:
        """The cells at distance r from each cell ``(cx[i], cy[i])`` (the 8r
        around it, or itself at r = 0) that lie in the grid: for each one,
        ``i`` and its number ``column * ny + row``, grouped by ``i`` in order."""
        side = np.arange(-r, r + 1)
        dx, dy = np.repeat(side, 2 * r + 1), np.tile(side, 2 * r + 1)
        ring = np.maximum(abs(dx), abs(dy)) == r
        dx, dy = dx[ring], dy[ring]
        gx, gy = cx[:, None] + dx, cy[:, None] + dy
        i, j = np.nonzero((gx >= 0) & (gx < self.nx) & (gy >= 0) & (gy < self.ny))
        return i, (cx[i] + dx[j]) * self.ny + cy[i] + dy[j]

    def first_reach(self, b0: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Detection times of the trials b0, b0 + 1, ... whose ignitions are
        the rows of ``(xs, ys)``."""
        trials, k = xs.shape
        px, py = xs.ravel(), ys.ravel()
        cx, cy = self.cell_of(px, py)
        owner = np.repeat(np.arange(trials), k)  # trial of each (trial, ignition) pair
        best = np.full(trials, math.inf)
        ring_sensors, remaining = self._block(b0, trials, k)
        live = np.arange(trials * k)
        r = 0
        while live.size:
            rows, cell = self.ring_cells(cx[live], cy[live], r)
            pair, sx, sy = ring_sensors(live[rows], cell)
            if pair.size:
                t = self.model.reach_times(_Ignitions(px[pair], py[pair]), sx, sy)
                starts = _runs(owner[pair])[0]
                hit = owner[pair[starts]]
                best[hit] = np.minimum(best[hit], np.minimum.reduceat(t, starts))
            # A NaN time stays NaN (np.minimum keeps it), so its search ends.
            live = live[((remaining > 0) & ~np.isnan(best))[owner[live]]]
            stop = _front_inside(self, px[live], py[live], best[owner[live]], cx[live], cy[live], r)
            live = live[~stop]
            # A trial with no finite time yet whose every pair's next ring is
            # out of finite reach never gets one: its search ends.
            if self.overflows:
                lost = ~np.isfinite(best[owner[live]])
                pairs = live[lost]
                lost[lost] = _beyond_reach(self, px[pairs], py[pairs], cx[pairs], cy[pairs], r)
                searching = np.bincount(owner[live[~lost]], minlength=trials) > 0
                live = live[searching[owner[live]]]
            r += 1
        return best


class _FixedSensors(_Cells):
    """A layout that stays put across trials, bucketed once by cell."""

    def __init__(self, config: ScenarioConfig):
        positions = build_layout(config.placement, config.region, seed=config.master_seed).positions
        super().__init__(config, len(positions), _FIXED_SENSORS_PER_CELL, _STOP_MARGIN)
        cx, cy = self.cell_of(positions[:, 0], positions[:, 1])
        cell = cx * self.ny + cy
        order = np.argsort(cell, kind="stable")
        self.sx, self.sy = positions[order, 0], positions[order, 1]
        # The sensors of cell c are sx[start[c]:start[c + 1]].
        self.start = np.searchsorted(cell[order], np.arange(self.nx * self.ny + 1))

    def _block(self, b0: int, trials: int, k: int):
        """Each sensor of a cell, once for each pair that visits the cell;
        no trial runs out of sensors."""

        def ring_sensors(pairs, cell):
            first, n = self.start[cell], self.start[cell + 1] - self.start[cell]
            # One entry per (pair, sensor) of the ring, grouped by pair.
            ends = np.cumsum(n)
            ids = np.arange(ends[-1]) + np.repeat(first - (ends - n), n)
            return np.repeat(pairs, n), self.sx[ids], self.sy[ids]

        return ring_sensors, np.full(trials, self.sx.size)


class _CellSampler(_Cells):
    """Uniform random sensors, drawn cell by cell near the ignitions of a
    block of trials.

    Built once per run. See the module docstring for the draw and why it is
    exact.
    """

    def __init__(self, config: ScenarioConfig):
        count = config.placement.count
        super().__init__(config, count, _SENSORS_PER_CELL, 0.0)
        self.seed, self.count = config.master_seed, count

    def _block(self, b0: int, trials: int, k: int):
        """Sensors drawn in the cells that a trial visits first, from the
        stream of the block that starts at trial ``b0``; each is timed by
        every ignition of its trial."""
        key = np.array([self.seed, _BLOCK_TAG | b0 // _BLOCK], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        ny, cells = self.ny, self.nx * self.ny
        remaining = np.full(trials, self.count)
        undrawn = np.full(trials, cells)
        drawn = np.empty(0, dtype=np.intp)  # keys trial * cells + cell

        def ring_sensors(pairs, cell):
            nonlocal drawn
            keys = np.sort(pairs // k * cells + cell)
            keys = keys[_runs(keys)[0]]
            new = keys[~np.isin(keys, drawn, assume_unique=True, kind="sort")]
            drawn = np.concatenate([drawn, new])
            first, count = _runs(new // cells)
            trial = new[first] // cells
            n = rng.binomial(remaining[trial], count / undrawn[trial])
            remaining[trial] -= n
            undrawn[trial] -= count
            ids = new[np.repeat(first, n) + rng.integers(0, np.repeat(count, n))]
            of, cell = np.divmod(ids, cells)
            gx, gy = np.divmod(cell, ny)
            u = rng.random((ids.size, 2))
            sx, sy = (gx + u[:, 0]) * self.cw, (gy + u[:, 1]) * self.ch
            pair = (of[:, None] * k + np.arange(k)).ravel()
            return pair, np.repeat(sx, k), np.repeat(sy, k)

        return ring_sensors, remaining


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


def _front_inside(cells: _Cells, xs, ys, t, cx, cy, r: int) -> np.ndarray:
    """Whether each front from ``(xs, ys)`` at time ``t``, clipped to the
    region, lies in the square of cells of radius r around its cell
    ``(cx, cy)``, by the grid's margin. A front whose time is not finite is
    inside only if the square holds every cell."""
    # Sides at the region's edge are open: the front is clipped there.
    west, south = cx - r <= 0, cy - r <= 0
    east, north = cx + r >= cells.nx - 1, cy + r >= cells.ny - 1
    return (west & south & east & north) | _box_inside(
        cells.model, xs, ys, t,
        np.where(west, -math.inf, (cx - r) * cells.cw + cells.mx),
        np.where(south, -math.inf, (cy - r) * cells.ch + cells.my),
        np.where(east, math.inf, (cx + r + 1) * cells.cw - cells.mx),
        np.where(north, math.inf, (cy + r + 1) * cells.ch - cells.my),
    )


def _beyond_reach(cells: _Cells, xs, ys, cx, cy, r: int) -> np.ndarray:
    """Whether no sensor outside the square of cells of radius r around each
    cell ``(cx, cy)`` has a finite reach time from ``(xs, ys)``. A reach time
    is at least the distance over the fastest speed, the head's ``rate``:
    here half the distance, less 1e-12 of the region's sides for rounding,
    to the nearest side of the square that is not on the region's edge."""
    gap = np.minimum.reduce([
        np.where(cx - r > 0, xs - (cx - r) * cells.cw, math.inf),
        np.where(cx + r < cells.nx - 1, (cx + r + 1) * cells.cw - xs, math.inf),
        np.where(cy - r > 0, ys - (cy - r) * cells.ch, math.inf),
        np.where(cy + r < cells.ny - 1, (cy + r + 1) * cells.ch - ys, math.inf),
    ])
    slack = 1e-12 * (cells.nx * cells.cw + cells.ny * cells.ch)
    with np.errstate(over="ignore"):
        return np.isinf(0.5 * np.maximum(gap - slack, 0.0) / cells.model.rate)


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


def _burned_areas(config: ScenarioConfig, t_d: np.ndarray, xs, ys) -> np.ndarray:
    """Burned areas of the trials with detection times ``t_d`` and ignitions
    the rows of ``(xs, ys)``: F(t) for one unclipped front, else the bits of
    ``burned_union_area`` of the trial's fronts.

    All fronts of a trial share its time t, and the model's frame maps each
    to the disk of radius t about its ``frame_centre``, so two meet iff their
    centres are at most 2t apart. Only a trial with a pair that is not apart
    by a margin calls ``burned_union_area``: np.hypot may differ from the
    math.hypot it uses in the last bit. The other trials' fronts are lone,
    and are measured as arrays (``_lone_areas``).
    """
    model, region, k = config.model, config.region, config.ignition_count
    areas = model.area(t_d)
    if k == 1 and not config.clip_to_region:
        return areas
    # A time that is not finite has area inf (or NaN), which run_trials rejects.
    finite = np.isfinite(t_d)
    lone = finite.copy()
    if k > 1:
        cx, cy = model.frame_centre(xs, ys, t_d[:, None])
        # Apart by 1e-12 of 2t, and by some ulps where t is subnormal.
        apart = (2.0 * t_d * (1.0 + 1e-12) + 1e-320)[:, None]
        for i in range(k - 1):
            d = np.hypot(cx[:, i, None] - cx[:, i + 1 :], cy[:, i, None] - cy[:, i + 1 :])
            lone &= (d > apart).all(axis=1)
    areas[lone] = _lone_areas(model, region, areas[lone], t_d[lone], xs[lone], ys[lone])
    for i in np.flatnonzero(finite & ~lone).tolist():
        t = float(t_d[i])
        fronts = [(Point(x, y), model, t) for x, y in zip(xs[i].tolist(), ys[i].tolist())]
        areas[i] = burned_union_area(fronts, region)
    return areas


def _lone_areas(model: SpreadModel, region: RectRegion, free, t, xs, ys) -> np.ndarray:
    """Burned areas of trials whose fronts, from the rows of ``(xs, ys)`` at
    the trial's time t, meet no other: each front measured as
    ``burned_union_area`` measures a lone front, and added in front order.
    ``free`` holds each trial's F(t)."""
    w, h = region.width, region.height
    k = xs.shape[1]
    px, py, pt = xs.ravel(), ys.ravel(), np.repeat(t, k)
    area = np.repeat(free, k)
    # A front inside the region by 1e-9 of its sides burns F(t): the margin
    # covers the rounding of _box_inside against the front's bounding_box.
    mx, my = 1e-9 * w, 1e-9 * h
    edge = np.flatnonzero(~_box_inside(model, px, py, pt, mx, my, w - mx, h - my))
    # The rest take burned_union_area's branch, from the same box: none if
    # it misses the region, F(t) if inside it, else the exact clip.
    x0, y0, x1, y1 = model.bounding_box(_Ignitions(px[edge], py[edge]), pt[edge])
    miss = (np.maximum(x0, 0.0) >= np.minimum(x1, w)) | (np.maximum(y0, 0.0) >= np.minimum(y1, h))
    inside = (x0 >= 0.0) & (y0 >= 0.0) & (x1 <= w) & (y1 <= h)
    area[edge[miss]] = 0.0
    clip = edge[~miss & ~inside]
    if clip.size:
        area[clip] = model.clipped_area_exact(_Ignitions(px[clip], py[clip]), pt[clip], region)
    area = area.reshape(-1, k)
    total = np.zeros(t.size)
    for j in range(k):
        total = total + area[:, j]
    return total


def _sensors(config: ScenarioConfig) -> _Cells:
    return _CellSampler(config) if config.resample_layout_each_trial else _FixedSensors(config)


def _simulate_range(
    config: ScenarioConfig,
    lo: int,
    hi: int,
    sensors: Optional[_Cells] = None,
    stop: Optional[Callable[[int], bool]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(t_d, a_d)`` arrays of trials [lo, hi).

    ``sensors`` is the run's layout as _sensors builds it (built here if
    None). ``stop(j)`` is asked after each block, once trials [lo, j) are
    done; the first True ends the range there, and only those trials are
    returned.
    """
    region, k = config.region, config.ignition_count
    if sensors is None:
        sensors = _sensors(config)
    if config.resample_layout_each_trial:
        # A block's draws depend on all of its trials: run whole blocks.
        first, step, end = lo - lo % _BLOCK, _BLOCK, config.trials
    else:
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
            a_out[s0 - lo : s1 - lo] = _burned_areas(config, t_d[keep], xs[keep], ys[keep])
            if stop is not None and stop(s1):
                return t_out[: s1 - lo], a_out[: s1 - lo]
    return t_out, a_out


def run_trials(config: ScenarioConfig, workers: int = 1) -> Outcomes:
    """Run all trials of ``config`` and return outcomes in trial order.

    ``workers`` is the most processes the run may use: the caller's and
    ``workers - 1`` forked ones, which it starts only when the rest of the
    run pays for them. It is capped at the CPUs this process may run on,
    since the pool starts all its processes at once. The output is
    bit-identical for any value.
    """
    check_count("workers", workers, 1)
    workers = min(workers, len(os.sched_getaffinity(0)))
    trials = config.trials
    sensors = _sensors(config)
    start, verdict = perf_counter(), None

    def fork_pays(done: int) -> bool:
        # Once the run has spent about one pool start-up in this process,
        # estimate the rest from its rate so far, and fork only if the rest
        # is worth several start-ups. The verdict sticks: True ends the
        # in-process range at the next check.
        nonlocal verdict
        if verdict is None:
            elapsed = perf_counter() - start
            if elapsed >= _POOL_START_S:
                rest_s = elapsed / done * (trials - done)
                verdict = trials - done > 1 and rest_s > 4 * _POOL_START_S
        return bool(verdict)

    t_all, a_all = _simulate_range(config, 0, trials, sensors, fork_pays if workers > 1 else None)
    done = t_all.size
    if done < trials:
        # Contiguous ranges of the rest: the first for this process, one for
        # each forked worker. A resampled range replays the block it starts in.
        bounds = np.linspace(done, trials, min(workers, trials - done) + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=len(bounds) - 2) as pool:
            futures = [
                pool.submit(_simulate_range, config, lo, hi)
                for lo, hi in zip(bounds[1:], bounds[2:])
            ]
            parts = [(t_all, a_all), _simulate_range(config, bounds[0], bounds[1], sensors)]
            parts += [f.result() for f in futures]
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
    if np.isnan(s).any():
        raise EstimatorError("sample holds a NaN")
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
    check_count("sample size", n, 1, 2**53)
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


class Simulation(NamedTuple):
    """A run scored against its scenario's laws; None where no law applies."""

    outcomes: Outcomes
    stats: SummaryStats
    td_law: Optional[AnalyticLaw]
    ad_law: Optional[AnalyticLaw]
    ks_td: Optional[float]
    ks_ad: Optional[float]


def simulate(
    config: ScenarioConfig, workers: int = 1, char_distance: Optional[float] = None
) -> Simulation:
    """Run the trials of ``config``, summarize them and measure the KS
    distance of each statistic to its law (``analytic.scenario_laws``, which
    takes ``char_distance``)."""
    # summarize needs two outcomes; say so before running any trial.
    if config.trials < 2:
        raise ParameterError(f"trials must be >= 2 to summarize, got {config.trials}")
    # The laws reject a region whose area underflows before a trial runs.
    td_law, ad_law = scenario_laws(config, char_distance)
    outcomes = run_trials(config, workers=workers)
    stats = summarize(outcomes)
    ks_td = ks_distance(stats.ecdf_td, td_law) if td_law else None
    ks_ad = ks_distance(stats.ecdf_ad, ad_law) if ad_law else None
    return Simulation(outcomes, stats, td_law, ad_law, ks_td, ks_ad)


def _compare_row(n, char_distance, run: Simulation, limit_law=None) -> dict:
    """One row of the compare table. The analytic burned-area moments are
    those of ``limit_law`` where there is one (random sweeps), else of the
    run's own law; a column with no closed form is None."""
    stats, td_law = run.stats, run.td_law
    moments = limit_law or run.ad_law
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
        "analytic_mean_ad": moments.mean if moments else None,
        "analytic_var_ad": moments.variance if moments else None,
        "ks_td": run.ks_td,
        "ks_ad_exact": run.ks_ad,
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
    under ``sweep_seed(master_seed, n)``, so sweep entries are decorrelated
    but reproducible.
    """
    _check_master_seed(master_seed)
    check_count("ECDF points", ecdf_points, 0)
    limit_law = limit_burned_area_law(char_distance)
    rows, ecdf_rows = [], []
    # Each count is checked before the first entry runs and before it sizes a region.
    for placement in [RandomPlacement(count=n) for n in sensor_counts]:
        n = placement.count
        side = math.sqrt(n * char_distance * char_distance)
        config = ScenarioConfig(
            region=RectRegion(side, side),
            placement=placement,
            model=model,
            trials=trials,
            master_seed=sweep_seed(master_seed, n),
            ignition_count=ignition_count,
        )
        # Random placement clips: the run's burned-area law is the exact one.
        run = simulate(config, workers, char_distance)
        rows.append(_compare_row(n, char_distance, run, limit_law))
        if ecdf_points:
            sample, size = run.stats.ecdf_ad, run.stats.n
            idx = np.unique(np.linspace(0, size - 1, min(ecdf_points, size)).astype(int))
            ecdf_rows += [
                {
                    "n_sensors": n,
                    "x": x,
                    "empirical": (j + 1) / size,
                    "exact": float(1.0 - run.ad_law.survival(x)),
                    "limit": float(1.0 - limit_law.survival(x)),
                }
                for j, x in zip(idx.tolist(), sample[idx].tolist())
            ]
    return rows, ecdf_rows


def compare_grid(
    region: RectRegion,
    spacing: float,
    model: SpreadModel,
    trials: int,
    master_seed: int,
    ignition_count: int = 1,
    workers: int = 1,
) -> list[dict]:
    """Single-row comparison of a grid scenario against its exact laws."""
    config = ScenarioConfig(
        region, GridPlacement(spacing), model, trials, master_seed, ignition_count
    )
    if scenario_laws(config)[0] is None:
        raise ParameterError("grid comparison laws assume circular spread")
    n = len(build_layout(config.placement, region))
    return [_compare_row(n, spacing, simulate(config, workers))]
