"""Sensor layout generation: regular grids and uniform random placement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count, check_positive
from .geometry import RectRegion

__all__ = [
    "SensorLayout",
    "GridPlacement",
    "RandomPlacement",
    "characteristic_distance",
    "grid_layout",
    "uniform_layout",
    "build_layout",
    "layout_to_csv",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Sensor counts stay exact as floats, which the laws take them as.
_MAX_SENSORS = 1 << 53
# Stream tag for standalone layouts; Monte Carlo trial substreams use
# indices < 2^63, so the two can never collide for one master seed.
_LAYOUT_STREAM_TAG = _MASK64


@dataclass(frozen=True)
class SensorLayout:
    """Sensor positions (shape (n, 2), meters) plus the spacing parameter."""

    positions: np.ndarray
    characteristic_distance: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ParameterError(f"positions must have shape (n, 2) with n >= 1, got {pos.shape}")
        check_positive("characteristic distance", self.characteristic_distance)
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class GridPlacement:
    """Regular lattice with the given spacing."""

    spacing: float

    def __post_init__(self):
        check_positive("spacing", self.spacing)


@dataclass(frozen=True)
class RandomPlacement:
    """Independent uniform positions over the region."""

    count: int

    def __post_init__(self):
        check_count("sensor count", self.count, 1, _MAX_SENSORS)


def _check_master_seed(seed) -> None:
    # Philox keys are 64-bit words: a wider seed would alias a smaller one.
    check_count("master seed", seed, 0, _MASK64)


def characteristic_distance(area: float, n: int) -> float:
    """Density parameter sqrt(area / n) summarizing sensor spacing."""
    check_positive("area", area)
    check_count("sensor count", n, 1, _MAX_SENSORS)
    return math.sqrt(area / n)


def _lattice_count(side: float, spacing: float) -> int:
    m = side / spacing
    if not m <= _MAX_SENSORS:
        raise ParameterError(f"spacing {spacing} is too small for a region side of {side}")
    mi = round(m)
    if abs(m - mi) > 1e-9 * max(1.0, abs(m)) or mi < 1:
        raise ParameterError(
            f"region side {side} is not an integer multiple of spacing {spacing} "
            f"(remainder {side - math.floor(m) * spacing:g})"
        )
    return int(mi)


def grid_layout(region: RectRegion, spacing: float) -> SensorLayout:
    """Lattice covering the region, nodes on all four boundary edges.

    Region sides must be integer multiples of ``spacing``; the resulting
    layout has (width/spacing + 1) * (height/spacing + 1) sensors.
    """
    check_positive("spacing", spacing)
    nx = _lattice_count(region.width, spacing) + 1
    ny = _lattice_count(region.height, spacing) + 1
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    positions = np.column_stack([gx.ravel(), gy.ravel()])
    return SensorLayout(positions=positions, characteristic_distance=spacing)


def uniform_layout(region: RectRegion, n: int, seed: int) -> SensorLayout:
    """``n`` i.i.d. uniform sensor positions; deterministic for a fixed seed.

    The seed must lie in [0, 2^64), like a master seed.
    """
    distance = characteristic_distance(region.area, n)
    _check_master_seed(seed)
    key = np.array([seed, _LAYOUT_STREAM_TAG], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    positions = rng.random((n, 2)) * np.array([region.width, region.height])
    return SensorLayout(positions=positions, characteristic_distance=distance)


def build_layout(placement, region: RectRegion, seed: int = 0) -> SensorLayout:
    """Materialize a placement description into a concrete layout."""
    if isinstance(placement, GridPlacement):
        return grid_layout(region, placement.spacing)
    if isinstance(placement, RandomPlacement):
        return uniform_layout(region, placement.count, seed)
    raise ParameterError(f"unknown placement kind: {placement!r}")


def layout_to_csv(layout: SensorLayout, fileobj) -> None:
    """Write the layout as CSV with header ``x,y`` (meters)."""
    fileobj.write("x,y\n")
    for x, y in layout.positions:
        fileobj.write(f"{float(x)!r},{float(y)!r}\n")
