import io
import math

import numpy as np
import pytest
from scipy import stats

from firewatch.errors import ParameterError
from firewatch.geometry import RectRegion
from firewatch.placement import (
    GridPlacement,
    RandomPlacement,
    build_layout,
    characteristic_distance,
    grid_layout,
    layout_to_csv,
    uniform_layout,
)


def test_characteristic_distance_values():
    assert characteristic_distance(100.0, 100) == pytest.approx(1.0)
    assert characteristic_distance(10000.0, 10000) == pytest.approx(1.0)
    assert characteristic_distance(2.0, 1) == pytest.approx(math.sqrt(2))


def test_characteristic_distance_square_identity():
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    for _ in range(50):
        area = 0.1 + rng.random() * 1000
        n = int(rng.integers(1, 10000))
        d = characteristic_distance(area, n)
        assert d * d * n == pytest.approx(area, rel=1e-12)


def test_characteristic_distance_validation():
    with pytest.raises(ParameterError):
        characteristic_distance(100.0, 0)
    with pytest.raises(ParameterError):
        characteristic_distance(0.0, 5)


def test_grid_layout_2x2():
    layout = grid_layout(RectRegion(2, 2), 1.0)
    assert len(layout) == 9
    got = {(x, y) for x, y in layout.positions}
    assert got == {(float(i), float(j)) for i in range(3) for j in range(3)}
    assert layout.characteristic_distance == 1.0


def test_grid_layout_unit_square_corners():
    layout = grid_layout(RectRegion(1, 1), 1.0)
    assert len(layout) == 4
    assert {(x, y) for x, y in layout.positions} == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_grid_layout_rejects_non_multiple_sides():
    with pytest.raises(ParameterError, match="remainder"):
        grid_layout(RectRegion(2, 3), 0.9)


def test_grid_layout_count_formula():
    for w, h, d in [(3, 2, 1.0), (10, 10, 2.5), (1.5, 4.5, 0.5)]:
        layout = grid_layout(RectRegion(w, h), d)
        assert len(layout) == (round(w / d) + 1) * (round(h / d) + 1)


def test_grid_layout_points_inside_region():
    region = RectRegion(4, 6)
    layout = grid_layout(region, 2.0)
    for x, y in layout.positions:
        assert 0.0 <= x <= region.width and 0.0 <= y <= region.height


def test_uniform_layout_deterministic():
    region = RectRegion(50, 20)
    a = uniform_layout(region, 100, seed=9)
    b = uniform_layout(region, 100, seed=9)
    c = uniform_layout(region, 100, seed=10)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_uniform_layout_single_point_inside():
    region = RectRegion(5, 5)
    layout = uniform_layout(region, 1, seed=0)
    assert len(layout) == 1
    x, y = layout.positions[0]
    assert 0.0 <= x <= region.width and 0.0 <= y <= region.height


def test_uniform_layout_all_contained():
    region = RectRegion(30, 7)
    layout = uniform_layout(region, 500, seed=4)
    assert np.all(layout.positions[:, 0] >= 0) and np.all(layout.positions[:, 0] <= 30)
    assert np.all(layout.positions[:, 1] >= 0) and np.all(layout.positions[:, 1] <= 7)
    assert layout.characteristic_distance == pytest.approx(math.sqrt(210.0 / 500))


def test_uniform_layout_marginals_pass_ks():
    region = RectRegion(1, 1)
    layout = uniform_layout(region, 1000, seed=12345)
    for axis in (0, 1):
        _, p = stats.kstest(layout.positions[:, axis], "uniform")
        assert p > 0.01


def test_uniform_layout_validation():
    with pytest.raises(ParameterError):
        uniform_layout(RectRegion(1, 1), 0, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 9])
def test_uniform_layout_rejects_seed_outside_64_bits(seed):
    # Masking would alias -1 to 2^64 - 1 and 2^64 + 9 to 9.
    with pytest.raises(ParameterError, match="seed"):
        uniform_layout(RectRegion(1, 1), 3, seed=seed)
    assert len(uniform_layout(RectRegion(1, 1), 3, seed=2**64 - 1)) == 3


@pytest.mark.parametrize("count", [0, -3, 2.5, True, "7"])
def test_random_placement_rejects_bad_count(count):
    with pytest.raises(ParameterError):
        RandomPlacement(count)


def test_build_layout_dispatch():
    region = RectRegion(2, 2)
    assert len(build_layout(GridPlacement(1.0), region)) == 9
    assert len(build_layout(RandomPlacement(7), region, seed=1)) == 7
    with pytest.raises(ParameterError):
        build_layout("nope", region)


def test_layout_to_csv():
    layout = grid_layout(RectRegion(1, 1), 1.0)
    buf = io.StringIO()
    layout_to_csv(layout, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 5
    assert lines[1] == "0.0,0.0"
