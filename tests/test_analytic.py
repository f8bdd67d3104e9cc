import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from firewatch.analytic import (
    exact_burned_area_law,
    grid_ad_law,
    grid_td_cdf,
    grid_td_law,
    limit_burned_area_law,
    random_td_law,
)
from firewatch.errors import DomainError, ParameterError
from firewatch.propagation import CircularModel, EllipticalModel

GRID_MEAN_CONST = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 6.0


def test_grid_td_law_of_several_ignitions():
    # Each ignition is missed independently: S_k(t) = S_1(t)^k.
    one, three = grid_td_law(1.0, 1.0), grid_td_law(1.0, 1.0, ignitions=3)
    t = np.linspace(0.0, 0.8, 81)
    np.testing.assert_allclose(three.survival(t), one.survival(t) ** 3, rtol=0, atol=1e-15)
    assert three.mean is None and three.variance is None
    assert three.support_upper == one.support_upper
    with pytest.raises(ParameterError):
        grid_td_law(1.0, 1.0, ignitions=0)


class TestGridTdCdf:
    def test_zero(self):
        assert grid_td_cdf(0.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("spacing, rate", [(1e-320, 1.0), (1.0, 1e200), (1.0, 1e308)])
    def test_overflowing_rate_over_spacing(self, spacing, rate):
        # 2 rate / spacing overflows (or its square does): the CDF is still 0
        # at x = 0 and 1 once the front has crossed a cell.
        np.testing.assert_array_equal(grid_td_cdf(np.array([0.0, 1.0]), spacing, rate), [0.0, 1.0])
        assert grid_td_cdf(0.0, spacing, rate) == 0.0

    def test_quarter_disk_breakpoint(self):
        # P(T_d <= D/2R) = pi/4, i.e. the survival there is 1 - pi/4 ~ 0.215.
        assert grid_td_cdf(0.5, 1.0, 1.0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert 1 - grid_td_cdf(0.5, 1.0, 1.0) == pytest.approx(0.215, abs=5e-4)

    def test_one_beyond_support(self):
        assert grid_td_cdf(1 / math.sqrt(2), 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert grid_td_cdf(5.0, 1.0, 1.0) == 1.0

    def test_continuous_at_breakpoints(self):
        for brk in (0.5, 1 / math.sqrt(2)):
            below = grid_td_cdf(np.nextafter(brk, 0), 1.0, 1.0)
            above = grid_td_cdf(np.nextafter(brk, 1), 1.0, 1.0)
            assert abs(above - below) < 1e-12

    def test_monotone_on_dense_grid(self):
        xs = np.linspace(0, 0.8, 10_000)
        cdf = grid_td_cdf(xs, 1.0, 1.0)
        assert np.all(np.diff(cdf) >= 0)

    def test_middle_branch_against_area_ratio_sampling(self):
        # Uniform ignition in the quarter cell; fraction within distance R*x
        # of the corner sensor estimates the CDF independently.
        x, d, r = 0.6, 1.0, 1.0
        rng = np.random.Generator(np.random.Philox(key=[424242, 0]))
        n = 2_000_000
        pts = rng.random((n, 2)) * (d / 2)
        frac = float(np.mean(np.hypot(pts[:, 0], pts[:, 1]) <= r * x))
        sigma = math.sqrt(frac * (1 - frac) / n)
        assert grid_td_cdf(x, d, r) == pytest.approx(frac, abs=3 * sigma)

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=[61, 0]))
        for _ in range(50):
            x = rng.random()
            s = 0.1 + rng.random() * 10
            assert grid_td_cdf(s * x, s * 1.0, 1.0) == pytest.approx(
                grid_td_cdf(x, 1.0, 1.0), rel=1e-12
            )

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            grid_td_cdf(-0.1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            grid_td_cdf(0.1, 0.0, 1.0)


class TestGridMoments:
    def test_closed_forms(self):
        td, ad = grid_td_law(1.0, 1.0), grid_ad_law(1.0, 1.0)
        assert td.mean == pytest.approx(GRID_MEAN_CONST, abs=1e-15)
        assert td.mean == pytest.approx(0.3826, abs=1e-4)
        assert td.second_moment == pytest.approx(1 / 6, abs=1e-15)
        assert td.variance == pytest.approx(0.0203, abs=5e-5)
        assert ad.mean == pytest.approx(math.pi / 6, abs=1e-15)
        assert ad.mean == pytest.approx(0.52, abs=4e-3)

    def test_scaling_in_d_and_r(self):
        td, ad = grid_td_law(3.0, 2.0), grid_ad_law(3.0, 2.0)
        assert td.mean == pytest.approx(GRID_MEAN_CONST * 1.5, rel=1e-14)
        assert td.second_moment == pytest.approx(1.5**2 / 6, rel=1e-14)
        assert ad.mean == pytest.approx(math.pi / 6 * 9, rel=1e-14)

    def test_against_quadrature_of_cdf(self):
        # The moment route the closed forms came from: mean = int S dt,
        # E[T^2] = 2 int t S dt.  Also pins the quadratic first branch: the
        # non-squared variant would put the mean at ~0.317.
        d, r = 1.0, 1.0
        upper = d / (math.sqrt(2) * r)
        surv = lambda t: 1.0 - grid_td_cdf(t, d, r)
        mean_q, _ = integrate.quad(surv, 0, upper, points=[d / (2 * r)], limit=200)
        sec_q, _ = integrate.quad(lambda t: 2 * t * surv(t), 0, upper, points=[d / (2 * r)], limit=200)
        law = grid_td_law(d, r)
        assert mean_q == pytest.approx(law.mean, abs=1e-6)
        assert sec_q == pytest.approx(law.second_moment, abs=1e-6)
        assert abs(mean_q - 0.317) > 0.06


class TestExactBurnedAreaSurvival:
    def test_endpoints(self):
        assert exact_burned_area_law(100.0, 10).survival(0.0) == 1.0
        assert exact_burned_area_law(100.0, 10).survival(100.0) == 0.0

    def test_single_sensor_halfway(self):
        assert exact_burned_area_law(100.0, 1).survival(50.0) == pytest.approx(0.5)

    def test_clamp_mode_clips(self):
        assert exact_burned_area_law(100.0, 10).survival(101.0) == 0.0
        assert exact_burned_area_law(100.0, 10).survival(-1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            exact_burned_area_law(100.0, 0)
        with pytest.raises(ParameterError):
            exact_burned_area_law(0.0, 10)


class TestLimitLaw:
    def test_values(self):
        assert limit_burned_area_law(1.0).survival(0.0) == 1.0
        assert limit_burned_area_law(1.0).survival(1.0) == pytest.approx(math.exp(-1), rel=1e-12)
        assert limit_burned_area_law(math.sqrt(2.0)).survival(2.0) == pytest.approx(
            math.exp(-1), rel=1e-12
        )

    def test_exact_converges_monotonically_to_limit(self):
        d = 1.0
        for x in (0.3, 1.0, 2.5):
            prev = -1.0
            for n in (10, 100, 1000, 10000):
                s = exact_burned_area_law(n * d * d, n).survival(x)
                assert s > prev
                prev = s
            assert prev == pytest.approx(limit_burned_area_law(d).survival(x), abs=1e-4)

    def test_finite_n_gap_bounded_by_c_over_n(self):
        # sup_x |(1 - x/(N D^2))^N - exp(-x/D^2)| over x in [0, 10 D^2]
        # decays like ~0.27/N; assert the 0.5/N envelope for N >= 100.
        xs = np.linspace(0, 10, 2001)
        for n in (100, 1000, 10000):
            exact = exact_burned_area_law(float(n), n).survival(np.minimum(xs, n))
            gap = np.max(np.abs(exact - np.exp(-xs)))
            assert gap <= 0.5 / n


class TestRandomTdLaw:
    def test_survival_values(self):
        law = random_td_law(CircularModel(1.0), 1.0)
        assert law.survival(0.0) == 1.0
        t = 1 / math.sqrt(math.pi)
        assert law.survival(t) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_elliptical_identity_reduces_to_circular(self):
        ts = np.linspace(0, 3, 50)
        circ = random_td_law(CircularModel(1.0), 1.0).survival(ts)
        ell = random_td_law(EllipticalModel(1.0, 1.0, 1.0), 1.0).survival(ts)
        assert np.allclose(circ, ell, rtol=1e-14)

    def test_circular_moments(self):
        law = random_td_law(CircularModel(1.0), 1.0)
        assert law.mean == pytest.approx(0.5, abs=1e-15)
        assert law.second_moment == pytest.approx(1 / math.pi, rel=1e-14)
        assert law.variance == pytest.approx(0.068, abs=4e-4)

    def test_elliptical_moments_scale(self):
        law = random_td_law(EllipticalModel(1.0, 2.0, 2.0), 1.0)
        k = 2 * math.sqrt(2) / 1.5
        assert law.mean == pytest.approx(k * 0.5, rel=1e-14)
        assert law.mean == pytest.approx(0.9428, abs=1e-4)
        assert law.second_moment == pytest.approx(k * k / math.pi, rel=1e-14)
        assert law.variance == pytest.approx(k * k * (4 - math.pi) / (4 * math.pi), rel=1e-14)

    def test_elliptical_moments_match_quadrature(self):
        law = random_td_law(EllipticalModel(1.0, 2.0, 2.0), 1.0)
        mean_q, _ = integrate.quad(law.survival, 0, np.inf)
        sec_q, _ = integrate.quad(lambda t: 2 * t * law.survival(t), 0, np.inf)
        assert mean_q == pytest.approx(law.mean, abs=1e-6)
        assert sec_q == pytest.approx(law.second_moment, abs=1e-6)


LAW_CASES = [
    ("grid-td", lambda: grid_td_law(1.0, 1.0)),
    ("grid-td-scaled", lambda: grid_td_law(2.0, 0.5)),
    ("random-td-circ", lambda: random_td_law(CircularModel(1.0), 1.0)),
    ("random-td-ell", lambda: random_td_law(EllipticalModel(1.0, 2.0, 2.0), 1.0)),
    ("ad-exact", lambda: exact_burned_area_law(100.0, 25)),
    ("ad-limit", lambda: limit_burned_area_law(1.5)),
]


@pytest.mark.parametrize("name,maker", LAW_CASES, ids=[c[0] for c in LAW_CASES])
def test_law_moments_match_quadrature_of_survival(name, maker):
    law = maker()
    upper = law.support_upper if law.support_upper is not None else np.inf
    mean_q, _ = integrate.quad(law.survival, 0, upper, limit=300)
    assert mean_q == pytest.approx(law.mean, abs=1e-6)
    if law.second_moment is not None:
        sec_q, _ = integrate.quad(lambda t: 2 * t * law.survival(t), 0, upper, limit=300)
        assert sec_q == pytest.approx(law.second_moment, abs=1e-6)
        assert law.variance == pytest.approx(law.second_moment - law.mean**2, rel=1e-10)


def test_grid_ad_law_mean_matches_quadrature():
    law = grid_ad_law(1.0, 1.0)
    mean_q, _ = integrate.quad(law.survival, 0, law.support_upper, limit=300)
    assert mean_q == pytest.approx(math.pi / 6, abs=1e-6)
    assert law.support_upper == pytest.approx(math.pi / 2)
    # survival clamps below zero and beyond the support
    assert law.survival(-1.0) == 1.0
    assert law.survival(10.0) == 0.0


def test_exact_law_closed_form_moments():
    area, n = 100.0, 25
    law = exact_burned_area_law(area, n)
    assert law.mean == pytest.approx(area / (n + 1), rel=1e-14)
    assert law.second_moment == pytest.approx(2 * area**2 / ((n + 1) * (n + 2)), rel=1e-14)
    assert law.support_upper == area


@pytest.mark.parametrize("n", [7, 10**4, 10**12, 10**15, 2**53])
def test_exact_law_survival_matches_50_digits(n):
    # (1 - x/A)^n to 50 digits at the floats x and A given. Rounding 1 - x/A
    # to a float first would cost a relative error of about n * 2^-53.
    area = 100.0
    law = exact_burned_area_law(area, n)
    xs = np.array([c * area / n for c in (1e-3, 0.5, 1.0, 5.0)] + [area / 3.0])
    with mpmath.workdps(50):
        want = [float((1 - mpmath.mpf(x) / mpmath.mpf(area)) ** n) for x in xs]
    np.testing.assert_allclose(law.survival(xs), want, rtol=1e-13, atol=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.survival(area) == 0.0 and law.survival(0.0) == 1.0


def test_limit_law_variance_is_d4():
    # Exponential with mean D^2 has variance D^4.
    law = limit_burned_area_law(2.0)
    assert law.mean == pytest.approx(4.0)
    assert law.variance == pytest.approx(16.0)
