"""Smile parameterization, pricing, the implied-density pipeline, and
its discretization onto qubit registers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgansim.svi import (
    DEFAULT_SMILE_PARAMS,
    DiscreteDistribution,
    SviParams,
    _cdf,
    bs_price,
    check_butterfly,
    density,
    discretize,
    implied_vol,
    svi_derivatives,
    target_state,
)


def test_svi_params_validation():
    with pytest.raises(ValueError):
        SviParams(a=-0.1, b=0.1, rho=0.0, m=0.0, xi=0.1)
    with pytest.raises(ValueError):
        SviParams(a=0.1, b=0.1, rho=1.5, m=0.0, xi=0.1)
    with pytest.raises(ValueError):
        SviParams(a=0.1, b=0.1, rho=0.0, m=0.0, xi=0.1, T=0.0)
    with pytest.raises(ValueError):
        SviParams(a=np.inf, b=0.1, rho=0.0, m=0.0, xi=0.1)


@pytest.mark.parametrize("xi", [0.0, -0.0, -0.1])
def test_svi_params_refuse_a_kinked_smile_naming_xi(xi):
    # xi = 0 puts a kink at m whose convexity is a point mass no density
    # expresses.
    with pytest.raises(ValueError, match="^xi = .* is not positive"):
        SviParams(a=0.04, b=0.1, rho=0.0, m=0.0, xi=xi)


def test_discretize_refuses_zero_total_variance_naming_k():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"total variance 0\.0 is not positive at k = -1\.0"):
            discretize(SviParams(a=0.0, b=0.0, rho=0.0, m=0.2, xi=0.1), 3)


def test_total_variance_closed_form():
    p = DEFAULT_SMILE_PARAMS
    # at k = m the root term collapses to xi
    assert abs(svi_derivatives(p, p.m)[0] - (p.a + p.b * p.xi)) < 1e-15
    assert abs(svi_derivatives(p, 0.0)[0] - 0.04718354500983758) < 1e-15
    flat = SviParams(a=0.04, b=0.0, rho=0.0, m=0.0, xi=0.1)
    assert svi_derivatives(flat, -0.7)[0] == 0.04


def test_total_variance_must_be_positive():
    p = SviParams(a=0.0, b=0.0, rho=0.0, m=0.0, xi=0.1)
    with pytest.raises(ValueError, match=r"^total variance 0\.0 is not positive at k = 0\.3$"):
        svi_derivatives(p, 0.3)
    # Over an array, the refusal names the first failing k.
    flat = SviParams(a=0.0, b=1.0, rho=1.0, m=0.0, xi=1e-9)
    with pytest.raises(ValueError, match=r"at k = -0\.5$"):
        svi_derivatives(flat, [0.5, -0.5, -1.0])


def test_svi_derivatives_match_finite_differences():
    p = DEFAULT_SMILE_PARAMS
    h = 1e-6
    ks = np.array([-0.6, -0.1, 0.2, 0.45])
    w, wp, wpp = svi_derivatives(p, ks)
    below, at, above = (svi_derivatives(p, ks + dk)[0] for dk in (-h, 0.0, h))
    for j, k in enumerate(ks):
        assert tuple(svi_derivatives(p, k)) == (w[j], wp[j], wpp[j])
    assert np.array_equal(w, at)
    assert np.max(np.abs(wp - (above - below) / (2.0 * h))) < 1e-7
    assert np.max(np.abs(wpp - (above - 2.0 * w + below) / h**2)) < 1e-4


def test_bs_price_values_and_limits():
    # symmetric at-the-money price 2 Phi(sqrt(v)/2) - 1
    assert abs(bs_price(0.0, 0.04) - 0.07965567455405798) < 1e-15
    assert bs_price(-0.5, 0.0) == 1.0 - math.exp(-0.5)
    assert bs_price(0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        bs_price(0.0, -0.01)


def test_bs_price_increases_with_variance():
    prices = [bs_price(0.2, v) for v in (0.01, 0.05, 0.2, 1.0)]
    assert all(a < b for a, b in zip(prices, prices[1:]))


def test_implied_vol_round_trip():
    # keep |k| <= ~4 stdevs: past that vega underflows and no solver can
    # recover sigma to 1e-8 from a double-precision price
    for sigma in (0.1, 0.2, 0.45, 0.9):
        for k in (-0.3, -0.05, 0.0, 0.3):
            for T in (0.5, 1.0, 2.0):
                price = bs_price(k, sigma * sigma * T)
                assert abs(implied_vol(price, k, T) - sigma) < 1e-8


def test_implied_vol_rejects_unsolvable_prices():
    with pytest.raises(ValueError):
        implied_vol(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        implied_vol(0.1, -0.5, 1.0)  # below intrinsic value
    with pytest.raises(ValueError):
        implied_vol(0.5, 0.0, 0.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: implied_vol(0.1, 0.0, math.nan), "^T = nan is not a finite real number"),
        (lambda: implied_vol(0.1, 0.0, math.inf), "^T = inf is not a finite real number"),
        (lambda: implied_vol(0.1, math.inf, 1.0), "^k = inf is not a finite real number"),
        (lambda: implied_vol(0.1, -math.inf, 1.0), "^k = -inf is not a finite real number"),
        (lambda: implied_vol(0.1, 1e308, 1.0), r"^k = 1e\+308 is too large: e\^k overflows"),
        (lambda: implied_vol(math.nan, 0.0, 1.0), "^price = nan is not a finite real number"),
        (lambda: bs_price(0.0, math.nan), "^v = nan is not a finite real number"),
        (lambda: bs_price(0.0, math.inf), "^v = inf is not a finite real number"),
        (lambda: bs_price(math.nan, 0.04), "^k = nan is not a finite real number"),
        (lambda: bs_price(710.0, 0.04), r"^k = 710\.0 is too large: e\^k overflows"),
    ],
)
def test_pricing_refuses_what_it_cannot_price_naming_the_argument(call, match):
    # Unchecked, an infinite T or k prices at 3.1e-61, a nan v at nan, and
    # k = 1e308 overflows in e^k.
    with pytest.raises(ValueError, match=match):
        call()


def test_density_reduces_to_lognormal_when_b_zero():
    # with b = 0 total variance is flat at a, so the log price is exactly
    # N(-a/2, a); the closed form must collapse to that normal density.
    a = 0.09
    p = SviParams(a=a, b=0.0, rho=0.0, m=0.0, xi=0.05)
    for k in (-0.8, -0.3, 0.0, 0.25, 0.9):
        ref = math.exp(-((k + a / 2.0) ** 2) / (2.0 * a)) / math.sqrt(
            2.0 * math.pi * a
        )
        assert abs(density(p, k) - ref) < 1e-10


def test_cdf_runs_from_zero_to_one():
    cdf, upper = _cdf(DEFAULT_SMILE_PARAMS, np.array([-8.0, 8.0]))
    assert 0.0 <= cdf[0] < 1e-15 and 0.0 <= upper[1] < 1e-15
    assert abs(cdf[1] - 1.0) < 1e-15 and abs(upper[0] - 1.0) < 1e-15


def test_cdf_slope_is_the_density():
    h = 1e-5
    ks = np.linspace(-0.95, 0.95, 39)
    cdf, upper = _cdf(DEFAULT_SMILE_PARAMS, np.concatenate([ks - h, ks + h]))
    assert_allclose(cdf + upper, 1.0, atol=1e-15)
    slope = (cdf[ks.size :] - cdf[: ks.size]) / (2.0 * h)
    assert_allclose(slope, [density(DEFAULT_SMILE_PARAMS, k) for k in ks], atol=1e-8)


def test_discrete_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(1, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        DiscreteDistribution(1, np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        DiscreteDistribution(2, np.array([0.5, 0.5]))


def test_discrete_distribution_freezes_a_copy_of_the_masses():
    masses = np.array([0.25, 0.75])
    dist = DiscreteDistribution(1, masses)
    masses[0] = 1.0  # the caller's array stays writable
    assert dist.masses[0] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        dist.masses[0] = 1.0


@pytest.mark.parametrize(
    "masses", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]]
)
def test_discrete_distribution_refuses_non_finite_masses(masses):
    with pytest.raises(ValueError):
        DiscreteDistribution(1, np.array(masses))


@pytest.mark.parametrize("width", [True, 2.0, 0, 21])
def test_discrete_distribution_refuses_a_bad_width_by_key(width):
    # A float width used to pass and then fail in bin_edges.
    with pytest.raises(ValueError, match="^n_qubits = "):
        DiscreteDistribution(width, np.ones(4) / 4.0)


def test_bin_edges_cover_the_interval():
    dist = DiscreteDistribution(2, np.ones(4) / 4.0)
    assert_allclose(dist.bin_edges(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_discretize_is_additive_under_refinement():
    for n in (1, 2, 3):
        coarse = discretize(DEFAULT_SMILE_PARAMS, n)
        fine = discretize(DEFAULT_SMILE_PARAMS, n + 1)
        merged = fine.masses.reshape(-1, 2).sum(axis=1)
        assert np.max(np.abs(merged - coarse.masses)) < 1e-14


@pytest.mark.parametrize("n", [4, 8])
def test_bin_masses_match_gauss_legendre(n):
    # 40 nodes per bin integrate the smooth density to rounding.
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(-1.0, 1.0, 2**n + 1)
    half = (edges[1] - edges[0]) / 2.0
    ks = (edges[:-1] + half)[:, None] + half * nodes
    raw = half * np.array([[density(DEFAULT_SMILE_PARAMS, k) for k in row] for row in ks]) @ weights
    dist = discretize(DEFAULT_SMILE_PARAMS, n)
    assert np.max(np.abs(dist.masses - raw / raw.sum())) < 1e-14
    assert abs(dist.truncated_mass - (1.0 - raw.sum())) < 1e-14
    # Tail masses keep their relative precision: none is a difference of
    # two numbers near 1.
    assert np.max(np.abs(dist.masses / (raw / raw.sum()) - 1.0)) < 1e-12


def test_truncated_mass_does_not_depend_on_the_register():
    masses = [discretize(DEFAULT_SMILE_PARAMS, n).truncated_mass for n in range(1, 13)]
    assert max(masses) - min(masses) <= 1e-15


def test_discretize_four_bins_frozen():
    dist = discretize(DEFAULT_SMILE_PARAMS, 2)
    assert_allclose(
        dist.masses,
        [0.034638459349494076, 0.45806415021947805, 0.5042193310884664, 0.0030780593425615175],
        atol=1e-9,
    )
    assert abs(dist.truncated_mass - 0.0011014776546064) < 1e-9


def test_discretize_sixteen_bins_is_normalized_and_unimodal():
    dist = discretize(DEFAULT_SMILE_PARAMS, 4)
    masses = dist.masses
    assert abs(masses.sum() - 1.0) < 1e-12
    peak = int(np.argmax(masses))
    assert peak == 8
    assert np.all(np.diff(masses[: peak + 1]) > 0.0)
    assert np.all(np.diff(masses[peak:]) < 0.0)


# g(k) < 0 on about [-0.93, -0.84]: a negative implied density there.
_ARBITRAGE_SMILE = SviParams(a=0.0883, b=0.7892, rho=0.1137, m=-0.2775, xi=0.1678, T=1.0)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_discretize_rejects_butterfly_arbitrage_naming_k(n):
    assert density(_ARBITRAGE_SMILE, -0.884) < 0.0
    with pytest.raises(ValueError, match=r"butterfly arbitrage.* at k = -0\.9300"):
        discretize(_ARBITRAGE_SMILE, n)


def test_check_butterfly_sees_arbitrage_narrower_than_its_grid():
    # g < 0 only within about 200 xi = 2.4e-5 of m, between two grid points:
    # the check must refuse the smile itself, naming a k near m, not leave
    # it to discretize's bin masses.
    narrow = SviParams(a=0.0, b=1e-5, rho=-1.0, m=-2.08e-76, xi=1.19e-7)
    assert density(narrow, -2.0e-7) < 0.0
    with pytest.raises(ValueError, match="butterfly arbitrage") as info:
        check_butterfly(narrow)
    k = float(str(info.value).rsplit("at k = ", 1)[1])
    assert -1e-4 < k < 0.0 and density(narrow, k) < 0.0


def test_readme_smile_has_no_butterfly_arbitrage():
    check_butterfly(DEFAULT_SMILE_PARAMS)
    ks = np.linspace(-1.0, 1.0, 2001)
    assert min(density(DEFAULT_SMILE_PARAMS, float(k)) for k in ks) > 0.0


def test_target_state_amplitudes_are_root_masses():
    dist = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    state = target_state(dist)
    assert_allclose(state.probabilities(), dist.masses, atol=1e-15)
    assert np.all(state.amps.real >= 0.0)
    assert np.all(state.amps.imag == 0.0)


@given(
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=-0.3, max_value=0.3),
)
@settings(max_examples=40, deadline=None)
def test_implied_vol_round_trip_property(sigma, k):
    # |k|/sigma stays small enough that the price is resolvably above
    # intrinsic value in double precision.
    price = bs_price(k, sigma * sigma)
    assert abs(implied_vol(price, k, 1.0) - sigma) < 1e-7


@pytest.mark.parametrize("n", [0, 21, True, 2.0])
def test_discretize_rejects_bad_register_widths_up_front(n):
    with pytest.raises(ValueError, match="^n_qubits = "):
        discretize(DEFAULT_SMILE_PARAMS, n)


_SCALE = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0))


@given(
    a=_SCALE,
    b=_SCALE,
    rho=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0)),
    m=st.floats(min_value=-2.0, max_value=2.0),
    xi=st.floats(min_value=0.0, max_value=4.0),
    T=st.floats(min_value=0.01, max_value=10.0),
    n=st.integers(min_value=1, max_value=8),
)
@example(a=0.04, b=0.1, rho=0.0, m=0.0, xi=0.0, T=1.0, n=4)
@example(a=0.0, b=0.0, rho=0.0, m=0.0, xi=0.1, T=1.0, n=4)
@example(a=0.0, b=0.1, rho=1.0, m=0.0, xi=0.1, T=1.0, n=4)
@example(a=0.04, b=0.1, rho=-1.0, m=0.0, xi=0.1, T=1.0, n=4)
@settings(max_examples=300, deadline=None)
def test_every_smile_gives_finite_masses_or_a_value_error(a, b, rho, m, xi, T, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dist = discretize(SviParams(a=a, b=b, rho=rho, m=m, xi=xi, T=T), n)
        except ValueError:
            return
    assert np.all(np.isfinite(dist.masses))
    assert abs(float(dist.masses.sum()) - 1.0) <= 1e-12
    assert 0.0 <= dist.truncated_mass < 1.0
