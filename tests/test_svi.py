"""Smile parameterization, pricing, the implied-density pipeline, and
its discretization onto qubit registers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgansim.svi import (
    DEFAULT_SMILE_PARAMS,
    DiscreteDistribution,
    SviParams,
    adaptive_simpson,
    bs_price,
    check_butterfly,
    density,
    discretize,
    implied_vol,
    svi_derivatives,
    target_state,
    total_variance,
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


def test_total_variance_closed_form():
    p = DEFAULT_SMILE_PARAMS
    # at k = m the root term collapses to xi
    assert abs(total_variance(p, p.m) - (p.a + p.b * p.xi)) < 1e-15
    assert abs(total_variance(p, 0.0) - 0.04718354500983758) < 1e-15
    flat = SviParams(a=0.04, b=0.0, rho=0.0, m=0.0, xi=0.1)
    assert total_variance(flat, -0.7) == 0.04


def test_total_variance_must_be_positive():
    p = SviParams(a=0.0, b=0.0, rho=0.0, m=0.0, xi=0.1)
    with pytest.raises(ValueError):
        total_variance(p, 0.3)


def test_svi_derivatives_match_finite_differences():
    p = DEFAULT_SMILE_PARAMS
    h = 1e-6
    for k in (-0.6, -0.1, 0.2, 0.45):
        w, wp, wpp = svi_derivatives(p, k)
        assert abs(w - total_variance(p, k)) < 1e-14
        fd1 = (total_variance(p, k + h) - total_variance(p, k - h)) / (2.0 * h)
        fd2 = (
            total_variance(p, k + h) - 2.0 * w + total_variance(p, k - h)
        ) / h**2
        assert abs(wp - fd1) < 1e-7
        assert abs(wpp - fd2) < 1e-4


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


def test_density_integrates_to_one():
    mass = adaptive_simpson(
        lambda k: density(DEFAULT_SMILE_PARAMS, k), -3.0, 3.0, 1e-10
    )
    assert abs(mass - 1.0) < 1e-6


def test_adaptive_simpson_known_integrals():
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) - 2.0) < 1e-10
    assert abs(adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12) - 1.0 / 3.0) < 1e-12
    assert (
        abs(adaptive_simpson(lambda x: math.exp(-x * x), -5.0, 5.0, 1e-12) - math.sqrt(math.pi))
        < 1e-9
    )


def test_discrete_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(1, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        DiscreteDistribution(1, np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        DiscreteDistribution(2, np.array([0.5, 0.5]))


def test_bin_edges_cover_the_interval():
    dist = DiscreteDistribution(2, np.ones(4) / 4.0)
    assert_allclose(dist.bin_edges(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_discretize_is_additive_under_refinement():
    for n in (1, 2, 3):
        coarse = discretize(DEFAULT_SMILE_PARAMS, n)
        fine = discretize(DEFAULT_SMILE_PARAMS, n + 1)
        merged = fine.masses.reshape(-1, 2).sum(axis=1)
        assert np.max(np.abs(merged - coarse.masses)) < 1e-9


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
