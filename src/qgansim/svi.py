"""SVI volatility smiles, Black-Scholes pricing, and discretized
log-price target distributions.

Prices are spot-normalized (S0 = 1, zero rates), strikes live in
log-moneyness k = log(K / S0). The density of log(S_T) implied by an SVI
smile has the closed form g(k) / sqrt(2*pi*w) * exp(-d_minus^2 / 2), and its
CDF is a closed-form digital price. Differences of the CDF at the edges of
2^n uniform bins of [-1, 1], renormalized, give the target distribution for
the adversarial trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .statevec import MAX_QUBITS, StateVector, check_int, check_real


@dataclass(frozen=True)
class SviParams:
    """Raw SVI total-variance parameters (a, b, rho, m, xi) at maturity T."""

    a: float
    b: float
    rho: float
    m: float
    xi: float
    T: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            check_real(f.name, getattr(self, f.name))
        for key in ("a", "b"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"{key} = {getattr(self, key)!r} is negative")
        # At xi = 0 the smile has a kink at m, whose convexity is a point
        # mass that no density expresses.
        if self.xi <= 0.0:
            raise ValueError(f"xi = {self.xi!r} is not positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho = {self.rho!r} is outside [-1, 1]")
        if self.T <= 0.0:
            raise ValueError(f"T = {self.T!r} is not positive")


#: Example smile calibrated to an equity index surface at T = 1.
DEFAULT_SMILE_PARAMS = SviParams(
    a=0.030358, b=0.0503815, rho=-0.1, m=0.3, xi=0.048922, T=1.0
)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability masses over 2^n uniform bins of [-1, 1]."""

    n_qubits: int
    masses: np.ndarray
    truncated_mass: float | None = None

    def __post_init__(self):
        check_int("n_qubits", self.n_qubits, 1, MAX_QUBITS)
        arr = np.asarray(self.masses, dtype=np.float64)
        if arr.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} masses, got shape {arr.shape}"
            )
        # Written so that NaN fails both checks.
        if not np.all(arr >= 0.0):
            raise ValueError("masses must be nonnegative")
        if not abs(float(arr.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"masses sum to {arr.sum()}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)

    def bin_edges(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, 2**self.n_qubits + 1)


def svi_derivatives(params: SviParams, k):
    """(w, w', w'') at k, elementwise over a float or an array, where
    w(k) = a + b * (rho*(k - m) + sqrt((k - m)^2 + xi^2)) is the total
    variance. Raises naming the first k where w is not in (0, inf)."""
    k = np.asarray(k, dtype=np.float64)
    d = k - params.m
    r = np.hypot(d, params.xi)
    with np.errstate(over="ignore", invalid="ignore"):
        w = params.a + params.b * (params.rho * d + r)
    ok = (w > 0.0) & (w < np.inf)  # NaN fails too
    if not np.all(ok):
        i = np.argmin(ok)  # the first k that fails
        what = "not positive" if w.flat[i] <= 0.0 else "not finite"
        raise ValueError(f"total variance {w.flat[i]} is {what} at k = {k.flat[i]}")
    # r >= xi > 0. Within a subnormal distance of m, w'' overflows to inf:
    # the density there is a spike too narrow for a double.
    with np.errstate(over="ignore"):
        wpp = params.b * (params.xi / r) ** 2 / r
    return w, params.b * (params.rho + d / r), wpp


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _strike(k) -> float:
    """e^k, the strike of log-moneyness k; raises naming k unless finite."""
    check_real("k", k)
    try:
        return math.exp(k)
    except OverflowError:
        raise ValueError(f"k = {k!r} is too large: e^k overflows") from None


def bs_price(k: float, v: float) -> float:
    """Spot-normalized call price N(d+) - e^k N(d-) at total variance v.

    d_pm = -k/sqrt(v) +- sqrt(v)/2; at v = 0 the price is the intrinsic
    value (1 - e^k)+.
    """
    strike = _strike(k)
    check_real("v", v)
    if v < 0.0:
        raise ValueError("total variance must be nonnegative")
    if v == 0.0:
        return max(1.0 - strike, 0.0)
    sq = math.sqrt(v)
    d_plus = -k / sq + sq / 2.0
    d_minus = -k / sq - sq / 2.0
    return _norm_cdf(d_plus) - strike * _norm_cdf(d_minus)


def implied_vol(price: float, k: float, T: float) -> float:
    """Volatility sigma solving bs_price(k, sigma^2 T) = price, by bisection.

    Prices must lie strictly between intrinsic value and 1 (the v -> inf
    limit), otherwise no solution exists.
    """
    check_real("price", price)
    check_real("T", T)
    if T <= 0.0:
        raise ValueError("T must be positive")
    intrinsic = max(1.0 - _strike(k), 0.0)
    if not intrinsic < price < 1.0:
        raise ValueError(
            f"price {price} out of the solvable range ({intrinsic}, 1) at k = {k}"
        )
    lo, hi = 0.0, 1.0
    while bs_price(k, hi * hi * T) < price:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("implied volatility out of reasonable range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        diff = bs_price(k, mid * mid * T) - price
        if abs(diff) < 1e-10 and hi - lo < 1e-12:
            return mid
        if diff < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _butterfly_g(k, w, wp, wpp):
    # g(k) from the total variance and its first two derivatives, on
    # scalars or arrays; the implied density is g times a positive factor.
    return (1.0 - k * wp / (2.0 * w)) ** 2 - (wp**2 / 4.0) * (0.25 + 1.0 / w) + wpp / 2.0


#: Log-moneyness points where discretize() requires g(k) >= 0.
_ARBITRAGE_GRID = np.linspace(-1.0, 1.0, 4001)


def check_butterfly(params: SviParams) -> None:
    """Raise if w(k) <= 0 or g(k) < 0 on a fine grid of [-1, 1] or near m.

    As a, b >= 0 and xi > 0, w >= a + b*xi*sqrt(1 - rho^2) > 0 everywhere
    unless a = b = 0, which the grid sees. A negative g is butterfly
    arbitrage: the implied density is negative there (Gatheral & Jacquier,
    arXiv:1204.0646). So is a g that is no number: an infinite term less
    another, where w is too small for a double. Besides the grid, g is
    sampled at m + xi*t for the fixed offsets t, clipped to [-1, 1], so
    arbitrage narrower than the grid's spacing is seen too. The error
    names the first such k, on the grid if any.
    """
    # The smile's one feature narrower than the grid has width xi around m.
    # The offsets t are spaced 0.1 at m and reach |t| = 1490.
    t = np.sinh(np.linspace(-8.0, 8.0, 161))
    with np.errstate(over="ignore", invalid="ignore"):
        # An offset past the float range is +-inf, which the clip puts on an edge.
        near = np.clip(params.m + params.xi * t, -1.0, 1.0)
        k = np.concatenate([_ARBITRAGE_GRID, near])
        g = _butterfly_g(k, *svi_derivatives(params, k))
    if not np.all(g >= 0.0):
        i = np.argmin(g >= 0.0)
        raise ValueError(f"smile has butterfly arbitrage: g(k) = {g[i]:.3g} at k = {k[i]:#.4g}")


def density(params: SviParams, k: float) -> float:
    """Density of log(S_T) implied by the smile, in closed form.

    f(k) = g(k) / sqrt(2*pi*w) * exp(-d_minus^2 / 2) with
    g = (1 - k*w'/(2w))^2 - (w'^2/4)(1/4 + 1/w) + w''/2.
    """
    w, wp, wpp = svi_derivatives(params, k)
    d_minus = -k / np.sqrt(w) - np.sqrt(w) / 2.0
    return _butterfly_g(k, w, wp, wpp) / np.sqrt(2.0 * np.pi * w) * np.exp(-(d_minus**2) / 2.0)


def _cdf(params: SviParams, k):
    """(F, 1 - F) at an array of k, where F(k) = P(log S_T <= k).

    The density is the second strike derivative of the call price
    (Breeden & Litzenberger), so F is a digital price in closed form:
    F = N(-d_minus) + n(d_minus) w' / (2 sqrt(w)). Both tails come from
    erfc, so each keeps full relative precision.
    """
    w, wp, _ = svi_derivatives(params, k)
    d_minus = -k / np.sqrt(w) - np.sqrt(w) / 2.0
    x = np.abs(d_minus) / math.sqrt(2.0)
    # N(-|d_minus|), per k since numpy has no erfc. Past x = 40 exp(-x^2)
    # has long underflowed to 0; the clip keeps x^2 finite.
    near = np.fromiter(map(math.erfc, x.tolist()), np.float64, x.size) / 2.0
    skew = np.exp(-np.minimum(x, 40.0) ** 2) / math.sqrt(2.0 * math.pi) * wp / (2.0 * np.sqrt(w))
    left = d_minus >= 0.0
    return np.where(left, near, 1.0 - near) + skew, np.where(left, 1.0 - near, near) - skew


def discretize(params: SviParams, n_qubits: int) -> DiscreteDistribution:
    """Bin masses of the log-price density over 2^n uniform bins of [-1, 1].

    The smile must be free of butterfly arbitrage on [-1, 1]
    (`check_butterfly`). Each mass is a difference of the closed-form CDF
    F at the 2^n + 1 bin edges below the median and of 1 - F above it, so
    no tail mass is a difference of two numbers near 1. The masses are
    renormalized; the mass outside, F(-1) + 1 - F(1), is `truncated_mass`.
    """
    check_int("n_qubits", n_qubits, 1, MAX_QUBITS)
    check_butterfly(params)
    edges = np.linspace(-1.0, 1.0, 2**n_qubits + 1)
    cdf, upper = _cdf(params, edges)
    raw = np.where(cdf[1:] <= 0.5, np.diff(cdf), -np.diff(upper))
    if not np.all(raw >= 0.0):
        i = np.argmin(raw >= 0.0)
        raise ValueError(f"negative bin mass {raw[i]:.3g} at k = {edges[i]:.4f}")
    covered = float(raw.sum())
    if covered <= 0.0:
        raise ValueError("no probability mass inside [-1, 1]")
    return DiscreteDistribution(
        n_qubits=n_qubits,
        masses=raw / covered,
        truncated_mass=max(float(cdf[0] + upper[-1]), 0.0),
    )


def target_state(dist: DiscreteDistribution) -> StateVector:
    """Wave function with amplitudes sqrt(p_i), all real nonnegative."""
    return StateVector(dist.n_qubits, np.sqrt(dist.masses).astype(np.complex128))
