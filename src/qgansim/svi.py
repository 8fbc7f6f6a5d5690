"""SVI volatility smiles, Black-Scholes pricing, and discretized
log-price target distributions.

Prices are spot-normalized (S0 = 1, zero rates), strikes live in
log-moneyness k = log(K / S0). The density of log(S_T) implied by an SVI
smile has the closed form g(k) / sqrt(2*pi*w) * exp(-d_minus^2 / 2); it is
integrated over 2^n uniform bins of [-1, 1] and renormalized to produce a
target distribution for the adversarial trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import StateVector

#: Example smile calibrated to an equity index surface at T = 1.
DEFAULT_SMILE_PARAMS = None  # assigned below once SviParams exists


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
        if self.a < 0.0 or self.b < 0.0 or self.xi < 0.0:
            raise ValueError("a, b, xi must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [-1, 1]")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        for name in ("a", "b", "rho", "m", "xi", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


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
        arr = np.asarray(self.masses, dtype=np.float64)
        if arr.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} masses, got shape {arr.shape}"
            )
        if np.any(arr < 0.0):
            raise ValueError("masses must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError(f"masses sum to {arr.sum()}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)

    def bin_edges(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, 2**self.n_qubits + 1)


def total_variance(params: SviParams, k: float) -> float:
    """w(k) = a + b * (rho*(k - m) + sqrt((k - m)^2 + xi^2)); must be > 0."""
    d = k - params.m
    w = params.a + params.b * (params.rho * d + math.hypot(d, params.xi))
    if w <= 0.0:
        raise ValueError(f"total variance {w} is not positive at k = {k}")
    return w


def svi_derivatives(params: SviParams, k: float):
    """(w, w', w'') of the total variance at k, in closed form."""
    d = k - params.m
    r = math.hypot(d, params.xi)
    w = params.a + params.b * (params.rho * d + r)
    if r == 0.0:
        raise ValueError("derivatives undefined at k = m when xi = 0")
    wp = params.b * (params.rho + d / r)
    wpp = params.b * params.xi**2 / r**3
    return w, wp, wpp


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(k: float, v: float) -> float:
    """Spot-normalized call price N(d+) - e^k N(d-) at total variance v.

    d_pm = -k/sqrt(v) +- sqrt(v)/2; at v = 0 the price is the intrinsic
    value (1 - e^k)+.
    """
    if v < 0.0:
        raise ValueError("total variance must be nonnegative")
    if v == 0.0:
        return max(1.0 - math.exp(k), 0.0)
    sq = math.sqrt(v)
    d_plus = -k / sq + sq / 2.0
    d_minus = -k / sq - sq / 2.0
    return _norm_cdf(d_plus) - math.exp(k) * _norm_cdf(d_minus)


def implied_vol(price: float, k: float, T: float) -> float:
    """Volatility sigma solving bs_price(k, sigma^2 T) = price, by bisection.

    Prices must lie strictly between intrinsic value and 1 (the v -> inf
    limit), otherwise no solution exists.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    intrinsic = max(1.0 - math.exp(k), 0.0)
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
    """Raise if g(k) < 0 somewhere on a fine grid of [-1, 1].

    A negative g is butterfly arbitrage: the implied density is negative
    there (Gatheral & Jacquier, arXiv:1204.0646). The error names the
    first failing k.
    """
    k = _ARBITRAGE_GRID
    d = k - params.m
    r = np.hypot(d, params.xi)
    w = params.a + params.b * (params.rho * d + r)
    # r = 0 (xi = 0 at k = m) or w = 0 give NaN, which density() rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        g = _butterfly_g(k, w, params.b * (params.rho + d / r), params.b * params.xi**2 / r**3)
    bad = np.flatnonzero(g < 0.0)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"smile has butterfly arbitrage: g(k) = {g[i]:.3g} < 0 at k = {k[i]:.4f}"
        )


def density(params: SviParams, k: float) -> float:
    """Density of log(S_T) implied by the smile, in closed form.

    f(k) = g(k) / sqrt(2*pi*w) * exp(-d_minus^2 / 2) with
    g = (1 - k*w'/(2w))^2 - (w'^2/4)(1/4 + 1/w) + w''/2.
    """
    w, wp, wpp = svi_derivatives(params, k)
    if w <= 0.0:
        raise ValueError(f"total variance {w} is not positive at k = {k}")
    g = _butterfly_g(k, w, wp, wpp)
    d_minus = -k / math.sqrt(w) - math.sqrt(w) / 2.0
    return g / math.sqrt(2.0 * math.pi * w) * math.exp(-(d_minus**2) / 2.0)


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature to absolute tolerance `tol`."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth - 1) + recurse(
            x1, x2, f1, frm, f2, right, eps / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


def discretize(params: SviParams, n_qubits: int) -> DiscreteDistribution:
    """Bin masses of the log-price density over 2^n uniform bins of [-1, 1].

    The smile must be free of butterfly arbitrage on [-1, 1]
    (`check_butterfly`). Each bin is integrated to absolute tolerance 1e-10
    and the vector is renormalized; the mass lost to truncation outside
    [-1, 1] is reported on the result.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    check_butterfly(params)
    edges = np.linspace(-1.0, 1.0, 2**n_qubits + 1)
    f = lambda k: density(params, k)
    raw = np.array(
        [adaptive_simpson(f, edges[i], edges[i + 1], 1e-10) for i in range(2**n_qubits)]
    )
    if np.any(raw < 0.0):
        raise ValueError("density produced negative bin mass")
    covered = float(raw.sum())
    if covered <= 0.0:
        raise ValueError("no probability mass inside [-1, 1]")
    return DiscreteDistribution(
        n_qubits=n_qubits,
        masses=raw / covered,
        truncated_mass=max(1.0 - covered, 0.0),
    )


def target_state(dist: DiscreteDistribution) -> StateVector:
    """Wave function with amplitudes sqrt(p_i), all real nonnegative."""
    return StateVector(dist.n_qubits, np.sqrt(dist.masses).astype(np.complex128))
