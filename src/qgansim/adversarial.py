"""Adversarial objective, gradients, and the alternating training loop.

The score S(theta, w) is the probability gap between labelling the
target Real and labelling the generated state Real. The discriminator
ascends it, the generator descends it; at the (unique pure-state)
equilibrium the generated state equals the target and the score is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminator import (
    DiscriminatorConfig,
    DiscriminatorWeights,
    FastDiscriminator,
    threshold_activation,
)
from .generator import GeneratorParams, generate_amps, num_params, param_kinds
from .metrics import fidelity, kl_divergence, trace_distance_pure
from .statevec import MAX_QUBITS, StateVector, check_int, check_real
from .svi import DiscreteDistribution, target_state

# Shift-rule coefficients for controlled rotations, whose score is a
# trigonometric polynomial in the angle with frequencies 1/2 and 1.
_CRY_SHIFT_PLUS = (np.sqrt(2.0) + 1.0) / (4.0 * np.sqrt(2.0))
_CRY_SHIFT_MINUS = (np.sqrt(2.0) - 1.0) / (4.0 * np.sqrt(2.0))

# Initial draws train() makes before it stops waiting for a sign-aligned
# one; at n <= 7 a run of this many misses has probability below 1e-10.
_MAX_INIT_DRAWS = 10_000

# Most candidate angle sets train() tests at once while it looks for the
# first sign-aligned one; the cap keeps searches of hundreds of draws
# (n = 6 and 7) from growing the batch, and peak memory with it.
_INIT_BATCH = 64

# Bernoulli labelling rounds the sampled estimator draws per block.
_ROUND_BLOCK = 2**14


@dataclass(frozen=True)
class ScoreValue:
    """Difference of two labelling probabilities, so always in [-1, 1]."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value) or abs(self.value) > 1.0 + 1e-9:
            raise ValueError(f"score {self.value} outside [-1, 1]")

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the alternating gradient game (shots = 0: exact)."""

    n_qubits: int = 4
    epochs: int = 300
    n_d: int = 9
    n_g: int = 1
    lr_d: float = 0.05
    lr_g: float = 0.05
    shots: int = 0
    seed: int = 0
    fd_step: float = 1e-5

    def __post_init__(self):
        check_int("n_qubits", self.n_qubits, 1, MAX_QUBITS)
        for key in ("epochs", "n_d", "n_g"):
            check_int(key, getattr(self, key), 1)
        check_int("shots", self.shots, 0)
        check_int("seed", self.seed, 0)
        for key in ("lr_d", "lr_g", "fd_step"):
            value = getattr(self, key)
            check_real(key, value)
            if value <= 0.0:
                raise ValueError(f"{key} = {value!r} is not positive")


@dataclass(frozen=True)
class TrainTrace:
    """One row per epoch, recorded after that epoch's updates."""

    scores: np.ndarray
    fidelities: np.ndarray
    kls: np.ndarray
    trace_distances: np.ndarray
    thetas: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        e = self.scores.shape[0]
        if e < 1:
            raise ValueError("trace must contain at least one epoch")
        for name in ("fidelities", "kls", "trace_distances", "thetas", "ws"):
            if getattr(self, name).shape[0] != e:
                raise ValueError(f"{name} disagrees with scores on epoch count")

    @property
    def num_epochs(self) -> int:
        return self.scores.shape[0]


def _gen_amps(n: int, thetas: np.ndarray) -> np.ndarray:
    return generate_amps(n, thetas[None, :])[0]


def _check_instance(theta, w, target, cfg):
    n = target.num_qubits
    if theta.thetas.size != num_params(n):
        raise ValueError(
            f"{theta.thetas.size} angles do not fit the {n}-qubit ansatz "
            f"({num_params(n)} expected)"
        )
    if w.w.size != n:
        raise ValueError(f"need {n} weights, got {w.w.size}")
    return n


def _exact_score(fast, wvec, target_amps, gen_amps) -> float:
    return fast.p_real(wvec, target_amps) - fast.p_real(wvec, gen_amps)


def _exact_scores(p_t, p_g):
    """Score estimator without sampling: p_t - p_g, elementwise."""
    return np.subtract(p_t, p_g)


def _sampled_scores(rng, shots):
    """Score estimator from `shots` labelling rounds per probability.

    Pairs are sampled in order, the target's rounds before the generated
    state's, as if each took one rng.random(shots) draw. The rounds are
    drawn in blocks of about _ROUND_BLOCK values, which consume the
    generator exactly as those single draws do.
    """
    rows = max(1, _ROUND_BLOCK // shots)
    cols = min(shots, _ROUND_BLOCK)

    def estimate(p_t, p_g):
        p_t, p_g = np.broadcast_arrays(p_t, p_g)
        # Interleaved target, generated, target, ... one row per probability.
        probs = np.stack([p_t.ravel(), p_g.ravel()], axis=-1).reshape(-1, 1)
        hits = np.zeros(probs.shape[0], dtype=np.int64)
        for row in range(0, probs.shape[0], rows):
            block = probs[row : row + rows]
            # Below _ROUND_BLOCK shots one pass draws every round of a row;
            # above it a single row is drawn in column chunks.
            for col in range(0, shots, cols):
                draws = rng.random((block.shape[0], min(cols, shots - col)))
                hits[row : row + rows] += np.count_nonzero(draws < block, axis=-1)
        freq = hits / shots
        return np.reshape(freq[0::2] - freq[1::2], p_t.shape)

    return estimate


def score(
    theta: GeneratorParams,
    w: DiscriminatorWeights,
    target: StateVector,
    cfg: DiscriminatorConfig,
) -> ScoreValue:
    """S = P(label target Real) - P(label generated Real), exact."""
    n = _check_instance(theta, w, target, cfg)
    fast = FastDiscriminator(cfg, n)
    return ScoreValue(_exact_score(fast, w.w, target.amps, _gen_amps(n, theta.thetas)))


def score_sampled(
    theta: GeneratorParams,
    w: DiscriminatorWeights,
    target: StateVector,
    cfg: DiscriminatorConfig,
    shots: int,
    seed: int,
) -> ScoreValue:
    """Monte Carlo estimate of the score from `shots` labelling rounds each."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = _check_instance(theta, w, target, cfg)
    fast = FastDiscriminator(cfg, n)
    p_t = fast.p_real(w.w, target.amps)
    p_g = fast.p_real(w.w, _gen_amps(n, theta.thetas))
    estimate = _sampled_scores(np.random.default_rng(seed), shots)
    return ScoreValue(float(estimate(p_t, p_g)))


def _shift_rule(n: int) -> tuple:
    """Probe offsets (P, d) and weights (d, P) of the per-gate shift rules.

    dS/dtheta = weights @ S(theta + offsets). Plain RY angles use the
    two-point rule at +-pi/2; CRY angles carry the extra half frequency
    and use the four-point rule at +-pi/2 and +-3 pi/2. Probes are ordered
    by parameter, then as listed.
    """
    half = np.pi / 2.0
    stencils = {
        "ry": ((half, 0.5), (-half, -0.5)),
        "cry": (
            (half, _CRY_SHIFT_PLUS),
            (-half, -_CRY_SHIFT_PLUS),
            (3 * half, -_CRY_SHIFT_MINUS),
            (-3 * half, _CRY_SHIFT_MINUS),
        ),
    }
    kinds = param_kinds(n)
    rows = [
        (i, shift, coef)
        for i, kind in enumerate(kinds)
        for shift, coef in stencils[kind]
    ]
    offsets = np.zeros((len(rows), len(kinds)))
    weights = np.zeros((len(kinds), len(rows)))
    for probe, (i, shift, coef) in enumerate(rows):
        offsets[probe, i] = shift
        weights[i, probe] = coef
    return offsets, weights


def _fd_grad_w(fast, wvec, t_probs, g_probs, estimate, steps) -> np.ndarray:
    # Central differences; the probes w + h e_0, w - h e_0, w + h e_1, ...
    # (`steps` holds these offsets, so steps[0, 0] = h) are labelled as
    # one batch and estimated in that order.
    r = fast.label_probs(wvec + steps)[0]
    s = estimate(r @ t_probs, r @ g_probs)
    return (s[0::2] - s[1::2]) / (2.0 * steps[0, 0])


def _grad_theta_raw(n, thetas, r, t_probs, estimate, rule) -> np.ndarray:
    # One batch of shifted generators, all labelled by the same r(w).
    offsets, weights = rule
    probes = generate_amps(n, thetas + offsets)
    return weights @ estimate(t_probs @ r, probes**2 @ r)


def grad_theta(
    theta: GeneratorParams,
    w: DiscriminatorWeights,
    target: StateVector,
    cfg: DiscriminatorConfig,
) -> np.ndarray:
    """dS/dtheta by the shift rule, exact per gate kind.

    Plain RY angles use the two-point rule at +-pi/2; CRY angles carry
    the extra half frequency and use the four-point rule.
    """
    n = _check_instance(theta, w, target, cfg)
    r = FastDiscriminator(cfg, n).label_probs(w.w)[0]
    t_probs = np.abs(target.amps) ** 2
    return _grad_theta_raw(n, theta.thetas, r, t_probs, _exact_scores, _shift_rule(n))


def grad_w(
    theta: GeneratorParams,
    w: DiscriminatorWeights,
    target: StateVector,
    cfg: DiscriminatorConfig,
    fd_step: float = 1e-5,
) -> np.ndarray:
    """dS/dw = (|target|^2 - |generated|^2) @ dr/dw, in closed form.

    The label probabilities r(w) are a trigonometric polynomial in the
    weights (see FastDiscriminator), so the exact gradient needs no
    finite differences. `fd_step` is still validated for callers that
    pass it; only sampled training takes finite differences.
    """
    if not (np.isfinite(fd_step) and fd_step > 0.0):
        raise ValueError("fd_step must be positive and finite")
    n = _check_instance(theta, w, target, cfg)
    jac = FastDiscriminator(cfg, n).label_probs(w.w)[1]
    gen_probs = _gen_amps(n, theta.thetas) ** 2
    return (np.abs(target.amps) ** 2 - gen_probs) @ jac


def minmax_gap(
    theta: GeneratorParams,
    target: StateVector,
    cfg: DiscriminatorConfig,
    w_grid: np.ndarray,
) -> float:
    """Best score any discriminator on the grid achieves against theta.

    Bounded above by half the trace distance between the target and the
    generated state, whatever the grid.
    """
    grid = np.asarray(w_grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[1] != target.num_qubits:
        raise ValueError(f"w_grid must have shape (k, {target.num_qubits})")
    n = target.num_qubits
    r = FastDiscriminator(cfg, n).label_probs(grid)[0]
    delta = np.abs(target.amps) ** 2 - _gen_amps(n, theta.thetas) ** 2
    return float(np.max(r @ delta))


def training_discriminator(n: int) -> DiscriminatorConfig:
    """Discriminator configuration train() falls back to.

    Any activation that sends a zero inner product to an exactly
    representable register value (the sigmoid midpoint does, for every
    register size) labels the all-zero-bits basis state Real with
    probability 1 under every weight vector; once the generator
    overloads that state the game has no ascent direction left and
    freezes at w = 0. The mid-cell threshold activation dodges the
    representable values, so the label probability crosses one half at
    t = 0 with nonzero slope and the weight gradient stays alive.
    """
    m2 = DiscriminatorConfig.for_width(n).m2 + 1
    return DiscriminatorConfig(
        m1=2, m2=m2, activation=threshold_activation(2, 2.0**m2)
    )


def _initial_thetas(n: int, rng: np.random.Generator) -> np.ndarray:
    """First sign-aligned uniform angle draw, consuming rng draw by draw.

    Candidates are the successive rng.uniform(0, pi, num_params(n)) draws.
    They are tested in batches of at most _INIT_BATCH; once a batch holds
    an aligned one, rng is rewound to the batch start and redraws up to
    that candidate, so it ends where a one-at-a-time search would. After
    _MAX_INIT_DRAWS misses the last draw is kept with its mixing-layer
    angles set to 0.
    """
    size = num_params(n)
    drawn = 0
    batch = 1
    while True:
        state = rng.bit_generator.state
        rows = min(batch, _MAX_INIT_DRAWS - drawn)
        candidates = rng.uniform(0.0, np.pi, (rows, size))
        aligned = ~(generate_amps(n, candidates) < -1e-12).any(axis=1)
        if aligned.any():
            first = int(np.argmax(aligned))
            rng.bit_generator.state = state
            rng.uniform(0.0, np.pi, (first + 1, size))
            return candidates[first]
        drawn += rows
        if drawn == _MAX_INIT_DRAWS:
            thetas = candidates[-1]
            thetas[2 * n - 1 :] = 0.0
            return thetas
        batch = min(2 * batch, _INIT_BATCH)


def train(
    cfg: TrainConfig,
    target: DiscreteDistribution,
    disc: DiscriminatorConfig | None = None,
    theta_init: np.ndarray | None = None,
) -> TrainTrace:
    """Alternating SGD: n_d ascent steps on w, then n_g descent on theta.

    Weights are clipped back into [-1, 1]^n after every ascent step.
    Random draws (initialization, restarts, and labelling rounds when
    shots > 0) come from one seeded generator in a fixed order, so equal
    seeds give bitwise-equal traces.

    Angles start at the first of successive uniform draws from [0, pi]
    whose generated amplitudes are all nonnegative like the target's.
    The label probability is blind to amplitude signs (the discriminator
    never mixes data basis states), so a sign mismatch could never be
    trained away; starting aligned keeps the fidelity
    target reachable. At n = 2 the first draw always qualifies; with the
    mixing layer present the share of qualifying draws falls from about
    one in three at n = 3 to about one in 400 at n = 7, and to none seen
    at n = 8. After _MAX_INIT_DRAWS draws the last one is kept with its
    mixing-layer angles set to 0: the remaining RY/CRY cascade on angles
    in [0, pi] has only nonnegative amplitudes.

    When an ascent phase ends without a separating witness (score not
    above zero), the next phase starts from a fresh uniform weight draw
    instead of the dead chain. Local ascent likes to retreat to w = 0,
    where every basis state is labelled Real with probability 1/2 and
    both gradients vanish identically; a restarted chain escapes that
    trap whenever any separating weights exist. Once the distributions
    match, no weights separate them, so restarts fire every epoch and
    change nothing.

    Scores inside the game come from one estimator: exact, or with
    shots > 0 the mean of `shots` Bernoulli labelling rounds per
    probability. The exact weight gradient is analytic; sampled scores
    have no derivative, so the sampled weight gradient takes central
    differences of step fd_step.
    """
    n = cfg.n_qubits
    if target.n_qubits != n:
        raise ValueError(
            f"target has {target.n_qubits} qubits, config says {n}"
        )
    if disc is None:
        disc = training_discriminator(n)
    fast = FastDiscriminator(disc, n)
    rng = np.random.default_rng(cfg.seed)
    thetas = _initial_thetas(n, rng)
    if theta_init is not None:
        thetas = np.array(theta_init, dtype=float)
        if thetas.size != num_params(n):
            raise ValueError(
                f"theta_init has {thetas.size} angles, ansatz takes {num_params(n)}"
            )
    wvec = rng.uniform(-1.0, 1.0, n)

    target_sv = target_state(target)
    t_amps = target_sv.amps
    t_probs = np.abs(t_amps) ** 2
    estimate = _exact_scores if cfg.shots == 0 else _sampled_scores(rng, cfg.shots)
    rule = _shift_rule(n)
    steps = np.kron(np.eye(n), [[cfg.fd_step], [-cfg.fd_step]])

    e = cfg.epochs
    scores = np.empty(e)
    fids = np.empty(e)
    kls = np.empty(e)
    tds = np.empty(e)
    theta_rows = np.empty((e, thetas.size))
    w_rows = np.empty((e, n))

    gen = _gen_amps(n, thetas)
    needs_restart = False
    for epoch in range(e):
        gen_probs = gen**2
        if needs_restart:
            wvec = rng.uniform(-1.0, 1.0, n)
        for _ in range(cfg.n_d):
            if cfg.shots == 0:
                gw = (t_probs - gen_probs) @ fast.label_probs(wvec)[1]
            else:
                gw = _fd_grad_w(fast, wvec, t_probs, gen_probs, estimate, steps)
            wvec = np.clip(wvec + cfg.lr_d * gw, -1.0, 1.0)
        r = fast.label_probs(wvec)[0]
        needs_restart = estimate(t_probs @ r, gen_probs @ r) <= 0.0
        for _ in range(cfg.n_g):
            thetas = thetas - cfg.lr_g * _grad_theta_raw(
                n, thetas, r, t_probs, estimate, rule
            )

        gen = _gen_amps(n, thetas)
        gen_sv = StateVector(n, gen)
        scores[epoch] = _exact_score(fast, wvec, t_amps, gen)
        fids[epoch] = fidelity(target_sv, gen_sv)
        kls[epoch] = kl_divergence(target, gen_sv)
        tds[epoch] = trace_distance_pure(target_sv, gen_sv)
        theta_rows[epoch] = thetas
        w_rows[epoch] = wvec

    return TrainTrace(scores, fids, kls, tds, theta_rows, w_rows)
