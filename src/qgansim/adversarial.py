"""Adversarial objective, gradients, and the alternating training loop.

The score S(theta, w) is the probability gap between labelling the
target Real and labelling the generated state Real. The discriminator
ascends it, the generator descends it; at the (unique pure-state)
equilibrium the generated state equals the target and the score is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminator import DiscriminatorConfig, DiscriminatorWeights, FastDiscriminator
from .generator import GeneratorParams, generate_amps, num_params, param_kinds
from .metrics import _trace_distance, fidelity, kl_divergence
from .qneuron import min_signed_ancillas
from .statevec import MAX_QUBITS, StateVector, check_int, check_real
from .svi import DiscreteDistribution, target_state

# Shift-rule coefficients for controlled rotations, whose score is a
# trigonometric polynomial in the angle with frequencies 1/2 and 1.
_CRY_SHIFT_PLUS = (np.sqrt(2.0) + 1.0) / (4.0 * np.sqrt(2.0))
_CRY_SHIFT_MINUS = (np.sqrt(2.0) - 1.0) / (4.0 * np.sqrt(2.0))

# Largest labelling round count rng.binomial accepts (its n is an int64).
_MAX_SHOTS = 2**63 - 1

# Memory the per-epoch trace arrays of one train() call may take.
_TRACE_BUDGET_BYTES = 2**30

# Modelled run cost in integer nanoseconds (no float overflow): a fixed
# cost per ascent or descent step, plus one per probe entry (each ascent
# step labels 2n weight probes, each descent step generates one state per
# shift-rule probe, 2^n entries each). Fitted to train() timings on a
# 2-core x86 machine, numpy 2.4 on one BLAS thread: a step took 18-20 us
# at n = 1 and 2 (2e4 steps in 0.37-0.41 s); a contracted ascent entry
# 12-19 ns at n = 8 to 12, a descent entry 21-43 ns. An exact ascent step
# reads one difference column instead of the 2n probes, and is still
# modelled as one that labels them: re-measured, it took 11 us at n = 4,
# 66 us at n = 8 and 1.9 ms at n = 12. Exact runs at n = 4, 8 and 12, with
# (n_d, n_g) = (9, 1), (1, 1), (1, 9) and (40, 1), took 0.48-1.64x their
# model, the least an ascent-heavy n = 4 run, the most n_d = n_g = 1 at
# n = 4, where the per-epoch metrics, which the model leaves out, weigh
# most. A run modelled past half an hour is refused; the defaults pass up
# to n = 18.
_STEP_NS = 25_000
_ASCENT_ENTRY_NS = 20
_DESCENT_ENTRY_NS = 50
_RUN_BUDGET_NS = 1800 * 10**9

# Bounds under which no training step overflows: a weight gradient is at
# most 1 / fd_step, and a descent step moves an (unwrapped) angle by at
# most lr_g, as its shift-rule weights sum to 1 in magnitude.
_MIN_FD_STEP = 2.0**-52
_MAX_RATE = 1e6


def _check_fd_step(fd_step) -> None:
    # Past 1 the central difference can weigh a frequency by zero or less;
    # below 2^-52 a probe beside w = +-1 rounds back onto w.
    check_real("fd_step", fd_step)
    if not _MIN_FD_STEP <= fd_step <= 1.0:
        raise ValueError(f"fd_step = {fd_step!r} is outside [2^-52, 1] (see grad_w)")


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

    fd_step = 0.5  # the step of every weight gradient (see grad_w); not a field

    n_qubits: int = 4
    epochs: int = 300
    n_d: int = 9
    n_g: int = 1
    lr_d: float = 0.05
    lr_g: float = 0.05
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        check_int("n_qubits", self.n_qubits, 1, MAX_QUBITS)
        for key in ("epochs", "n_d", "n_g"):
            check_int(key, getattr(self, key), 1)
        check_int("shots", self.shots, 0, _MAX_SHOTS)
        check_int("seed", self.seed, 0)
        for key in ("lr_d", "lr_g"):
            value = getattr(self, key)
            check_real(key, value)
            if not 0.0 < value <= _MAX_RATE:
                raise ValueError(f"{key} = {value!r} is outside (0, {_MAX_RATE:g}]")
        n = self.n_qubits
        trace_bytes = self.epochs * (num_params(n) + n + 4) * 8
        if trace_bytes > _TRACE_BUDGET_BYTES:
            raise ValueError(
                f"epochs = {self.epochs!r} needs {trace_bytes} bytes of trace at "
                f"n_qubits = {n}, over the {_TRACE_BUDGET_BYTES}-byte budget"
            )
        ascent = self.n_d * (_STEP_NS + _ASCENT_ENTRY_NS * 2 * n * 2**n)
        descent = self.n_g * (_STEP_NS + _DESCENT_ENTRY_NS * len(_shift_rule(n)[0]) * 2**n)
        cost = self.epochs * (ascent + descent)
        if cost > _RUN_BUDGET_NS:
            # The larger step term, or epochs if they outnumber its steps.
            steps = "n_d" if ascent >= descent else "n_g"
            key = "epochs" if self.epochs >= getattr(self, steps) else steps
            raise ValueError(
                f"{key} = {getattr(self, key)!r} makes a run of about {cost // 10**9} s "
                f"at n_qubits = {n}, over the {_RUN_BUDGET_NS // 10**9}-s budget"
            )


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


def _state_and_probes(n: int, thetas: np.ndarray, batch: np.ndarray) -> tuple:
    # The state at thetas, then its shift-rule probes, from one generator call;
    # `batch` is the offsets table under a zero row, which adds thetas exactly.
    # Rows do not depend on the batch, so each has the bits of its own call.
    # Row 0 is also copied out, so that dropping the batch frees it.
    states = generate_amps(n, thetas + batch)
    return states[0].copy(), states


def _closeness(target, target_sv, gen) -> tuple:
    # Fidelity, KL divergence and trace distance of the generated amplitudes.
    # Its StateVector is freed on return, before the next generator call.
    gen_sv = StateVector(target.n_qubits, gen)
    fid = fidelity(target_sv, gen_sv)
    return fid, kl_divergence(target, gen_sv), _trace_distance(fid)


def _check_instance(theta, w, target):
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


def _exact_scores(pairs: np.ndarray) -> np.ndarray:
    """Score estimator without sampling: p_t - p_g of each (..., 2) pair."""
    return pairs[..., 0] - pairs[..., 1]


def _sampled_scores(rng, shots):
    """Score estimator from `shots` labelling rounds per probability.

    It takes a (..., 2) array of (p_t, p_g) pairs. The Real count of
    `shots` Bernoulli(p) rounds is Binomial(shots, p), so each count is
    one binomial draw. Pairs are drawn in order, the target's count before
    the generated state's.
    """

    def estimate(pairs):
        # Rounding can leave a probability just outside [0, 1], which
        # rng.binomial rejects.
        freq = rng.binomial(shots, pairs.clip(0.0, 1.0)) / shots
        return freq[..., 0] - freq[..., 1]

    return estimate


def _pairs(p_t: float, p_g: np.ndarray) -> np.ndarray:
    # One (target, generated) pair per generated P(Real), all against p_t.
    pairs = np.empty((p_g.size, 2))
    pairs[:, 0] = p_t
    pairs[:, 1] = p_g
    return pairs


def score(
    theta: GeneratorParams,
    w: DiscriminatorWeights,
    target: StateVector,
    cfg: DiscriminatorConfig,
) -> ScoreValue:
    """S = P(label target Real) - P(label generated Real), exact."""
    n = _check_instance(theta, w, target)
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
    check_int("shots", shots, 1, _MAX_SHOTS)
    check_int("seed", seed, 0)
    n = _check_instance(theta, w, target)
    fast = FastDiscriminator(cfg, n)
    p_t = fast.p_real(w.w, target.amps)
    p_g = fast.p_real(w.w, _gen_amps(n, theta.thetas))
    estimate = _sampled_scores(np.random.default_rng(seed), shots)
    return ScoreValue(float(estimate(np.array([p_t, p_g]))))


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


def _difference_rows(fast, delta, scale) -> np.ndarray:
    # Rows bit_j * delta * scale, for `weight_differences` (row 0, delta itself, dropped).
    return fast.probe_weighting((delta * scale,))[1:]


def _grad_w_raw(fast, wvec, weighting, estimate, step) -> np.ndarray:
    # Sampled ascent. Probes by weight, + before -, each a (target, generated)
    # pair: the weighting folds the target's and the generated state's probabilities.
    s = estimate(fast.weight_probes(wvec, step, weighting))
    return (s[:, 0] - s[:, 1]) / (2.0 * step)


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
    n = _check_instance(theta, w, target)
    r = FastDiscriminator(cfg, n).label_probs(w.w)
    p_t = np.abs(target.amps) ** 2 @ r
    offsets, weights = _shift_rule(n)
    probes = generate_amps(n, theta.thetas + offsets)
    # Every shift-rule probe's amplitudes, one row each, labelled by r(w).
    return weights @ _exact_scores(_pairs(p_t, probes**2 @ r))


def grad_w(
    theta: GeneratorParams,
    w: DiscriminatorWeights,
    target: StateVector,
    cfg: DiscriminatorConfig,
    fd_step: float = TrainConfig.fd_step,
) -> np.ndarray:
    """[S(w + s e_j) - S(w - s e_j)] / (2 s), s = fd_step, as train() ascends.

    Along w_j the score has the frequencies pi k / N, 0 < k < N = 2^m2; this
    is its exact slope averaged over [w_j - s, w_j + s], which weighs each
    by sinc(pi k s / N): positive for s in (0, 1], at least 2/pi at s = 1/2.
    It is read as exact ascent reads it, from one sine-weighted series column
    against Delta = p_t - p_g folded with the bit matrix
    (FastDiscriminator.weight_differences), not from 2n probe pairs; sampled
    ascent keeps the pairs (weight_probes) and their draw order.
    """
    _check_fd_step(fd_step)
    n = _check_instance(theta, w, target)
    fast = FastDiscriminator(cfg, n)
    delta = np.abs(target.amps) ** 2 - _gen_amps(n, theta.thetas) ** 2
    rows = _difference_rows(fast, delta, 1.0 / (2.0 * fd_step))
    return fast.weight_differences(w.w, fd_step, rows)


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
    if not np.all(np.isfinite(grid)):
        raise ValueError("w_grid must hold finite weights")
    n = target.num_qubits
    r = FastDiscriminator(cfg, n).label_probs(grid)
    delta = np.abs(target.amps) ** 2 - _gen_amps(n, theta.thetas) ** 2
    return float(np.max(r @ delta))


def training_discriminator(n: int) -> DiscriminatorConfig:
    """Discriminator configuration train() falls back to.

    The all-zero-bits state has t = 0 under every w. An activation whose
    sigma(0) is a register value k / 2^m1 (the sigmoid's 1/2, at any m1) is
    estimated exactly there, so every w labels that state Real; once the
    generator overloads it no ascent direction is left, and train() refuses
    such an activation. The mid-cell threshold activation, the config's
    default, dodges the register values: the label probability crosses 1/2
    at t = 0 with nonzero slope.
    """
    return DiscriminatorConfig(m1=2, m2=min_signed_ancillas(n) + 1)


def check_trainable(disc: DiscriminatorConfig, n: int) -> None:
    """Raise if sigma(0) * 2^m1 is an integer (see training_discriminator)."""
    zero = float(disc.check_width(n)[0])  # register outcome 0 decodes to t = 0
    if (zero * 2**disc.m1).is_integer():
        name = "threshold" if disc.activation is None else disc.activation.name
        raise ValueError(f"activation = {name} maps 0 to the register value "
                         f"{zero!r}, so every w labels the all-zero-bits state Real; use threshold")


def _initial_thetas(n: int, rng: np.random.Generator) -> np.ndarray:
    """One rng.uniform(0, pi, num_params(n)) draw, made sign-aligned.

    The RY/CRY cascade angles are kept as drawn: on [0, pi] their
    amplitudes are all nonnegative. Each mixing RY then keeps the pairs (zero, one) it
    mixes nonnegative up to angle phi_max = 2 min atan2(zero, one), so its
    draw u is scaled to u / pi * phi_max, in layer order.
    """
    draw = rng.uniform(0.0, np.pi, num_params(n))
    thetas = draw.copy()
    first = 2 * n - 1
    thetas[first:] = 0.0
    for i in range(first, draw.size):
        pairs = _gen_amps(n, thetas).reshape(2 ** (i - first + 2), 2, -1)
        phi_max = 2.0 * np.arctan2(pairs[:, 0], pairs[:, 1]).min()
        thetas[i] = draw[i] / np.pi * phi_max
    return thetas


def train(
    cfg: TrainConfig,
    target: DiscreteDistribution,
    disc: DiscriminatorConfig | None = None,
) -> TrainTrace:
    """Alternating SGD: n_d ascent steps on w, then n_g descent on theta.

    A discriminator failing check_trainable (a sigmoid one) is refused
    first. Weights are clipped back into [-1, 1]^n after every ascent step.
    Random draws (initialization, restarts, and labelling rounds when
    shots > 0) come from one seeded generator in a fixed order, so equal
    seeds give bitwise-equal traces.

    Angles start from one uniform draw on [0, pi] whose generated
    amplitudes are all nonnegative like the target's: the cascade angles
    are kept as drawn and each mixing angle is scaled into the range that
    keeps the signs (see _initial_thetas; at n <= 2 there is no mixing
    layer and the draw is used as is). The label probability is blind to
    amplitude signs (the discriminator never mixes data basis states), so
    a sign mismatch could never be trained away; starting aligned keeps
    the fidelity target reachable.

    When an ascent phase ends without a separating witness (score not
    above zero), the next phase starts from a fresh uniform weight draw
    instead of the dead chain. Local ascent likes to retreat to w = 0,
    where every basis state is labelled Real with probability 1/2 and
    both gradients vanish identically; a restarted chain escapes that
    trap whenever any separating weights exist. Once the distributions
    match, no weights separate them, so restarts fire every epoch and
    change nothing.

    Scores inside the game come from one estimator: exact, or with
    shots > 0 the Real frequency of `shots` Bernoulli labelling rounds
    per probability, drawn as one binomial count. It takes (target,
    generated) pairs of P(Real). Descent hands it theta's shift-rule
    probes. Ascent climbs the central difference of the score at the
    weight probes w +- fd_step e_j (see grad_w), with the Born
    probabilities folded with the bit matrix once an epoch. Exact, the
    estimator is linear, so no pair is needed: Delta = p_t - p_g is folded
    (scaled by lr_d / (2 fd_step)) and each step reads the difference from
    one sine-weighted series column against it (weight_differences).
    Sampled, every probe needs its own probability: the target's and the
    generated state's are folded, and each step hands the estimator its 2n
    contracted pairs (weight_probes) in the draw order below.

    Draw order with shots > 0, per epoch: the fresh weights, if the last
    decision asked for a restart; each ascent step's probe pairs (by
    weight, + before -); then one call for the restart decision's pair
    (the epoch's state) followed by the first descent step's probe pairs;
    then one call per later descent step. In every pair the target's count
    comes before the generated state's.
    """
    n = cfg.n_qubits
    if target.n_qubits != n:
        raise ValueError(f"target has {target.n_qubits} qubits, config says {n}")
    disc = disc if disc is not None else training_discriminator(n)
    check_trainable(disc, n)
    fast = FastDiscriminator(disc, n)
    rng = np.random.default_rng(cfg.seed)
    thetas = _initial_thetas(n, rng)
    wvec = rng.uniform(-1.0, 1.0, n)

    target_sv = target_state(target)
    t_amps = target_sv.amps
    t_probs = np.abs(t_amps) ** 2
    estimate = _exact_scores if cfg.shots == 0 else _sampled_scores(rng, cfg.shots)
    offsets, weights = _shift_rule(n)
    batch = np.vstack([np.zeros(thetas.size), offsets])

    e = cfg.epochs
    scores, fids, kls, tds = np.empty((4, e))
    theta_rows = np.empty((e, thetas.size))
    w_rows = np.empty((e, n))

    # One generator call per epoch gives the state and the probes of the
    # next epoch's first descent step; later steps generate their own.
    gen, states = _state_and_probes(n, thetas, batch)
    needs_restart = False
    for epoch in range(e):
        if needs_restart:
            wvec = rng.uniform(-1.0, 1.0, n)
        # The Born probabilities of the target and the generated state hold
        # still for the whole ascent, so they are folded with the bit matrix
        # once; freed before the next generator call.
        if cfg.shots == 0:
            folded = _difference_rows(fast, t_probs - gen**2, cfg.lr_d / (2.0 * cfg.fd_step))
            for _ in range(cfg.n_d):
                wvec = (wvec + fast.weight_differences(wvec, cfg.fd_step, folded)).clip(-1.0, 1.0)
        else:
            folded = fast.probe_weighting((t_probs, gen**2))
            for _ in range(cfg.n_d):
                gw = _grad_w_raw(fast, wvec, folded, estimate, cfg.fd_step)
                wvec = (wvec + cfg.lr_d * gw).clip(-1.0, 1.0)
        del folded
        r = fast.label_probs(wvec)
        p_t = t_probs @ r
        # One estimator call: the restart decision's pair (the epoch's state,
        # row 0 of the batch), then the first descent step's probe pairs.
        s = estimate(_pairs(p_t, states**2 @ r))
        needs_restart = s[0] <= 0.0
        s = s[1:]
        # Freed before the next generator call, which may reuse the memory.
        del states
        for step in range(cfg.n_g):
            if step:
                s = estimate(_pairs(p_t, generate_amps(n, thetas + offsets) ** 2 @ r))
            thetas = thetas - cfg.lr_g * (weights @ s)

        gen, states = _state_and_probes(n, thetas, batch)
        # p_real reads the r labelled above: wvec has not moved since.
        scores[epoch] = _exact_score(fast, wvec, t_amps, gen)
        fids[epoch], kls[epoch], tds[epoch] = _closeness(target, target_sv, gen)
        theta_rows[epoch] = thetas
        w_rows[epoch] = wvec

    return TrainTrace(scores, fids, kls, tds, theta_rows, w_rows)
