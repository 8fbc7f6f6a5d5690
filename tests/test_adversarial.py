"""Adversarial objective and trainer: the POVM trace identity, gradient
rules, the minmax bound, the sampled estimator's distribution, the
weight gradient's central-difference probes, the sign-aligned initial draw, and the
train() contract (determinism, shapes, validation, restarts)."""

import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgansim import adversarial
from qgansim.adversarial import (
    ScoreValue,
    TrainConfig,
    TrainTrace,
    grad_theta,
    grad_w,
    minmax_gap,
    score,
    score_sampled,
    train,
    training_discriminator,
)
from qgansim.discriminator import (
    DiscriminatorConfig,
    DiscriminatorWeights,
    FastDiscriminator,
    label_real_probability,
    threshold_activation,
)
from qgansim.generator import GeneratorParams, generate_amps, generate_state, num_params
from qgansim.qneuron import ActivationFn, min_signed_ancillas, sigmoid_activation
from qgansim.statevec import MAX_QUBITS, StateVector, basis_ket
from qgansim.svi import DEFAULT_SMILE_PARAMS, DiscreteDistribution, discretize, target_state


def random_instance(rng, n, m1=1):
    cfg = DiscriminatorConfig(m1=m1, m2=min_signed_ancillas(n), activation=sigmoid_activation())
    theta = GeneratorParams(rng.uniform(0.0, 2.0 * np.pi, num_params(n)))
    w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, n))
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    target = StateVector(n, v / np.linalg.norm(v))
    return cfg, theta, w, target


def povm_score(theta, w, target, cfg):
    """Independent oracle: S = 1/2 Tr((P_R - P_F)(rho_target - rho_gen)),
    with P_R assembled from per-basis-state label probabilities."""
    n = target.num_qubits
    fast = FastDiscriminator(cfg, n)
    labels = np.array([fast.p_real(w.w, basis_ket(n, x).amps) for x in range(2**n)])
    p_real = np.diag(labels)
    p_fake = np.eye(2**n) - p_real
    g = generate_state(n, theta).amps
    delta = np.outer(target.amps, target.amps.conj()) - np.outer(g, g.conj())
    return 0.5 * float(np.trace((p_real - p_fake) @ delta).real)


def test_score_matches_povm_trace_identity():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cfg, theta, w, target = random_instance(rng, n, m1=int(rng.integers(1, 3)))
        assert abs(float(score(theta, w, target, cfg)) - povm_score(theta, w, target, cfg)) < 1e-10


def test_score_bounded_by_half_trace_distance():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cfg, theta, w, target = random_instance(rng, n)
        g = generate_state(n, theta).amps
        delta = np.outer(target.amps, target.amps.conj()) - np.outer(g, g.conj())
        bound = 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())
        assert float(score(theta, w, target, cfg)) <= bound + 1e-10


def test_score_zero_at_match():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    from qgansim.generator import exact_params_2q
    from qgansim.svi import target_state

    theta = exact_params_2q(target)
    cfg = DiscriminatorConfig(m1=1, m2=2, activation=sigmoid_activation())
    for wv in ([0.5, -0.5], [1.0, 1.0], [0.0, 0.7]):
        s = float(score(theta, DiscriminatorWeights(np.array(wv)), target_state(target), cfg))
        assert abs(s) < 1e-12


def test_score_value_range_check():
    with pytest.raises(ValueError):
        ScoreValue(1.5)
    assert float(ScoreValue(0.25)) == 0.25


def test_score_sampled_converges_to_exact():
    rng = np.random.default_rng(53)
    cfg, theta, w, target = random_instance(rng, 2)
    exact = float(score(theta, w, target, cfg))
    approx = float(score_sampled(theta, w, target, cfg, shots=200000, seed=3))
    assert abs(approx - exact) < 0.01


@pytest.mark.parametrize(
    "shots, seed, key",
    [
        (0, 3, "shots"),
        (2.5, 3, "shots"),
        (True, 3, "shots"),
        (2**63, 3, "shots"),
        ("10", 3, "shots"),
        (10, -1, "seed"),
        (10, 1.0, "seed"),
        (10, "3", "seed"),
    ],
)
def test_score_sampled_rejects_malformed_shots_and_seed(shots, seed, key):
    cfg, theta, w, target = random_instance(np.random.default_rng(53), 2)
    with pytest.raises(ValueError, match=f"^{key} = "):
        score_sampled(theta, w, target, cfg, shots=shots, seed=seed)


def test_shift_rule_matches_finite_differences():
    rng = np.random.default_rng(54)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        cfg, theta, w, target = random_instance(rng, n)
        grad = grad_theta(theta, w, target, cfg)
        h = 1e-5
        for i in range(grad.size):
            up, down = theta.thetas.copy(), theta.thetas.copy()
            up[i] += h
            down[i] -= h
            fd = (
                float(score(GeneratorParams(up), w, target, cfg))
                - float(score(GeneratorParams(down), w, target, cfg))
            ) / (2.0 * h)
            assert abs(grad[i] - fd) < 1e-6


def score_slopes(theta, w, target, cfg, s):
    """[S(w + s e_j) - S(w - s e_j)] / (2 s) from the exact score, per j."""
    n = w.w.size
    return np.array(
        [
            (
                float(score(theta, DiscriminatorWeights(w.w + s * e), target, cfg))
                - float(score(theta, DiscriminatorWeights(w.w - s * e), target, cfg))
            )
            / (2.0 * s)
            for e in np.eye(n)
        ]
    )


def test_weight_gradient_matches_score_slope():
    # Weights in [-1/2, 1/2] keep every probe inside [-1, 1].
    rng = np.random.default_rng(55)
    cfg, theta, _, target = random_instance(rng, 2)
    w = DiscriminatorWeights(rng.uniform(-0.5, 0.5, 2))
    for s in (1e-3, 0.25, 0.5):
        grad = grad_w(theta, w, target, cfg, fd_step=s)
        assert_allclose(grad, score_slopes(theta, w, target, cfg, s), rtol=0, atol=1e-12)
    for bad in (0.0, -0.5, 1.5, 8.0, float("nan")):
        with pytest.raises(ValueError, match="^fd_step = "):
            grad_w(theta, w, target, cfg, fd_step=bad)


def test_gradient_rejects_mismatched_widths():
    rng = np.random.default_rng(56)
    cfg, theta, w, target = random_instance(rng, 2)
    with pytest.raises(ValueError):
        score(GeneratorParams(np.array([0.1])), w, target, cfg)
    with pytest.raises(ValueError):
        score(theta, DiscriminatorWeights(np.array([0.5])), target, cfg)


def test_minmax_gap_bounded_and_grid_shape_checked():
    rng = np.random.default_rng(57)
    cfg, theta, _, target = random_instance(rng, 2)
    grid = rng.uniform(-1.0, 1.0, (32, 2))
    gap = minmax_gap(theta, target, cfg, grid)
    g = generate_state(2, theta).amps
    delta = np.outer(target.amps, target.amps.conj()) - np.outer(g, g.conj())
    assert gap <= 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum()) + 1e-10
    with pytest.raises(ValueError):
        minmax_gap(theta, target, cfg, rng.uniform(-1, 1, (4, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        grid[2, 1] = bad
        with pytest.raises(ValueError, match="w_grid"):
            minmax_gap(theta, target, cfg, grid)


_SMALL_TARGET = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))


@pytest.mark.parametrize("m1", [1, 2, 3])
def test_train_refuses_the_sigmoid_before_any_work(m1, monkeypatch):
    # sigma(0) = 1/2 is a register value at every m1.
    monkeypatch.setattr(adversarial, "FastDiscriminator", None)
    disc = DiscriminatorConfig(m1=m1, m2=3, activation=sigmoid_activation())
    with pytest.raises(ValueError, match="^activation = sigmoid maps 0 to the register value 0.5"):
        train(TrainConfig(n_qubits=2, epochs=1), _SMALL_TARGET, disc)


@pytest.mark.parametrize("m1, k", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 6)])
def test_train_refuses_any_activation_with_a_register_value_at_zero(m1, k):
    # sigma(0) = k / 2^m1; the slope keeps sigma in [0, 1) on [-2^3, 2^3).
    act = ActivationFn("custom", lambda t: k / 2**m1 + 2.0 ** -(m1 + 5) * t)
    disc = DiscriminatorConfig(m1=m1, m2=3, activation=act)
    message = f"^activation = custom maps 0 to the register value {k / 2**m1!r}"
    with pytest.raises(ValueError, match=message):
        adversarial.check_trainable(disc, 2)
    with pytest.raises(ValueError, match="^activation = custom "):
        train(TrainConfig(n_qubits=2, epochs=1), _SMALL_TARGET, disc)


@pytest.mark.parametrize("m1", [1, 2, 3])
def test_threshold_activation_trains_at_every_small_m1(m1):
    disc = DiscriminatorConfig(m1=m1, m2=3, activation=threshold_activation(m1, 2.0**3))
    adversarial.check_trainable(disc, 2)
    cfg = TrainConfig(n_qubits=2, epochs=100, lr_d=1.0, lr_g=1.0, seed=0)
    trace = train(cfg, _SMALL_TARGET, disc)
    assert trace.fidelities[-1] > max(trace.fidelities[0], 0.95)


@pytest.mark.parametrize("m1, m2", [(1, 2), (2, 3), (3, 4)])
def test_a_discriminator_of_registers_alone_is_the_threshold_one_and_trains(m1, m2):
    default = DiscriminatorConfig(m1=m1, m2=m2)
    explicit = DiscriminatorConfig(m1=m1, m2=m2, activation=threshold_activation(m1, 2.0**m2))
    rng = np.random.default_rng(60 + m1)
    grid = rng.uniform(-1.0, 1.0, (16, 2))
    r = FastDiscriminator(default, 2).label_probs(grid)
    assert np.array_equal(r, FastDiscriminator(explicit, 2).label_probs(grid))
    w = DiscriminatorWeights(grid[0])
    state = target_state(_SMALL_TARGET)
    assert label_real_probability(w, default, state) == label_real_probability(w, explicit, state)
    cfg = TrainConfig(n_qubits=2, epochs=20, seed=m2)
    got, expected = train(cfg, _SMALL_TARGET, default), train(cfg, _SMALL_TARGET, explicit)
    assert np.array_equal(got.fidelities, expected.fidelities)
    assert np.array_equal(got.thetas, expected.thetas)


def test_training_discriminator_shape():
    cfg = training_discriminator(2)
    assert cfg.m1 == 2
    assert cfg.m2 == 3
    assert cfg.activation is None  # the threshold activation of its registers
    assert training_discriminator(4).m2 == 4


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_qubits=2, epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(n_qubits=0, epochs=1)
    with pytest.raises(ValueError):
        TrainConfig(n_qubits=2, epochs=1, lr_d=0.0)
    with pytest.raises(ValueError):
        TrainConfig(n_qubits=2, epochs=1, shots=-1)
    with pytest.raises(TypeError, match="fd_step"):
        TrainConfig(n_qubits=2, epochs=1, fd_step=0.0)


def test_train_trace_shapes():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    cfg = TrainConfig(n_qubits=2, epochs=3, lr_d=1.0, lr_g=1.0, seed=0)
    trace = train(cfg, target)
    assert trace.num_epochs == 3
    assert trace.thetas.shape == (3, 3)
    assert trace.ws.shape == (3, 2)
    for name in ("scores", "fidelities", "kls", "trace_distances"):
        assert getattr(trace, name).shape == (3,)
    assert np.all(np.abs(trace.ws) <= 1.0 + 1e-12)


def test_train_trace_validation():
    with pytest.raises(ValueError):
        TrainTrace(
            np.zeros(2),
            np.zeros(3),
            np.zeros(2),
            np.zeros(2),
            np.zeros((2, 3)),
            np.zeros((2, 2)),
        )


def test_train_is_seed_deterministic():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    cfg = TrainConfig(n_qubits=2, epochs=5, lr_d=1.0, lr_g=1.0, seed=7)
    a = train(cfg, target)
    b = train(cfg, target)
    for name in ("scores", "fidelities", "kls", "trace_distances", "thetas", "ws"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = train(TrainConfig(n_qubits=2, epochs=5, lr_d=1.0, lr_g=1.0, seed=8), target)
    assert not np.array_equal(a.thetas, c.thetas)


def test_train_scores_equal_the_score_of_each_recorded_state():
    # The recorded score reuses the epoch's label probabilities; it must be
    # the score of the recorded (theta, w), bit for bit.
    n = 4
    target = discretize(DEFAULT_SMILE_PARAMS, n)
    cfg = TrainConfig(n_qubits=n, epochs=25, lr_d=1.0, lr_g=0.5, seed=3)
    trace = train(cfg, target)
    disc = training_discriminator(n)
    target_sv = target_state(target)
    for e in range(trace.num_epochs):
        theta = GeneratorParams(trace.thetas[e])
        w = DiscriminatorWeights(trace.ws[e])
        assert trace.scores[e] == float(score(theta, w, target_sv, disc)), e


def test_train_rejects_width_mismatch():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    with pytest.raises(ValueError):
        train(TrainConfig(n_qubits=3, epochs=1), target)


def test_train_initial_amplitudes_are_nonnegative():
    # The initializer resamples until the generated amplitudes share the
    # target's (nonnegative) sign pattern; labels cannot see signs, so a
    # mixed-sign start could never be repaired. Vanishing learning rates
    # keep the recorded first epoch at the init draw.
    for n, seed in [(2, 0), (3, 1), (4, 2), (4, 5)]:
        masses = np.ones(2**n) / 2**n
        cfg = TrainConfig(n_qubits=n, epochs=1, lr_d=1e-12, lr_g=1e-12, seed=seed)
        trace = train(cfg, DiscreteDistribution(n, masses))
        state = generate_state(n, GeneratorParams(trace.thetas[0]))
        assert np.min(state.amps.real) > -1e-6


def test_train_with_shots_runs_and_is_deterministic():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    cfg = TrainConfig(
        n_qubits=2, epochs=2, lr_d=0.5, lr_g=0.5, shots=64, seed=11
    )
    a = train(cfg, target)
    b = train(cfg, target)
    assert np.array_equal(a.thetas, b.thetas)


def test_short_training_run_improves_fidelity():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    cfg = TrainConfig(n_qubits=2, epochs=60, n_d=9, n_g=1, lr_d=1.0, lr_g=1.0, seed=0)
    trace = train(cfg, target, disc=training_discriminator(2))
    assert trace.fidelities[-1] > trace.fidelities[0]
    assert trace.fidelities[-1] > 0.9


def test_weight_gradient_matches_finite_difference_formula():
    # train()'s discriminator at every width up to 4, and the default step.
    rng = np.random.default_rng(58)
    for n in (1, 2, 3, 4):
        _, theta, _, target = random_instance(rng, n)
        w = DiscriminatorWeights(rng.uniform(-0.5, 0.5, n))
        cfg = training_discriminator(n)
        for s in (1e-3, 0.25, 0.5):
            grad = grad_w(theta, w, target, cfg, s)
            assert_allclose(grad, score_slopes(theta, w, target, cfg, s), rtol=0, atol=1e-12)
        assert np.array_equal(grad_w(theta, w, target, cfg), grad)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_qubits", 0),
        ("n_qubits", MAX_QUBITS + 1),
        ("n_qubits", 2.5),
        ("epochs", 1.5),
        ("shots", 0.5),
        ("seed", 0.5),
        ("epochs", 0),
        ("n_d", 0),
        ("n_g", 0),
        ("lr_d", 0.0),
        ("lr_d", float("nan")),
        ("lr_d", float("inf")),
        ("lr_g", float("nan")),
        ("lr_g", float("inf")),
        # Larger steps could overflow.
        ("lr_d", 1e308),
        ("lr_g", 1.0000001e6),
        ("fd_step", 5e-324),
        ("fd_step", 2.0**-53),
        ("fd_step", float("nan")),
        ("fd_step", float("inf")),
        ("fd_step", "1e-5"),
        ("fd_step", 0.0),
        ("fd_step", -0.5),
        ("fd_step", 1.5),
        ("fd_step", 8.0),
        ("shots", -1),
        ("shots", 2**63),
        ("epochs", 10**13),
        ("n_d", 10**12),
        ("n_g", 10**12),
    ],
)
def test_train_config_names_the_rejected_key(key, value):
    kwargs = {"n_qubits": 2, "epochs": 1, key: value}
    # fd_step is a class constant, not a field: every value is refused.
    with pytest.raises(TypeError if key == "fd_step" else ValueError, match=key):
        TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: DiscriminatorConfig(m1=2.7), "m1"),
        (lambda: DiscriminatorConfig(m1=True), "m1"),
        (lambda: DiscriminatorConfig(m2="3"), "m2"),
        (lambda: DiscriminatorConfig(m2=0), "m2"),
        (lambda: replace(DEFAULT_SMILE_PARAMS, a="x"), "a"),
        (lambda: replace(DEFAULT_SMILE_PARAMS, rho=None), "rho"),
        (lambda: replace(DEFAULT_SMILE_PARAMS, T=True), "T"),
        (lambda: replace(DEFAULT_SMILE_PARAMS, xi=float("nan")), "xi"),
        (lambda: TrainConfig(n_qubits=2.7), "n_qubits"),
        (lambda: TrainConfig(n_qubits=True), "n_qubits"),
        (lambda: TrainConfig(n_qubits=MAX_QUBITS + 1), "n_qubits"),
        (lambda: TrainConfig(epochs=True), "epochs"),
        (lambda: TrainConfig(lr_d=True), "lr_d"),
        (lambda: TrainConfig(seed=-1), "seed"),
    ],
)
def test_config_types_reject_wrong_types_by_key(make, key):
    with pytest.raises(ValueError, match=f"^{key} = "):
        make()


def test_train_config_bounds_the_trace_and_the_shots(monkeypatch):
    # The trace bound alone: the run-cost bound would refuse this long a run.
    monkeypatch.setattr(adversarial, "_RUN_BUDGET_NS", float("inf"))
    per_epoch = (num_params(1) + 1 + 4) * 8
    most = adversarial._TRACE_BUDGET_BYTES // per_epoch
    TrainConfig(n_qubits=1, epochs=most, shots=2**63 - 1)
    with pytest.raises(ValueError, match="^epochs = "):
        TrainConfig(n_qubits=1, epochs=most + 1)


def test_train_config_bounds_the_work_per_epoch():
    # The modelled run cost: the defaults pass up to n = 18, and past the
    # budget the larger step term names its key, or epochs if they
    # outnumber its steps.
    for n in range(1, 19):
        TrainConfig(n_qubits=n)
    with pytest.raises(ValueError, match="^epochs = 300 makes a run of about 2491 s"):
        TrainConfig(n_qubits=19)
    with pytest.raises(ValueError, match="^epochs = 1000000 "):
        TrainConfig(n_qubits=8, epochs=10**6)
    with pytest.raises(ValueError, match="^n_g = "):
        TrainConfig(n_qubits=4, epochs=2, n_d=3, n_g=10**8)
    # Integer nanoseconds: a huge count is refused, not a float overflow.
    with pytest.raises(ValueError, match="^n_d = "):
        TrainConfig(n_qubits=1, epochs=1, n_d=10**400)
    # 2^27 ascent steps at n = 1 took about an hour before this bound.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^n_d = 134217728 makes a run of about 3366 s"):
        TrainConfig(n_qubits=1, epochs=1, n_d=134217728)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        # The README config and criteria 12 and 14.
        {"n_qubits": 4, "epochs": 2000, "lr_d": 1.0, "lr_g": 0.5, "shots": 1000},
        # Criteria 11 and 13, and the sampled run in CI.
        {"n_qubits": 2, "epochs": 300, "lr_d": 1.0, "lr_g": 1.0, "shots": 10_000},
        # The benchmark's smile runs.
        {"n_qubits": 4, "epochs": 100, "lr_d": 1.0, "lr_g": 0.5},
        {"n_qubits": 6, "epochs": 40, "lr_d": 1.0, "lr_g": 0.5, "shots": 1000},
        # The widest run train()'s default discriminator fits.
        {"n_qubits": 12},
    ],
)
def test_shipped_configs_are_well_inside_the_run_budget(kwargs):
    cfg = TrainConfig(**kwargs)
    TrainConfig(**{**kwargs, "epochs": 10 * cfg.epochs})


@pytest.mark.parametrize("kwargs", [{"lr_d": 1e6}, {"lr_g": 1e6}])
def test_train_at_the_largest_steps_stays_finite(kwargs):
    # The suite turns a RuntimeWarning (an overflow, say) into an error.
    trace = train(TrainConfig(n_qubits=3, epochs=3, **kwargs), discretize(DEFAULT_SMILE_PARAMS, 3))
    assert np.all(np.isfinite(trace.thetas)) and np.all(np.isfinite(trace.kls))


def test_train_config_defaults():
    cfg = TrainConfig()
    assert (cfg.n_qubits, cfg.epochs, cfg.shots, cfg.seed) == (4, 300, 0, 0)
    assert cfg.fd_step == TrainConfig.fd_step == 0.5
    assert len(fields(TrainConfig)) == 8
    with pytest.raises(TypeError, match="fd_step"):
        TrainConfig(fd_step=0.5)


@pytest.mark.parametrize("shots", [0, 1000])
def test_train_at_twelve_qubits_stays_in_its_memory_budget(shots):
    # 12.31 MB is the peak measured before the weight probes were
    # contracted; the probe weighting, 2 + 2n rows of 2^n, may add to it.
    # A powers table kept past its step (4 MiB at n = 12) breaks the budget.
    n = 12
    target = discretize(DEFAULT_SMILE_PARAMS, n)
    cfg = TrainConfig(n_qubits=n, epochs=3, shots=shots)
    train(replace(cfg, epochs=1), target)
    tracemalloc.start()
    try:
        train(cfg, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_310_000 + (2 + 2 * n) * 2**n * 8


def test_state_and_probes_rows_are_bitwise_their_own_calls():
    # The angle batch adds thetas to the offsets under a zero row, which
    # leaves row 0 at thetas exactly.
    rng = np.random.default_rng(75)
    for n in (1, 4, 9):
        thetas = rng.uniform(0.0, np.pi, num_params(n))
        offsets = adversarial._shift_rule(n)[0]
        batch = np.vstack([np.zeros(thetas.size), offsets])
        gen, states = adversarial._state_and_probes(n, thetas, batch)
        assert gen.tobytes() == states[0].tobytes() == generate_amps(n, thetas[None, :]).tobytes()
        assert states[1:].tobytes() == generate_amps(n, thetas + offsets).tobytes()


def test_train_at_eight_qubits_starts_sign_aligned():
    n = 8
    masses = np.ones(2**n) / 2**n
    cfg = TrainConfig(n_qubits=n, epochs=1, lr_d=1e-12, lr_g=1e-12, seed=0)
    trace = train(cfg, DiscreteDistribution(n, masses))
    state = generate_state(n, GeneratorParams(trace.thetas[0]))
    assert np.min(state.amps.real) >= -1e-12


def pairs_of(p_t, p_g):
    """The estimator's (..., 2) input: (target, generated) pairs, broadcast."""
    return np.stack(np.broadcast_arrays(p_t, p_g), -1)


def one_pair_at_a_time_scores(rng, shots, p_t, p_g):
    """The sampled estimator drawing one binomial count per probability."""
    p_t, p_g = np.broadcast_arrays(p_t, p_g)
    hits = [
        rng.binomial(shots, a) / shots - rng.binomial(shots, b) / shots
        for a, b in zip(p_t.flat, p_g.flat)
    ]
    return np.reshape(hits, p_t.shape)


@pytest.mark.parametrize(
    "p_t, p_g",
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7), (0.5, 0.5), (0.99, 0.02)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_scores_have_the_distribution_of_bernoulli_rounds(p_t, p_g, seed):
    # The frequency gap of `shots` Bernoulli rounds on each side has mean
    # p_t - p_g and variance (p_t (1 - p_t) + p_g (1 - p_g)) / shots.
    shots, calls, size = 40, 2_000, 10
    estimate = adversarial._sampled_scores(np.random.default_rng(seed), shots)
    s = np.concatenate([estimate(pairs_of(np.full(size, p_t), p_g)) for _ in range(calls)])
    mean, var = s.mean(), s.var()
    want_var = (p_t * (1.0 - p_t) + p_g * (1.0 - p_g)) / shots
    var_se = np.sqrt(max(np.mean((s - mean) ** 4) - var**2, 0.0) / s.size)
    assert abs(mean - (p_t - p_g)) <= 5.0 * np.sqrt(want_var / s.size)
    assert abs(var - want_var) <= 5.0 * var_se


def test_sampled_scores_accept_probabilities_rounded_past_the_ends():
    estimate = adversarial._sampled_scores(np.random.default_rng(0), 1000)
    assert estimate(pairs_of(1.0 + 2.2e-16, -1e-17)) == 1.0
    got = estimate(pairs_of(np.array([-1e-17, 1.0 + 2.2e-16]), 1.0 + 2.2e-16))
    assert np.array_equal(got, [-1.0, 0.0])


@pytest.mark.parametrize(
    "shots, p_t, p_g",
    [
        (1, np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.0, 5)),
        (7, 0.25, 0.5),
        (1000, 0.6, np.array([[0.1, 0.5], [0.9, 0.3]])),
        (1000, np.full((3, 1), 0.4), np.linspace(0.0, 1.0, 4)),
        (2**40, np.array([0.3, 0.8]), 0.5),
    ],
)
def test_sampled_scores_draw_pair_by_pair_in_broadcast_shape(shots, p_t, p_g):
    got = adversarial._sampled_scores(np.random.default_rng(9), shots)(pairs_of(p_t, p_g))
    again = adversarial._sampled_scores(np.random.default_rng(9), shots)(pairs_of(p_t, p_g))
    want = one_pair_at_a_time_scores(np.random.default_rng(9), shots, p_t, p_g)
    assert np.shape(got) == np.broadcast_shapes(np.shape(p_t), np.shape(p_g))
    assert np.array_equal(got, want)
    assert np.array_equal(got, again)


@pytest.mark.parametrize("h", [1e-5, 0.3, 0.5, 1.0])
def test_weight_probes_match_labelling_each_shifted_weight_vector(h):
    # Each probe w +- h e_j labelled in full by label_probs; probes may
    # leave [-1, 1], where the series still holds. Against the identity's
    # rows, one point mass per basis state, a probe holds every label.
    rng = np.random.default_rng(71)
    for n in range(1, 7):
        fast = FastDiscriminator(training_discriminator(n), n)
        w = rng.uniform(-1.0, 1.0, n)
        got = fast.weight_probes(w, h, fast.probe_weighting(np.eye(2**n)))
        assert got.shape == (n, 2, 2**n)
        for j in range(n):
            step = h * np.eye(n)[j]
            assert_allclose(got[j, 0], fast.label_probs(w + step), rtol=0, atol=1e-12)
            assert_allclose(got[j, 1], fast.label_probs(w - step), rtol=0, atol=1e-12)


@pytest.mark.parametrize("h", [1e-5, 0.5, 1.0])
def test_weight_probes_contract_probability_columns(h):
    # Against two random probability columns, each probe is the label
    # probabilities at its shifted w times each column.
    rng = np.random.default_rng(74)
    for n in range(1, 9):
        fast = FastDiscriminator(training_discriminator(n), n)
        w = rng.uniform(-1.0, 1.0, n)
        probs = rng.dirichlet(np.ones(2**n), size=2).T
        got = fast.weight_probes(w, h, fast.probe_weighting(probs.T))
        assert got.shape == (n, 2, 2)
        for j in range(n):
            for side, sign in enumerate((1.0, -1.0)):
                want = fast.label_probs(w + sign * h * np.eye(n)[j]) @ probs
                assert_allclose(got[j, side], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h", [1e-5, 0.5, 1.0])
def test_weight_differences_are_the_central_differences_of_the_score(h):
    # Against a random signed Delta = p_t - p_g, the difference path reads
    # S(w + h e_j) - S(w - h e_j) from the folded rows bit_j * Delta, as the
    # full label probabilities at both probes and as the pairs of weight_probes.
    rng = np.random.default_rng(76)
    for n in range(1, 9):
        fast = FastDiscriminator(training_discriminator(n), n)
        w = rng.uniform(-1.0, 1.0, n)
        p_t, p_g = rng.dirichlet(np.ones(2**n), size=2)
        delta = p_t - p_g
        rows = fast.probe_weighting((delta,))[1:]
        got = fast.weight_differences(w, h, rows)
        assert got.shape == (n,)
        # Another step replaces the cached column.
        fresh = FastDiscriminator(training_discriminator(n), n)
        assert np.array_equal(
            fast.weight_differences(w, h / 2.0, rows), fresh.weight_differences(w, h / 2.0, rows)
        )
        want = [
            (fast.label_probs(w + h * e) - fast.label_probs(w - h * e)) @ delta for e in np.eye(n)
        ]
        assert_allclose(got, want, rtol=0, atol=1e-12)
        s = adversarial._exact_scores(fast.weight_probes(w, h, fast.probe_weighting((p_t, p_g))))
        assert_allclose(got, s[:, 0] - s[:, 1], rtol=0, atol=1e-12)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_initial_draw_is_sign_aligned_from_one_uniform_draw(n, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    thetas = adversarial._initial_thetas(n, rng)
    first = reference.uniform(0.0, np.pi, num_params(n))
    assert np.min(generate_amps(n, thetas[None, :])) >= -1e-12
    # Exactly one draw of num_params(n) angles was consumed.
    assert rng.uniform(-1.0, 1.0) == reference.uniform(-1.0, 1.0)
    # The cascade angles are used as drawn; only the mixing layer is scaled.
    assert np.array_equal(thetas[: 2 * n - 1], first[: 2 * n - 1])
    if n <= 2:
        assert np.array_equal(thetas, first)


def test_initial_draw_at_twelve_qubits_is_fast():
    start = time.perf_counter()
    adversarial._initial_thetas(12, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0
