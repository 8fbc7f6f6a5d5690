"""Adversarial objective and trainer: the POVM trace identity, gradient
rules, the minmax bound, the blocked sampled estimator and the batched
initial draw against their one-at-a-time forms, and the train() contract
(determinism, shapes, validation, restarts)."""

from dataclasses import replace

import numpy as np
import pytest
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
)
from qgansim.generator import GeneratorParams, generate_amps, generate_state, num_params
from qgansim.statevec import MAX_QUBITS, StateVector, basis_ket
from qgansim.svi import DEFAULT_SMILE_PARAMS, DiscreteDistribution


def random_instance(rng, n, m1=1):
    cfg = DiscriminatorConfig(m1=m1, m2=DiscriminatorConfig.for_width(n).m2)
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
    cfg = DiscriminatorConfig(m1=1, m2=2)
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
    with pytest.raises(ValueError):
        score_sampled(theta, w, target, cfg, shots=0, seed=3)


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


def test_weight_gradient_matches_score_slope():
    rng = np.random.default_rng(55)
    cfg, theta, w, target = random_instance(rng, 2)
    grad = grad_w(theta, w, target, cfg)
    h = 1e-4
    for i in range(2):
        up, down = w.w.copy(), w.w.copy()
        up[i] += h
        down[i] -= h
        fd = (
            float(score(theta, DiscriminatorWeights(up), target, cfg))
            - float(score(theta, DiscriminatorWeights(down), target, cfg))
        ) / (2.0 * h)
        assert abs(grad[i] - fd) < 1e-5
    with pytest.raises(ValueError):
        grad_w(theta, w, target, cfg, fd_step=0.0)


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


def test_training_discriminator_shape():
    cfg = training_discriminator(2)
    assert cfg.m1 == 2
    assert cfg.m2 == 3
    assert cfg.activation.name == "custom"
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
    with pytest.raises(ValueError):
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


def test_train_rejects_width_mismatch():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    with pytest.raises(ValueError):
        train(TrainConfig(n_qubits=3, epochs=1), target)


def test_train_accepts_theta_init():
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    cfg = TrainConfig(n_qubits=2, epochs=1, lr_d=1.0, lr_g=1.0, seed=0)
    init = np.array([0.3, 0.9, 1.4])
    trace = train(cfg, target, theta_init=init)
    assert trace.num_epochs == 1
    with pytest.raises(ValueError):
        train(cfg, target, theta_init=np.array([0.1, 0.2]))


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
    # The closed-form gradient against central differences of the exact
    # score at step 1e-5, the formula it replaced.
    rng = np.random.default_rng(58)
    h = 1e-5
    for n in (1, 2, 3, 4):
        _, theta, w, target = random_instance(rng, n)
        cfg = training_discriminator(n)
        grad = grad_w(theta, w, target, cfg)
        for i in range(n):
            up, down = w.w.copy(), w.w.copy()
            up[i] += h
            down[i] -= h
            fd = (
                float(score(theta, DiscriminatorWeights(up), target, cfg))
                - float(score(theta, DiscriminatorWeights(down), target, cfg))
            ) / (2.0 * h)
            assert abs(grad[i] - fd) < 1e-6


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
        ("fd_step", float("nan")),
        ("fd_step", float("inf")),
        ("fd_step", "1e-5"),
        ("shots", -1),
    ],
)
def test_train_config_names_the_rejected_key(key, value):
    kwargs = {"n_qubits": 2, "epochs": 1, key: value}
    with pytest.raises(ValueError, match=key):
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


def test_train_config_defaults():
    cfg = TrainConfig()
    assert (cfg.n_qubits, cfg.epochs, cfg.shots, cfg.seed) == (4, 300, 0, 0)


def test_train_at_eight_qubits_starts_sign_aligned():
    # Sign-aligned draws are rare at n = 8; the initial draw is capped.
    n = 8
    masses = np.ones(2**n) / 2**n
    cfg = TrainConfig(n_qubits=n, epochs=1, lr_d=1e-12, lr_g=1e-12, seed=0)
    trace = train(cfg, DiscreteDistribution(n, masses))
    state = generate_state(n, GeneratorParams(trace.thetas[0]))
    assert np.min(state.amps.real) >= -1e-12


def test_train_falls_back_to_the_cascade_after_the_draw_cap(monkeypatch):
    # Seed 1 at n = 4 has a mixed-sign first draw, so a cap of one draw
    # keeps it with the mixing layer switched off.
    n = 4
    masses = np.ones(2**n) / 2**n
    cfg = TrainConfig(n_qubits=n, epochs=1, lr_d=1e-12, lr_g=1e-12, seed=1)
    first = np.random.default_rng(1).uniform(0.0, np.pi, num_params(n))
    assert np.min(generate_state(n, GeneratorParams(first)).amps.real) < 0.0
    monkeypatch.setattr(adversarial, "_MAX_INIT_DRAWS", 1)
    start = train(cfg, DiscreteDistribution(n, masses)).thetas[0]
    assert_allclose(start[: 2 * n - 1], first[: 2 * n - 1], atol=1e-9)
    assert_allclose(start[2 * n - 1 :], 0.0, atol=1e-9)
    assert np.min(generate_state(n, GeneratorParams(start)).amps.real) >= -1e-12


def one_at_a_time_scores(rng, shots, p_t, p_g):
    """The sampled estimator drawing one rng.random(shots) per probability."""
    p_t, p_g = np.broadcast_arrays(p_t, p_g)
    hits = [
        (rng.random(shots) < a).mean() - (rng.random(shots) < b).mean()
        for a, b in zip(p_t.flat, p_g.flat)
    ]
    return np.reshape(hits, p_t.shape)


@pytest.mark.parametrize(
    "shots, shape",
    [
        (1, (5,)),
        (7, ()),
        (1000, (3, 4)),
        (1000, (50,)),
        (2**14, (3,)),
        (2**14 + 3, (2, 2)),
        (200000, ()),
        (200000, (2,)),
    ],
)
def test_blocked_rounds_match_one_draw_per_probability(shots, shape):
    rng = np.random.default_rng(shots)
    p_t = rng.uniform(size=shape)
    p_g = rng.uniform(size=shape)
    if p_t.size > 1:
        p_t.flat[0], p_g.flat[1] = 0.0, 1.0
    blocked, reference = np.random.default_rng(9), np.random.default_rng(9)
    got = adversarial._sampled_scores(blocked, shots)(p_t, p_g)
    want = one_at_a_time_scores(reference, shots, p_t, p_g)
    assert got.shape == want.shape == shape
    assert np.array_equal(got, want)
    assert blocked.bit_generator.state == reference.bit_generator.state


def test_blocked_rounds_broadcast_a_scalar_against_an_array():
    blocked, reference = np.random.default_rng(4), np.random.default_rng(4)
    p_g = np.array([[0.1, 0.5], [0.9, 0.3]])
    got = adversarial._sampled_scores(blocked, 300)(0.6, p_g)
    assert np.array_equal(got, one_at_a_time_scores(reference, 300, 0.6, p_g))
    assert blocked.random() == reference.random()


def one_at_a_time_thetas(n, rng):
    """The initial draw of train(), testing one candidate per call."""
    thetas = rng.uniform(0.0, np.pi, num_params(n))
    draws = 1
    while (generate_amps(n, thetas[None, :])[0] < -1e-12).any():
        if draws == adversarial._MAX_INIT_DRAWS:
            thetas[2 * n - 1 :] = 0.0
            break
        thetas = rng.uniform(0.0, np.pi, num_params(n))
        draws += 1
    return thetas, draws


def test_batched_initial_draw_matches_one_candidate_at_a_time():
    longest = 0
    for n in range(2, 8):
        for seed in range(4):
            batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = adversarial._initial_thetas(n, batched)
            want, draws = one_at_a_time_thetas(n, reference)
            assert np.array_equal(got, want)
            assert batched.uniform(-1.0, 1.0) == reference.uniform(-1.0, 1.0)
            longest = max(longest, draws)
    # The search ran past the 1 + 2 + ... + 64 draws of the first batches.
    assert longest > 127


@pytest.mark.parametrize("cap", [1, 70])
def test_batched_initial_draw_falls_back_at_the_same_cap(monkeypatch, cap):
    # At n = 7 about one draw in 400 is aligned; a cap of 70 is reached
    # after batches of 1, 2, 4, 8, 16 and 32 draws and a clipped one of 7.
    monkeypatch.setattr(adversarial, "_MAX_INIT_DRAWS", cap)
    n, fallbacks = 7, 0
    for seed in range(6):
        batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = adversarial._initial_thetas(n, batched)
        want, draws = one_at_a_time_thetas(n, reference)
        assert np.array_equal(got, want)
        assert batched.uniform(-1.0, 1.0) == reference.uniform(-1.0, 1.0)
        fallbacks += draws == cap and not np.any(want[2 * n - 1 :])
    assert fallbacks > 0


def test_train_starts_from_the_one_at_a_time_draw():
    # Vanishing learning rates keep the first recorded angles at the draw.
    for n, seed in [(3, 0), (5, 1), (6, 2)]:
        masses = np.ones(2**n) / 2**n
        cfg = TrainConfig(n_qubits=n, epochs=1, lr_d=1e-12, lr_g=1e-12, shots=50, seed=seed)
        start = train(cfg, DiscreteDistribution(n, masses)).thetas[0]
        want, _ = one_at_a_time_thetas(n, np.random.default_rng(seed))
        assert_allclose(start, want, rtol=0, atol=1e-9)
