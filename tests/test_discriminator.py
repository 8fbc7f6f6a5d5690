"""Perceptron discriminator: circuit vs closed-form evaluator (label
probabilities and their Jacobian), the label law on a 1-bit activation
register, sign blindness, and the mid-cell threshold activation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qgansim.discriminator import (
    DiscriminatorConfig,
    DiscriminatorWeights,
    FastDiscriminator,
    build_discriminator,
    label_real_probability,
    threshold_activation,
)
from qgansim.qneuron import custom_activation, sigmoid_activation
from qgansim.statevec import StateVector, basis_ket


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def test_config_defaults_and_validation():
    cfg = DiscriminatorConfig()
    assert cfg.m1 == 1 and cfg.m2 == 1
    assert cfg.activation.name == "sigmoid"
    with pytest.raises(ValueError):
        DiscriminatorConfig(m1=0)


def test_min_m2_and_for_width():
    cfg = DiscriminatorConfig()
    assert cfg.min_m2(1) == 1
    assert cfg.min_m2(2) == 2
    assert cfg.min_m2(4) == 3
    assert cfg.min_m2(5) == 4
    assert DiscriminatorConfig.for_width(4).m2 == 3
    assert DiscriminatorConfig.for_width(1).m2 == 1


def test_build_rejects_narrow_register():
    with pytest.raises(ValueError):
        build_discriminator(
            DiscriminatorWeights(np.ones(4)), DiscriminatorConfig(m1=1, m2=2), 4
        )
    with pytest.raises(ValueError):
        FastDiscriminator(DiscriminatorConfig(m1=1, m2=2), 4)


def test_build_rejects_weight_count_mismatch():
    with pytest.raises(ValueError):
        build_discriminator(
            DiscriminatorWeights(np.ones(3)), DiscriminatorConfig(m1=1, m2=3), 4
        )


def test_circuit_width():
    circ = build_discriminator(
        DiscriminatorWeights(np.array([0.5, -0.5])), DiscriminatorConfig(m1=2, m2=2), 2
    )
    assert circ.num_qubits == 6


def test_fast_evaluator_matches_circuit():
    rng = np.random.default_rng(31)
    for n, m1, m2 in [(1, 1, 1), (2, 1, 2), (2, 2, 3), (3, 2, 3)]:
        cfg = DiscriminatorConfig(m1=m1, m2=m2)
        fast = FastDiscriminator(cfg, n)
        for _ in range(4):
            w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, n))
            state = random_state(rng, n)
            assert (
                abs(
                    fast.p_real(w.w, state.amps)
                    - label_real_probability(w, cfg, state)
                )
                < 1e-12
            )


def test_fast_evaluator_matches_circuit_with_threshold():
    rng = np.random.default_rng(32)
    cfg = DiscriminatorConfig(m1=2, m2=3, activation=threshold_activation(2, 8.0))
    fast = FastDiscriminator(cfg, 2)
    for _ in range(5):
        w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, 2))
        state = random_state(rng, 2)
        assert (
            abs(fast.p_real(w.w, state.amps) - label_real_probability(w, cfg, state))
            < 1e-12
        )


def test_single_bit_activation_register_law():
    # With one activation qubit and a register-exact product t, the label
    # probability is sin^2(pi sigma(t)); frozen for w = (1, 1) on |11>.
    cfg = DiscriminatorConfig(m1=1, m2=2)
    p = label_real_probability(
        DiscriminatorWeights(np.array([1.0, 1.0])), cfg, basis_ket(2, 3)
    )
    assert abs(p - 0.13380609391532516) < 1e-9


def test_label_probability_is_sign_blind():
    # Every gate acting on the data register is diagonal, so the label
    # depends on the input only through its Born probabilities.
    cfg = DiscriminatorConfig(m1=2, m2=3, activation=threshold_activation(2, 8.0))
    fast = FastDiscriminator(cfg, 2)
    w = np.array([0.6, -0.3])
    amps = np.sqrt([0.4, 0.3, 0.2, 0.1]).astype(complex)
    flipped = amps * np.array([1.0, -1.0, 1.0, -1.0])
    phased = amps * np.exp(1j * np.array([0.3, 1.1, -0.7, 2.0]))
    p = fast.p_real(w, amps)
    assert abs(fast.p_real(w, flipped) - p) < 1e-14
    assert abs(fast.p_real(w, phased) - p) < 1e-14


def test_povm_linearity_in_input_density():
    # P(Real) = sum_x rho_x |v_x|^2 with rho_x the basis-state labels.
    rng = np.random.default_rng(33)
    cfg = DiscriminatorConfig(m1=1, m2=2)
    fast = FastDiscriminator(cfg, 2)
    w = rng.uniform(-1.0, 1.0, 2)
    basis_p = np.array([fast.p_real(w, basis_ket(2, x).amps) for x in range(4)])
    state = random_state(rng, 2)
    assert (
        abs(fast.p_real(w, state.amps) - basis_p @ state.probabilities()) < 1e-12
    )


def test_threshold_activation_centres_zero_mid_cell():
    fn = threshold_activation(2, 8.0)
    assert fn.fn(0.0) == 0.375  # 1/2 - 2^-3
    assert fn.fn(8.0) == 0.75
    assert fn.fn(-8.0) == 0.0
    with pytest.raises(ValueError):
        threshold_activation(0, 8.0)
    with pytest.raises(ValueError):
        threshold_activation(2, 0.0)


def test_threshold_zero_weights_label_everything_half():
    # The mid-cell offset splits the estimation mass evenly, so w = 0
    # gives P(Real) = 1/2 for every input state.
    rng = np.random.default_rng(34)
    for m1 in (1, 2, 3):
        cfg = DiscriminatorConfig(m1=m1, m2=3, activation=threshold_activation(m1, 8.0))
        fast = FastDiscriminator(cfg, 2)
        for _ in range(3):
            state = random_state(rng, 2)
            assert abs(fast.p_real(np.zeros(2), state.amps) - 0.5) < 1e-12


def test_sigmoid_zero_weights_label_everything_real():
    # The sigmoid midpoint is register-exact, which pins the w = 0 label
    # to Real with probability 1; the trainer works around this.
    cfg = DiscriminatorConfig(m1=2, m2=3)
    fast = FastDiscriminator(cfg, 2)
    state = random_state(np.random.default_rng(35), 2)
    assert abs(fast.p_real(np.zeros(2), state.amps) - 1.0) < 1e-12


def test_fast_evaluator_rejects_bad_activation_range():
    with pytest.raises(ValueError):
        FastDiscriminator(
            DiscriminatorConfig(
                m1=1, m2=2, activation=threshold_activation(1, 1.0)
            ),
            2,
        )


def _activations(m1, m2):
    # The scaled identity maps negative decoded products below 0, so it is
    # shifted by the register range to land in [0, 1).
    return (
        sigmoid_activation(),
        threshold_activation(m1, 2.0**m2),
        custom_activation(lambda t: (t + 2.0**m2) / 2.0 ** (m2 + 1)),
    )


def test_label_probs_match_circuit_on_basis_states():
    rng = np.random.default_rng(36)
    for n in range(1, 6):
        m2 = DiscriminatorConfig.for_width(n).m2
        # Every basis state up to n = 3, a sample of them beyond.
        xs = range(2**n) if n <= 3 else rng.choice(2**n, 3, replace=False)
        for m1 in (1, 2, 3):
            for act in _activations(m1, m2):
                cfg = DiscriminatorConfig(m1=m1, m2=m2, activation=act)
                w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, n))
                r, _ = FastDiscriminator(cfg, n).label_probs(w.w)
                assert r.shape == (2**n,)
                for x in xs:
                    ref = label_real_probability(w, cfg, basis_ket(n, int(x)))
                    assert abs(r[x] - ref) <= 1e-12


def test_label_probs_jacobian_matches_central_differences():
    rng = np.random.default_rng(37)
    h = 1e-6
    for n in range(1, 6):
        m2 = DiscriminatorConfig.for_width(n).m2 + 1
        for act in _activations(2, m2):
            fast = FastDiscriminator(DiscriminatorConfig(m1=2, m2=m2, activation=act), n)
            w = rng.uniform(-1.0, 1.0, n)
            r, jac = fast.label_probs(w)
            assert jac.shape == (2**n, n)
            for j in range(n):
                step = h * np.eye(n)[j]
                fd = (fast.label_probs(w + step)[0] - fast.label_probs(w - step)[0]) / (2 * h)
                assert_allclose(jac[:, j], fd, atol=1e-8)


def test_label_probs_take_a_batch_of_weights():
    rng = np.random.default_rng(38)
    fast = FastDiscriminator(
        DiscriminatorConfig(m1=2, m2=4, activation=threshold_activation(2, 16.0)), 4
    )
    grid = rng.uniform(-1.0, 1.0, (5, 4))
    r, jac = fast.label_probs(grid)
    assert r.shape == (5, 16) and jac.shape == (5, 16, 4)
    for row, w in enumerate(grid):
        one_r, one_jac = fast.label_probs(w)
        assert_allclose(r[row], one_r, rtol=0, atol=1e-15)
        assert_allclose(jac[row], one_jac, rtol=0, atol=1e-15)


def test_p_real_is_born_weighted_label_probs():
    rng = np.random.default_rng(39)
    for n, m1 in [(1, 1), (3, 2), (5, 3)]:
        cfg = DiscriminatorConfig(m1=m1, m2=DiscriminatorConfig.for_width(n).m2)
        fast = FastDiscriminator(cfg, n)
        w = rng.uniform(-1.0, 1.0, n)
        amps = random_state(rng, n).amps
        expected = np.abs(amps) ** 2 @ fast.label_probs(w)[0]
        assert abs(fast.p_real(w, amps) - expected) <= 1e-15
