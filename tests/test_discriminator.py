"""Perceptron discriminator: circuit vs closed-form evaluator (label
probabilities and the weight-gradient probes), the phase-power evaluation
against the cos/sin series, register width limits, the label law on a 1-bit
activation register, sign blindness, and the mid-cell threshold
activation."""

import time

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
from qgansim.fourier import qft_matrix
from qgansim.qneuron import custom_activation, signed_decode, sigmoid_activation
from qgansim.statevec import MAX_QUBITS, StateVector, basis_ket


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


def test_registers_beyond_the_circuit_limit_are_rejected_naming_m2():
    with pytest.raises(ValueError, match="m2"):
        DiscriminatorConfig(m1=1, m2=30)
    with pytest.raises(ValueError, match="m2"):
        DiscriminatorConfig(m1=1, m2=MAX_QUBITS - 1)
    # m1 + m2 fits, but not together with two data qubits.
    cfg = DiscriminatorConfig(m1=1, m2=MAX_QUBITS - 2)
    with pytest.raises(ValueError, match="m2"):
        FastDiscriminator(cfg, 2)
    with pytest.raises(ValueError, match="m2"):
        build_discriminator(DiscriminatorWeights(np.ones(2)), cfg, 2)


def test_widest_inner_product_register_constructs_quickly():
    # m1 + m2 + n = 20 qubits: the coefficients come from FFTs, so set-up
    # stays far from the O(N^2) cost of a dense angle table.
    m2 = MAX_QUBITS - 3
    cfg = DiscriminatorConfig(m1=1, m2=m2, activation=threshold_activation(1, 2.0**m2))
    start = time.perf_counter()
    fast = FastDiscriminator(cfg, 2)
    r = fast.label_probs(np.zeros(2))
    assert time.perf_counter() - start < 1.0
    assert r.shape == (4,)
    assert_allclose(r, 0.5, rtol=0, atol=1e-12)


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
                r = FastDiscriminator(cfg, n).label_probs(w.w)
                assert r.shape == (2**n,)
                for x in xs:
                    ref = label_real_probability(w, cfg, basis_ket(n, int(x)))
                    assert abs(r[x] - ref) <= 1e-12


@pytest.mark.parametrize("n, m1, m2", [(1, 1, 13), (2, 2, 14), (2, 1, 16)])
def test_label_probs_match_circuit_with_wide_product_registers(n, m1, m2):
    # Past the 12 qubits a dense gate may span: the activation diagonals
    # hold their 2^m2 phases. The activation is the one training uses.
    rng = np.random.default_rng(38)
    cfg = DiscriminatorConfig(m1=m1, m2=m2, activation=threshold_activation(m1, 2.0**m2))
    w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, n))
    r = FastDiscriminator(cfg, n).label_probs(w.w)
    for x in range(2**n):
        ref = label_real_probability(w, cfg, basis_ket(n, x))
        assert abs(r[x] - ref) <= 1e-12


def test_weight_probes_match_circuit_at_the_shifted_weights():
    # Every probe w +- s e_j stays in [-1, 1], where the circuit is defined.
    rng = np.random.default_rng(37)
    for n in range(1, 4):
        m2 = DiscriminatorConfig.for_width(n).m2 + 1
        for m1, act in ((2, threshold_activation(2, 2.0**m2)), (1, sigmoid_activation())):
            cfg = DiscriminatorConfig(m1=m1, m2=m2, activation=act)
            fast = FastDiscriminator(cfg, n)
            w = rng.uniform(-0.5, 0.5, n)
            for s in (0.25, 0.5):
                probes = fast.weight_probes(w, s)
                assert probes.shape == (n, 2, 2**n)
                for j in range(n):
                    for side, sign in enumerate((1.0, -1.0)):
                        shifted = DiscriminatorWeights(w + sign * s * np.eye(n)[j])
                        for x in range(2**n):
                            ref = label_real_probability(shifted, cfg, basis_ket(n, x))
                            assert abs(probes[j, side, x] - ref) <= 1e-12


def test_label_probs_take_a_batch_of_weights():
    rng = np.random.default_rng(38)
    fast = FastDiscriminator(
        DiscriminatorConfig(m1=2, m2=4, activation=threshold_activation(2, 16.0)), 4
    )
    grid = rng.uniform(-1.0, 1.0, (5, 4))
    r = fast.label_probs(grid)
    assert r.shape == (5, 16)
    for row, w in enumerate(grid):
        assert_allclose(r[row], fast.label_probs(w), rtol=0, atol=1e-15)


def test_p_real_is_born_weighted_label_probs():
    rng = np.random.default_rng(39)
    for n, m1 in [(1, 1), (3, 2), (5, 3)]:
        cfg = DiscriminatorConfig(m1=m1, m2=DiscriminatorConfig.for_width(n).m2)
        fast = FastDiscriminator(cfg, n)
        w = rng.uniform(-1.0, 1.0, n)
        amps = random_state(rng, n).amps
        expected = np.abs(amps) ** 2 @ fast.label_probs(w)
        assert abs(fast.p_real(w, amps) - expected) <= 1e-15


def test_p_real_relabels_after_another_or_a_mutated_weight_vector():
    # label_probs keeps its last r; every reuse must be of the same w.
    rng = np.random.default_rng(40)
    cfg = DiscriminatorConfig(m1=2, m2=4, activation=threshold_activation(2, 16.0))
    fast = FastDiscriminator(cfg, 4)
    amps = random_state(rng, 4).amps
    w, other = rng.uniform(-1.0, 1.0, (2, 4))

    def fresh(weights):
        return FastDiscriminator(cfg, 4).p_real(weights.copy(), amps)

    first = fast.p_real(w, amps)
    assert first == fresh(w)
    fast.label_probs(other)
    assert fast.p_real(other, amps) == fresh(other) != first
    assert fast.p_real(w, amps) == first
    w[1] += 0.25
    assert fast.p_real(w, amps) == fresh(w) != first
    # A batch holding the same bytes is another shape, so another key.
    assert fast.label_probs(w[None]).shape == (1, 16)


def test_label_probs_cannot_be_written():
    fast = FastDiscriminator(DiscriminatorConfig(m1=1, m2=2), 2)
    r = fast.label_probs(np.array([0.5, -0.25]))
    with pytest.raises(ValueError):
        r[0] = 1.0
    assert fast.label_probs(np.array([0.5, -0.25])) is r


def cos_sin_series(cfg):
    """Coefficients of the label series of FastDiscriminator, summed
    directly over the register outcomes, and an evaluator of the label
    probabilities that takes one cos and one sin per frequency."""
    m1, m2 = cfg.m1, cfg.m2
    size = 2**m2
    sigma = np.array([cfg.activation.fn(signed_decode(b, m2)) for b in range(size)])
    act = np.exp(2j * np.pi * np.arange(2**m1)[:, None] * sigma[None, :])
    act = qft_matrix(m1).conj().T @ act / np.sqrt(2.0**m1)
    readout = np.sum(np.abs(act[2 ** (m1 - 1) :]) ** 2, axis=0)
    k = np.arange(1, size)
    freq = 2.0 * np.pi * k / size
    weight = 2.0 * (size - k) / size**2
    alpha, beta = np.empty(size - 1), np.empty(size - 1)
    for lo in range(0, size - 1, 256):  # row blocks keep the angle table small
        angle = freq[lo : lo + 256, None] * np.arange(size)[None, :]
        alpha[lo : lo + 256] = np.cos(angle) @ readout
        beta[lo : lo + 256] = np.sin(angle) @ readout
    alpha *= weight
    beta *= weight

    def label_probs(n, w):
        bits = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
        phase = (w @ bits.T / 2.0)[..., None] * freq
        return readout.sum() / size + np.cos(phase) @ alpha + np.sin(phase) @ beta

    return label_probs


def test_phase_powers_match_cos_sin_series():
    # Products reach |t| = n/2 at w = +-1 on the all-ones basis state, and
    # the running product of z runs up to z^(N-1) = z^4095 at m2 = 12.
    rng = np.random.default_rng(40)
    for m2 in (1, 2, 3, 4, 5, 8, 12):
        for m1 in (1, 2, 3) if m2 < 12 else (1, 2):
            acts = _activations(m1, m2)
            # The sigmoid reaches 1.0 in floating point beyond m2 = 5.
            for act in acts if m2 <= 5 else acts[1:]:
                cfg = DiscriminatorConfig(m1=m1, m2=m2, activation=act)
                reference = cos_sin_series(cfg)
                for n in range(1, 7):
                    if m2 < cfg.min_m2(n):
                        continue
                    w = np.vstack([np.ones(n), -np.ones(n), rng.uniform(-1.0, 1.0, (2, n))])
                    r = FastDiscriminator(cfg, n).label_probs(w)
                    assert_allclose(r, reference(n, w), rtol=0, atol=1e-12)


def test_out_of_range_activation_is_rejected_naming_the_product():
    # The sigmoid rounds to 1.0 from decoded product 38 up; the widest
    # register (2^18 products) must fail the same way, with no overflow
    # warning from exp on the large negative products.
    for m2, n in ((6, 2), (MAX_QUBITS - 2, 1)):
        cfg = DiscriminatorConfig(m1=1, m2=m2)
        with pytest.raises(ValueError, match=r"^activation = sigmoid maps 38 to 1\.0"):
            FastDiscriminator(cfg, n)
        with pytest.raises(ValueError, match="activation"):
            build_discriminator(DiscriminatorWeights(np.ones(n)), cfg, n)


def test_width_check_returns_the_signed_activation_table():
    cfg = DiscriminatorConfig(m1=2, m2=3, activation=threshold_activation(2, 8.0))
    sigma = cfg.check_width(2)
    expected = [cfg.activation.fn(signed_decode(r, 3)) for r in range(8)]
    assert_allclose(sigma, expected, rtol=0, atol=0)
