"""Neuron primitives: encoding, the phase-encoded inner product against
its closed form, the signed decode, and the activation stage."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qgansim.fourier import qft_circuit
from qgansim.phase_estimation import qpe_circuit, register_readout
from qgansim.qneuron import (
    ActivationFn,
    WeightVector,
    _products,
    activation_table,
    encode_input,
    neuron_forward,
    qip,
    qip_signed,
    scaled_identity_activation,
    sigmoid_activation,
    signed_decode,
    truncated,
)
from qgansim.statevec import QuantumCircuit, basis_ket, run_circuit, tensor


def closed_form_register(t, m):
    """Exact outcome distribution of an m-bit register estimating t.

    P(r) = |sum_j e^(2 i pi j (t - r) / 2^m)|^2 / 4^m, the squared
    geometric sum, with the limit 1 on register-exact values.
    """
    dim = 2**m
    r = np.arange(dim)
    delta = t - r
    on_grid = np.abs(np.remainder(delta, dim)) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.sin(np.pi * delta) ** 2 / (dim**2 * np.sin(np.pi * delta / dim) ** 2)
    return np.where(on_grid, 1.0, p)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(np.array([1.5]))
    with pytest.raises(ValueError):
        WeightVector(np.array([]))
    with pytest.raises(ValueError):
        WeightVector(np.array([np.inf]))
    WeightVector(np.array([-1.0, 1.0]))  # closed interval endpoints pass


def test_encode_input_concatenates_digit_registers():
    state = encode_input([0.75, 0.25], 2)
    # digits 11 and 01 concatenate to index 0b1101 = 13
    assert state.num_qubits == 4
    assert state.amps[13] == 1.0
    with pytest.raises(ValueError, match="nonempty"):
        encode_input([], 2)


def test_truncated_matches_encoding_resolution():
    assert_allclose(truncated([0.3, 0.9], 2), [0.25, 0.75])
    assert_allclose(truncated([0.3, 0.9], 4), [0.25, 0.875])


def test_qip_register_distribution_matches_closed_form():
    rng = np.random.default_rng(4)
    for n, p, m in [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 3)]:
        for _ in range(4):
            x = rng.integers(0, 2**p, n) / 2**p
            w = WeightVector(rng.uniform(0.0, 1.0, n))
            t = float(truncated(x, p) @ w.w)
            _, dist = qip(x, w, m, p)
            assert np.max(np.abs(dist - closed_form_register(t, m))) < 1e-9


def test_qip_recovers_integer_products_exactly():
    # x~ . w = 1 on a 2-bit register: point mass at outcome 1.
    est, dist = qip([0.5, 0.5], WeightVector(np.array([1.0, 1.0])), 2, 1)
    assert est == 1
    assert abs(dist[1] - 1.0) < 1e-12


def test_signed_decode_convention():
    assert [signed_decode(r, 3) for r in range(8)] == [0, 2, 4, 6, -8, -6, -4, -2]
    # the unassigned boundary register decodes on the negative branch
    assert signed_decode(2, 2) == -4


def test_qip_breaks_rounding_ties_at_the_lowest_outcome():
    # The product -0.5 sits halfway between outcomes 3 and 0 (= 4 mod 4):
    # both have probability 1/4 + sqrt(2)/8 = 0.4268 up to rounding.
    est, dist = qip([0.5], WeightVector(np.array([-1.0])), 2, 1)
    assert abs(dist[0] - dist[3]) <= 1e-12 and dist[0] != dist[3]
    assert abs(dist[0] - (0.25 + np.sqrt(2.0) / 8.0)) <= 1e-12
    assert est == 0


def test_qip_signed_matches_dot_product_at_register_resolution():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        m = int(np.ceil(np.log2(n))) + 1 + int(rng.integers(0, 2))
        x = rng.integers(0, 2**p, n) / 2**p
        w = WeightVector(rng.uniform(-1.0, 1.0, n))
        t = float(truncated(x, p) @ w.w)
        est = qip_signed(x, w, m, p)
        assert est % 2 == 0
        assert abs(est - t) <= 1.0 + 1e-9


def test_qip_signed_rejects_narrow_register():
    with pytest.raises(ValueError):
        qip_signed([0.5, 0.5, 0.5], WeightVector(np.ones(3)), 1, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_u_wm_phase_profile(m):
    # Before its inverse QFT, the inner-product estimation must tag ancilla
    # value j with phase j * t / 2^m; undo that QFT and check the amplitudes
    # directly on a 1-feature, 1-digit instance.
    w = WeightVector(np.array([0.8]))
    circ = qpe_circuit(_products(w, m, 1) / 2**m, m)
    undone = QuantumCircuit(m + 1, circ.ops + qft_circuit(m).ops)
    out = run_circuit(undone, tensor(basis_ket(m, 0), basis_ket(1, 1)))
    for j in range(2**m):
        expect = np.exp(2j * np.pi * j * (0.5 * 0.8) / 2**m) / np.sqrt(2**m)
        assert abs(out.amps[2 * j + 1] - expect) < 1e-12


def test_u_wm_validation():
    w = WeightVector(np.array([0.5]))
    with pytest.raises(ValueError, match="^ancillas = 0 "):
        qip([0.5], w, 0, 1)
    with pytest.raises(ValueError, match="^precision = 0 "):
        qip([0.5], w, 1, 0)
    # Refused before any phase is built.
    with pytest.raises(ValueError, match="^ancillas = 60 "):
        qip([0.5], w, 60, 1)


def test_wide_data_registers_are_refused_before_their_products():
    # 2^(10^6) products could never be allocated: the width check comes first.
    w = WeightVector(np.array([0.5, 0.25]))
    for run, key in (
        (
            lambda: qip([0.5, 0.5], w, 3, 10**6),
            "^ancillas = 3 with 2 inputs at precision = 1000000 ",
        ),
        (
            lambda: neuron_forward([0.5, 0.5], w, sigmoid_activation(), 2, 3, 10**6),
            "^ancillas m1 = 2 and m2 = 3 with 2 inputs at precision = 1000000 ",
        ),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=key):
            run()
        assert time.perf_counter() - start < 0.1


def test_activation_fn_names():
    assert sigmoid_activation().name == "sigmoid"
    assert scaled_identity_activation(3).name == "identity"
    assert ActivationFn("custom", lambda t: 0.25).name == "custom"
    with pytest.raises(ValueError):
        ActivationFn("relu", lambda t: t)


def test_build_activation_writes_representable_values_exactly():
    fn = scaled_identity_activation(2)  # sigma(x) = x / 4, register exact
    circ = qpe_circuit(activation_table(fn, np.arange(4)), 2)
    for x in range(4):
        dist = register_readout(circ, 2, basis_ket(2, x), 2)
        assert abs(dist[x] - 1.0) < 1e-10


def test_build_activation_rejects_out_of_range_values():
    for value in (1.0, -0.25):
        fn = ActivationFn("custom", lambda t: value)
        with pytest.raises(ValueError):
            qpe_circuit(activation_table(fn, np.arange(2)), 1)


def test_neuron_forward_identity_concentrates_on_scaled_product():
    # t = 1 on the m2 register, identity activation 1/4, m1 register 1.
    dist = neuron_forward(
        [0.5, 0.5],
        WeightVector(np.array([1.0, 1.0])),
        scaled_identity_activation(2),
        2,
        2,
        1,
    )
    assert_allclose(dist, [0.0, 1.0, 0.0, 0.0], atol=1e-10)


def test_neuron_forward_distribution_normalizes():
    dist = neuron_forward(
        [0.75, 0.25],
        WeightVector(np.array([0.9, -0.4])),
        sigmoid_activation(),
        2,
        3,
        2,
    )
    assert dist.shape == (4,)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert np.all(dist >= -1e-15)


def test_signed_decode_takes_arrays_and_scalars_alike():
    outcomes = np.arange(8)
    decoded = signed_decode(outcomes, 3)
    assert decoded.tolist() == [signed_decode(int(r), 3) for r in outcomes]
    assert decoded.tolist() == [0, 2, 4, 6, -8, -6, -4, -2]


def test_build_activation_broadcasts_a_scalar_activation():
    sigma = activation_table(ActivationFn("custom", lambda t: 0.25), np.arange(2))
    circ = qpe_circuit(sigma, 2)
    assert circ.num_qubits == 3
