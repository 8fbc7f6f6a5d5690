"""Generator constructions: the exact conditional-Bernoulli loader, the
truncated parametric ansatz, and its batched real-amplitude evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgansim.generator import (
    GeneratorParams,
    build_exact_circuit,
    build_parametric_circuit,
    exact_angles,
    exact_params_2q,
    generate_amps,
    generate_state,
    num_params,
    param_kinds,
)
from qgansim.statevec import (
    CircuitOp,
    QuantumCircuit,
    basis_ket,
    circuit_matrix,
    pauli_x,
    ry,
    run_circuit,
)
from qgansim.svi import DiscreteDistribution


def random_target(rng, n):
    masses = rng.dirichlet(np.ones(2**n))
    return DiscreteDistribution(n, masses / masses.sum())


def load_exact(target):
    circ = build_exact_circuit(exact_angles(target))
    return run_circuit(circ, basis_ket(target.n_qubits, 0))


def dressed_exact_circuit(angles):
    """The loader with controls on 1 only: each 0 bit of a prefix is
    flipped by X before and after the prefix's RY."""
    n = len(angles).bit_length()
    ops = []
    for prefix, theta in sorted(angles.items(), key=lambda item: (len(item[0]), item[0])):
        flips = [CircuitOp(pauli_x(), (q,)) for q, bit in enumerate(prefix) if bit == 0]
        ops += flips + [CircuitOp(ry(theta), (len(prefix),), tuple(range(len(prefix))))] + flips
    return QuantumCircuit(n, tuple(ops))


def dressed_parametric_circuit(n, thetas):
    """The ansatz with controls on 1 only: stage k's second CRY between two
    X gates on its control."""
    ops = [CircuitOp(ry(thetas[0]), (0,))]
    for k in range(2, n + 1):
        flip = CircuitOp(pauli_x(), (k - 2,))
        ops += [CircuitOp(ry(thetas[2 * k - 3]), (k - 1,), (k - 2,)), flip]
        ops += [CircuitOp(ry(thetas[2 * k - 2]), (k - 1,), (k - 2,)), flip]
    ops += [CircuitOp(ry(thetas[2 * n - 1 + j]), (j + 2,)) for j in range(n - 2)]
    return QuantumCircuit(n, tuple(ops))


def test_num_params():
    assert num_params(1) == 1
    assert num_params(2) == 3
    assert num_params(4) == 9
    with pytest.raises(ValueError):
        num_params(0)


def test_param_kinds():
    assert param_kinds(1) == ("ry",)
    assert param_kinds(2) == ("ry", "cry", "cry")
    assert param_kinds(4) == (
        "ry", "cry", "cry", "cry", "cry", "cry", "cry", "ry", "ry",
    )


def test_generator_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(np.array([]))
    with pytest.raises(ValueError):
        GeneratorParams(np.array([np.nan]))
    with pytest.raises(ValueError):
        build_parametric_circuit(2, GeneratorParams(np.array([0.1])))


def test_exact_circuit_loads_targets():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            target = random_target(rng, n)
            state = load_exact(target)
            tv = 0.5 * np.abs(state.probabilities() - target.masses).sum()
            assert tv < 1e-9
            # closed-form amplitudes: all real and nonnegative
            assert np.max(np.abs(state.amps.imag)) < 1e-12
            assert np.min(state.amps.real) > -1e-12


def test_exact_circuit_handles_zero_mass_prefixes():
    target = DiscreteDistribution(2, np.array([0.0, 0.0, 0.25, 0.75]))
    state = load_exact(target)
    assert_allclose(state.probabilities(), target.masses, atol=1e-12)


def test_exact_circuit_point_mass():
    target = DiscreteDistribution(2, np.array([0.0, 0.0, 0.0, 1.0]))
    assert abs(load_exact(target).amps[3] - 1.0) < 1e-12


def test_single_qubit_ansatz_is_a_rotation():
    theta = 1.3
    state = generate_state(1, GeneratorParams(np.array([theta])))
    assert_allclose(
        state.amps, [np.cos(theta / 2.0), np.sin(theta / 2.0)], atol=1e-12
    )


def test_two_qubit_ansatz_subsumes_exact_construction():
    rng = np.random.default_rng(22)
    for _ in range(10):
        target = random_target(rng, 2)
        state = generate_state(2, exact_params_2q(target))
        assert np.max(np.abs(state.probabilities() - target.masses)) < 1e-10


def test_exact_params_2q_rejects_other_widths():
    with pytest.raises(ValueError):
        exact_params_2q(DiscreteDistribution(1, np.array([0.5, 0.5])))


def test_ansatz_amplitudes_are_real():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        state = generate_state(n, GeneratorParams(rng.uniform(0, 2 * np.pi, num_params(n))))
        assert np.max(np.abs(state.amps.imag)) < 1e-12


def test_ansatz_circuit_structure():
    circ = build_parametric_circuit(4, GeneratorParams(np.zeros(9)))
    assert circ.num_qubits == 4
    # 1 ry + 3 stages x 2 cry + 2 mixing ry: one op per angle, no X.
    assert len(circ.ops) == 1 + 3 * 2 + 2
    assert [op.control_values for op in circ.ops[1:7]] == [(1,), (0,)] * 3


@pytest.mark.parametrize("n", range(1, 7))
def test_open_controls_match_the_x_dressed_circuits(n):
    # Not bitwise: the X products turn -0.0 into +0.0.
    rng = np.random.default_rng(30 + n)
    for _ in range(3):
        angles = exact_angles(random_target(rng, n))
        circ = build_exact_circuit(angles)
        assert len(circ.ops) == 2**n - 1
        assert all(op.gate != pauli_x() for op in circ.ops)
        dressed = dressed_exact_circuit(angles)
        assert_allclose(circuit_matrix(circ), circuit_matrix(dressed), rtol=0, atol=1e-12)
        assert_allclose(
            run_circuit(circ, basis_ket(n, 0)).amps, run_circuit(dressed, basis_ket(n, 0)).amps,
            rtol=0, atol=1e-12,
        )
        thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, num_params(n))
        circ = build_parametric_circuit(n, GeneratorParams(thetas))
        assert len(circ.ops) == num_params(n)
        dressed = dressed_parametric_circuit(n, thetas)
        assert_allclose(circuit_matrix(circ), circuit_matrix(dressed), rtol=0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_simplex_targets_load_exactly(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    target = random_target(rng, n)
    state = load_exact(target)
    assert 0.5 * np.abs(state.probabilities() - target.masses).sum() < 1e-9


def test_generate_amps_matches_circuit_on_a_batch():
    rng = np.random.default_rng(71)
    for n in range(1, 9):
        thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (6, num_params(n)))
        amps = generate_amps(n, thetas)
        assert amps.shape == (6, 2**n) and amps.dtype == np.float64
        for row, angles in enumerate(thetas):
            ref = generate_state(n, GeneratorParams(angles)).amps
            assert np.max(np.abs(amps[row] - ref)) <= 1e-12


def test_generate_amps_rows_are_bitwise_single_calls():
    # C order matters: training multiplies probes**2 @ r, and BLAS may round
    # another layout differently.
    rng = np.random.default_rng(72)
    for n in range(1, 9):
        for batch in (1, 3, 110):
            thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (batch, num_params(n)))
            amps = generate_amps(n, thetas)
            assert amps.flags.c_contiguous and amps.dtype == np.float64
            assert amps.shape == (batch, 2**n)
            for row in range(0, batch, 37):
                single = generate_amps(n, thetas[row : row + 1])
                assert single.tobytes() == amps[row].tobytes()


def test_generate_amps_leaves_earlier_results_and_inputs_alone():
    rng = np.random.default_rng(73)
    n = 6
    thetas = rng.uniform(0.0, np.pi, (4, num_params(n)))
    kept = thetas.copy()
    first = generate_amps(n, thetas)
    snapshot = first.copy()
    generate_amps(n, rng.uniform(0.0, np.pi, (4, num_params(n))))
    generate_amps(n, thetas[::-1])
    assert first.tobytes() == snapshot.tobytes()
    assert thetas.tobytes() == kept.tobytes()
    # Any input layout gives the same bits.
    assert generate_amps(n, np.asfortranarray(thetas)).tobytes() == first.tobytes()


def test_generate_amps_takes_an_empty_batch():
    for n in (1, 2, 5):
        assert generate_amps(n, np.zeros((0, num_params(n)))).shape == (0, 2**n)


def test_generate_amps_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        generate_amps(3, np.zeros(num_params(3)))
    with pytest.raises(ValueError):
        generate_amps(3, np.zeros((2, num_params(3) + 1)))
