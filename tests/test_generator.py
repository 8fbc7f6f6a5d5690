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
from qgansim.statevec import basis_ket, run_circuit
from qgansim.svi import DiscreteDistribution


def random_target(rng, n):
    masses = rng.dirichlet(np.ones(2**n))
    return DiscreteDistribution(n, masses / masses.sum())


def load_exact(target):
    circ = build_exact_circuit(exact_angles(target))
    return run_circuit(circ, basis_ket(target.n_qubits, 0))


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
    # 1 ry + 3 stages x (2 cry + 2 x) + 2 mixing ry
    assert len(circ.ops) == 1 + 3 * 4 + 2


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


def test_generate_amps_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        generate_amps(3, np.zeros(num_params(3)))
    with pytest.raises(ValueError):
        generate_amps(3, np.zeros((2, num_params(3) + 1)))
