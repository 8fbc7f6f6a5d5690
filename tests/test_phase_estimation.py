"""Phase estimation: exact phases give point masses, inexact phases obey
the textbook ancilla-budget bound, and sampling is seed-deterministic."""

import warnings

import numpy as np
import pytest

from qgansim.phase_estimation import (
    estimate_phase,
    qpe_circuit,
    qpe_distribution,
    register_readout,
    size_ancillas,
)
from qgansim.statevec import (
    MAX_QUBITS,
    CircuitOp,
    QuantumCircuit,
    StateVector,
    basis_ket,
    hadamard,
)
from test_qneuron import closed_form_register


def test_register_readout_on_plus_state():
    # H on the ancilla of |0> (x) |1>: the plus state on the leading qubit.
    circuit = QuantumCircuit(2, (CircuitOp(hadamard(), (0,)),))
    data = basis_ket(1, 1)
    np.testing.assert_allclose(register_readout(circuit, 1, data, 1), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        register_readout(circuit, 1, data, 2), [0.0, 0.5, 0.0, 0.5], atol=1e-15
    )
    with pytest.raises(ValueError, match="register width"):
        register_readout(circuit, 1, data, 3)
    with pytest.raises(ValueError, match="widths differ"):
        register_readout(circuit, 2, data, 1)


def test_exact_phases_are_point_masses():
    for m in range(1, 5):
        for k in range(2**m):
            dist = qpe_distribution([0.0, k / 2**m], basis_ket(1, 1), m)
            assert abs(dist[k] - 1.0) < 1e-10


def test_distribution_mode_is_nearest_register():
    phi = 0.3
    m = 4
    dist = qpe_distribution([0.0, phi], basis_ket(1, 1), m)
    assert int(np.argmax(dist)) == round(phi * 2**m)
    assert abs(dist.sum() - 1.0) < 1e-12


def test_inexact_phase_success_bound():
    # m = n + ceil(log2(2 + 1/(2 eps))) ancillas put the estimate within
    # 2^-n of phi with probability at least 1 - eps.
    eps = 0.25
    for n in (1, 2, 3):
        m = size_ancillas(n, eps)
        for phi in np.linspace(0.0, 1.0, 17, endpoint=False):
            dist = qpe_distribution([0.0, phi], basis_ket(1, 1), m)
            outcomes = np.arange(2**m) / 2**m
            circ = np.minimum(np.abs(outcomes - phi), 1.0 - np.abs(outcomes - phi))
            assert dist[circ <= 2.0**-n].sum() >= 1.0 - eps - 1e-12


def test_size_ancillas_formula():
    assert size_ancillas(3, 0.1) == 6
    assert size_ancillas(1, 0.25) == 3
    assert size_ancillas(4, 0.5) == 6
    with pytest.raises(ValueError):
        size_ancillas(0, 0.1)
    with pytest.raises(ValueError):
        size_ancillas(2, 0.0)


def test_estimate_phase_on_a_register_sized_from_accuracy():
    m = size_ancillas(3, 0.1)
    est = estimate_phase([0.0, 0.37], basis_ket(1, 1), m, rng_seed=4)
    assert m == 6 and est * 2**m == int(est * 2**m)
    with pytest.raises(ValueError, match="^ancillas = "):
        estimate_phase([0.0, 0.37], basis_ket(1, 1), 0, rng_seed=4)


def test_multi_qubit_eigenstate():
    # Two-qubit diagonal unitary, eigenstate |11> carries phase 5/8.
    dist = qpe_distribution([0.0, 0.25, 0.5, 5.0 / 8.0], basis_ket(2, 3), 3)
    assert abs(dist[5] - 1.0) < 1e-10


def test_rejects_non_eigenstate():
    # |+> mixes the eigenstates |0> and |1> of Diag(1, -1).
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(ValueError, match="^state is not an eigenvector"):
        qpe_distribution([0.0, 0.5], plus, 3)


def test_rejects_width_mismatch():
    with pytest.raises(ValueError):
        qpe_distribution([0.0, 0.5], basis_ket(2, 0), 3)


def test_circuit_width():
    circ = qpe_circuit([0.0, 0.5], 4)
    assert circ.num_qubits == 5


def test_estimate_phase_is_seed_deterministic():
    m = size_ancillas(2, 0.2)
    first = estimate_phase([0.0, 0.37], basis_ket(1, 1), m, rng_seed=9)
    second = estimate_phase([0.0, 0.37], basis_ket(1, 1), m, rng_seed=9)
    assert first == second
    assert abs(first - 0.37) < 0.25  # coarse sanity on the sampled value


def test_estimate_lives_on_the_register_grid():
    est = estimate_phase([0.0, 0.61], basis_ket(1, 1), 4, rng_seed=1)
    assert est in {k / 16 for k in range(16)}


def test_wrapped_phase_estimates_near_one():
    dist = qpe_distribution([0.0, 15.0 / 16.0], basis_ket(1, 1), 4)
    assert abs(dist[15] - 1.0) < 1e-10


@pytest.mark.parametrize("m", [13, 14, 15, 16])
def test_wide_registers_match_the_closed_form(m):
    # Wider than any dense gate may be (12 qubits): the inverse QFT runs gate by gate.
    phi = 0.3
    dist = qpe_distribution([0.0, phi], basis_ket(1, 1), m)
    assert np.max(np.abs(dist - closed_form_register(phi * 2**m, m))) < 1e-12


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"ancillas": 2.5}, "ancillas"),
        ({"ancillas": True}, "ancillas"),
        ({"ancillas": 0}, "ancillas"),
        ({"ancillas": "4"}, "ancillas"),
        ({"accuracy_bits": -4}, "accuracy_bits"),
        ({"accuracy_bits": 0}, "accuracy_bits"),
        ({"accuracy_bits": 1.0}, "accuracy_bits"),
        ({"failure_prob": 0.0}, "failure_prob"),
        ({"failure_prob": 1.0}, "failure_prob"),
        ({"failure_prob": float("nan")}, "failure_prob"),
        ({"failure_prob": "0.1"}, "failure_prob"),
        ({"failure_prob": True}, "failure_prob"),
    ],
)
def test_config_rejects_bad_settings_naming_the_key(kwargs, key):
    # estimate_phase takes the register width; size_ancillas takes the
    # accuracy and failure budget that size it.
    settings = {"ancillas": 4, "accuracy_bits": 2, "failure_prob": 0.1, **kwargs}
    with pytest.raises(ValueError, match=f"^{key} = "):
        estimate_phase([0.0, 0.5], basis_ket(1, 1), settings["ancillas"], rng_seed=0)
        size_ancillas(settings["accuracy_bits"], settings["failure_prob"])


@pytest.mark.parametrize("ancillas", [0, MAX_QUBITS, 10**9, 2.0, True])
def test_circuit_refuses_bad_registers_before_the_squarings(ancillas):
    # Refused before any of the powers is built.
    with pytest.raises(ValueError, match="^ancillas = "):
        qpe_circuit([0.0, 0.5], ancillas)


@pytest.mark.parametrize("m", [13, 14, 15, 16])
def test_exact_phases_on_wide_registers_are_point_masses(m):
    # Each power is the phase scaled by 2^j after reduction mod 1, so it is
    # exact; repeated squaring of the diagonal lost 1e-12 at m = 14.
    rng = np.random.default_rng(m)
    for k in rng.integers(0, 2**m, 3):
        dist = qpe_distribution([0.0, k / 2**m], basis_ket(1, 1), m)
        point = np.zeros(2**m)
        point[k] = 1.0
        assert np.max(np.abs(dist - point)) < 1e-13


@pytest.mark.parametrize(
    "phases, message",
    [
        ([0.0, float("nan")], "^phases must be finite"),
        ([float("inf"), 0.0], "^phases must be finite"),
        ([0.0, -float("inf")], "^phases must be finite"),
        ([0.0, 1e400], "^phases must be finite"),
        ([0.0], "^phases length must be a power of 2"),
        ([0.0, 0.25, 0.5], "^phases length must be a power of 2"),
    ],
)
def test_circuit_refuses_bad_phases_without_a_warning(phases, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            qpe_circuit(phases, 3)

