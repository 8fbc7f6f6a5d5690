"""Core simulator tests: state validation, gate conventions, an
independent full-matrix oracle for controlled application, and norm
preservation under random circuits."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgansim import _kernels, statevec
from qgansim.fourier import qft_circuit, qft_matrix
from qgansim.phase_estimation import qpe_circuit, qpe_distribution
from qgansim.statevec import (
    MAX_QUBITS,
    CircuitOp,
    QuantumCircuit,
    StateVector,
    UnitaryGate,
    apply_op,
    basis_ket,
    circuit_matrix,
    diagonal,
    hadamard,
    inner,
    pauli_x,
    register_distribution,
    ry,
    run_circuit,
    shift_circuit,
    swap,
    tensor,
)

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def dense(gate, controls=0):
    """A gate's dense matrix, from circuit_matrix of a one-op circuit.

    With `controls` > 0 the gate acts on the last qubits, controlled by
    that many leading ones.
    """
    op = CircuitOp(gate, tuple(range(controls, controls + gate.arity)), tuple(range(controls)))
    return circuit_matrix(QuantumCircuit(controls + gate.arity, (op,)))


def embedded_matrix(op, num_qubits):
    """Pure-python embedding of a controlled gate into the full space.

    Built bit by bit from the convention (qubit 0 most significant),
    independently of the kernel's representative enumeration.
    """
    dim = 2**num_qubits
    k = op.gate.arity
    gate = dense(op.gate)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        if any(bits[c] != v for c, v in zip(op.controls, op.control_values)):
            mat[col, col] = 1.0
            continue
        t_in = 0
        for t in op.targets:
            t_in = (t_in << 1) | bits[t]
        for t_out in range(2**k):
            amp = gate[t_out, t_in]
            if amp == 0.0:
                continue
            new_bits = list(bits)
            for i, t in enumerate(op.targets):
                new_bits[t] = (t_out >> (k - 1 - i)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            mat[row, col] += amp
    return mat


def test_basis_ket_places_one_amplitude():
    s = basis_ket(3, 5)
    assert s.amps[5] == 1.0
    assert np.count_nonzero(s.amps) == 1
    # The width is checked before 2^n amplitudes are allocated.
    for n in (0, MAX_QUBITS + 1, 64):
        with pytest.raises(ValueError, match="num_qubits"):
            basis_ket(n, 0)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])  # norm 2
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        StateVector(0, [1.0])
    with pytest.raises(ValueError):
        StateVector(MAX_QUBITS + 1, np.zeros(2 ** (MAX_QUBITS + 1)))
    with pytest.raises(ValueError):
        StateVector(1, [np.nan, 0.0])


@pytest.mark.parametrize(
    "bad",
    [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
    + [complex(0.8, x) for x in (np.nan, np.inf, -np.inf)],
)
def test_state_vector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, [0.6, bad])


@pytest.mark.parametrize("amps", [[1.0, 1.0], [0.6, 0.79j], [0.0, 0.0]])
def test_state_vector_names_a_wrong_norm(amps):
    with pytest.raises(ValueError, match="norm"):
        StateVector(1, amps)


def test_probabilities_are_squared_magnitudes():
    s = StateVector(1, [0.6, 0.8j])
    assert_allclose(s.probabilities(), [0.36, 0.64], atol=1e-15)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of |00> must set the high bit: index 2, not 1.
    out = apply_op(basis_ket(2, 0), CircuitOp(pauli_x(), (0,)))
    assert out.amps[2] == 1.0


def test_control_gates_only_fire_on_set_controls():
    cnot = CircuitOp(pauli_x(), (1,), (0,))
    assert apply_op(basis_ket(2, 0), cnot).amps[0] == 1.0
    assert apply_op(basis_ket(2, 2), cnot).amps[3] == 1.0


def test_gate_factory_matrices():
    theta = 0.7
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    assert_allclose(dense(ry(theta)), [[c, -s], [s, c]], atol=1e-15)
    assert_allclose(dense(hadamard()), H, atol=1e-15)
    assert_allclose(dense(pauli_x()), [[0, 1], [1, 0]], atol=1e-15)
    expect = np.eye(4, dtype=complex)
    expect[2:, 2:] = [[c, -s], [s, c]]
    assert_allclose(dense(ry(theta), controls=1), expect, atol=1e-15)
    alpha = 0.3
    expect = np.diag([1.0, 1.0, 1.0, np.exp(2j * np.pi * alpha)])
    assert_allclose(dense(diagonal([0.0, alpha]), controls=1), expect, atol=1e-15)
    perm = np.zeros((4, 4))
    perm[[0, 2, 1, 3], [0, 1, 2, 3]] = 1.0
    assert_allclose(dense(swap()), perm, atol=1e-15)


def test_diagonal_uses_phase_exponents():
    gate = diagonal([0.0, 0.25, 0.5, 0.75])
    assert_allclose(
        np.diag(dense(gate)), np.exp(2j * np.pi * np.array([0, 0.25, 0.5, 0.75])),
        atol=1e-15,
    )


@pytest.mark.parametrize("phase", [1e17, 1e308, -1e308, 2.0**52 + 1.0])
def test_diagonal_of_huge_whole_phases_is_the_identity(phase):
    # Each of these phases is a whole number of turns: the gate is the
    # identity, with no overflow warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gate = diagonal([0.0, phase])
    assert np.array_equal(gate.entries, [1.0, 1.0])


def test_diagonal_phases_are_taken_mod_one():
    assert np.array_equal(diagonal([0.0, -0.25]).entries, diagonal([0.0, 0.75]).entries)
    assert np.array_equal(diagonal([2.5, -3.0]).entries, diagonal([0.5, 0.0]).entries)


def test_unitary_gate_rejects_nonunitary():
    with pytest.raises(ValueError):
        UnitaryGate(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_unitary_gate_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryGate(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "gate",
    [
        hadamard(),
        pauli_x(),
        ry(0.7),
        ry(-3.1),
        ry(1.3),
        diagonal([0.0, 0.3]),
        swap(),
        diagonal([0.1, 0.7]),
        diagonal(np.linspace(0.0, 1.0, 4)),
        diagonal(np.linspace(0.0, 1.0, 8)),
    ],
)
def test_factory_matrices_are_unitary(gate):
    # On the dense matrix the kernel applies, whatever form the gate holds,
    # alone and under a control.
    for controls in (0, 1):
        mat = dense(gate, controls)
        assert_allclose(mat @ mat.conj().T, np.eye(len(mat)), rtol=0, atol=1e-12)


def _permutation_gate(perm):
    # Column j is the unit vector e_perm[j]: |j> -> |perm[j]>.
    return UnitaryGate(np.eye(len(perm))[:, perm])


def test_factories_build_the_form_the_kernel_reads():
    # (factory gate, entries.ndim): a diagonal holds its 2^k entries, any
    # other gate its 2^k x 2^k matrix.
    cases = [
        (hadamard(), 2),
        (ry(0.7), 2),
        (pauli_x(), 2),
        (swap(), 2),
        (diagonal([0.0, 0.3]), 1),
        (diagonal([0.1, 0.2, 0.3, 0.4]), 1),
    ]
    for gate, ndim in cases:
        assert gate.entries.ndim == ndim, gate
        assert gate.entries.shape == (2**gate.arity,) * ndim
    # X and SWAP are exact 0/1 permutation matrices; run_circuit tells an
    # uncontrolled SWAP by value.
    assert np.array_equal(pauli_x().entries, [[0, 1], [1, 0]])
    assert np.array_equal(swap().entries, np.eye(4)[:, [0, 2, 1, 3]])
    assert swap() == statevec._SWAP
    # A controlled phase is a one-qubit diagonal under a control.
    assert_allclose(diagonal([0.0, 0.25]).entries, [1, 1j], atol=1e-15)
    # The width cap is the state's, not a dense matrix's.
    assert diagonal(np.zeros(2**MAX_QUBITS)).arity == MAX_QUBITS


def test_gates_compare_and_hash_by_value():
    assert swap() == swap() and hash(swap()) == hash(swap())
    assert pauli_x() == pauli_x() and hadamard() == hadamard()
    assert swap() != pauli_x()
    assert ry(0.3) != ry(0.4)
    # A diagonal never equals a dense matrix, not even the same operator's.
    assert diagonal([0.0, 0.5]) != UnitaryGate(np.diag([1.0, -1.0]))
    assert diagonal([0.0, 0.0]) != UnitaryGate(np.eye(2))
    assert len({swap(), swap(), pauli_x(), diagonal([0.0, 0.5])}) == 3
    assert hadamard() != "H"
    # Ops and circuits compare through their gates.
    assert CircuitOp(swap(), (0, 2), (1,)) == CircuitOp(swap(), (0, 2), (1,))
    assert CircuitOp(swap(), (0, 2)) != CircuitOp(swap(), (2, 0))
    assert hash(CircuitOp(ry(0.5), (1,))) == hash(CircuitOp(ry(0.5), (1,)))
    # Controls on 1 compare equal however the default is spelled; an open
    # control makes another op.
    closed = CircuitOp(ry(0.5), (1,), (0, 2))
    spelled = CircuitOp(ry(0.5), (1,), (0, 2), (1, 1))
    assert closed == spelled == CircuitOp(ry(0.5), (1,), (0, 2), [1, 1])
    assert hash(closed) == hash(spelled)
    assert closed != CircuitOp(ry(0.5), (1,), (0, 2), (1, 0))
    assert qft_circuit(5) == qft_circuit(5)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: UnitaryGate(np.ones((2, 2, 2))), r"got shape \(2, 2, 2\)"),
        (lambda: UnitaryGate(np.ones((2, 4))), r"got shape \(2, 4\)"),
        (lambda: UnitaryGate(np.eye(1)), r"got shape \(1, 1\)"),
        (lambda: UnitaryGate(np.ones(3)), r"got shape \(3,\)"),
        (lambda: UnitaryGate([1.0, 0.5]), "diagonal is not unitary"),
        (lambda: UnitaryGate([1.0, np.nan]), "diagonal is not unitary"),
        (lambda: UnitaryGate([[1.0, 1.0], [0.0, 0.0]]), "matrix is not unitary"),
        (lambda: UnitaryGate(np.eye(3)[:, [1, 2, 0]]), r"got shape \(3, 3\)"),
        (lambda: diagonal([0.0, np.nan]), "finite"),
        (lambda: diagonal([np.inf, 0.0]), "finite"),
        (lambda: CircuitOp(diagonal([0.0, np.nan]), (1,), (0,)), "finite"),
        (lambda: diagonal(np.zeros(2 ** (MAX_QUBITS + 1))), "over the limit"),
    ],
    ids=[
        "no-form", "not-square", "one-entry", "diag-length", "diag-modulus",
        "diag-nan", "perm-repeat", "perm-length", "phase-nan", "phase-inf", "controlled-phase-nan",
        "diagonal-too-wide",
    ],
)
def test_gate_constructors_reject_bad_forms(make, match):
    # Refused before any arithmetic on them: no RuntimeWarning either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            make()


def test_circuit_op_validation():
    with pytest.raises(ValueError):
        CircuitOp(hadamard(), (0, 1))  # arity mismatch
    with pytest.raises(ValueError, match="needs 1 targets, got 0"):
        CircuitOp(pauli_x(), (), (0,))  # no target
    with pytest.raises(ValueError):
        CircuitOp(pauli_x(), (1,), (1,))  # duplicate wire
    with pytest.raises(ValueError):
        CircuitOp(pauli_x(), (-1,))


@pytest.mark.parametrize(
    "targets, controls, values, key",
    [
        ((1.7,), (), None, "targets"),
        ((True,), (), None, "targets"),
        (("1",), (), None, "targets"),
        ((-1,), (), None, "targets"),
        ((0,), (0.5,), None, "controls"),
        ((0,), (False,), None, "controls"),
        ((0,), ("1",), None, "controls"),
        ((0,), (-2,), None, "controls"),
        ((0,), (1,), (0.5,), "control_values"),
        ((0,), (1,), (True,), "control_values"),
        ((0,), (1,), (2,), "control_values"),
        ((0,), (1,), (-1,), "control_values"),
        ((0,), (1,), (1, 0), "control_values"),
        ((0,), (1, 2), (1,), "control_values"),
        ((0,), (), (0,), "control_values"),
    ],
)
def test_circuit_op_refuses_wires_and_values_that_are_no_integers_in_range(
    targets, controls, values, key
):
    # Each is refused naming its field, not truncated by int(): 1.7, True
    # and "1" would each become wire 1, and a value of 0.5 a control on 0.
    with pytest.raises(ValueError, match=f"^{key} = "):
        CircuitOp(pauli_x(), targets, controls, values)


def test_circuit_op_takes_numpy_integers():
    op = CircuitOp(pauli_x(), (np.int64(2),), np.array([0, 1]), np.array([0, 1]))
    assert op == CircuitOp(pauli_x(), (2,), (0, 1), (0, 1))
    assert all(type(q) is int for q in op.targets + op.controls + op.control_values)


def test_circuit_rejects_out_of_range_op():
    with pytest.raises(ValueError):
        QuantumCircuit(1, (CircuitOp(pauli_x(), (1,)),))


def test_apply_op_matches_embedded_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 2) + 1))
        q, _ = np.linalg.qr(
            rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        )
        wires = rng.permutation(n)
        n_ctrl = int(rng.integers(0, n - k + 1))
        op = CircuitOp(UnitaryGate(q), wires[:k], wires[k : k + n_ctrl], rng.integers(0, 2, n_ctrl))
        state = random_state(rng, n)
        assert_allclose(
            apply_op(state, op).amps,
            embedded_matrix(op, n) @ state.amps,
            atol=1e-12,
        )


def test_diagonal_gate_matches_embedded_matrix_oracle():
    # Exercises the diag kernel path, which dense random gates never hit.
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        op = CircuitOp(diagonal(rng.uniform(0, 1, 4)), (1, 0), tuple(range(2, n)))
        state = random_state(rng, n)
        assert_allclose(
            apply_op(state, op).amps,
            embedded_matrix(op, n) @ state.amps,
            atol=1e-12,
        )


def test_run_circuit_composes_left_to_right():
    circ = QuantumCircuit(
        1, (CircuitOp(pauli_x(), (0,)), CircuitOp(hadamard(), (0,)))
    )
    out = run_circuit(circ, basis_ket(1, 0))
    assert_allclose(out.amps, H @ np.array([0.0, 1.0]), atol=1e-15)


def test_run_circuit_rejects_width_mismatch():
    circ = QuantumCircuit(2, (CircuitOp(hadamard(), (0,)),))
    with pytest.raises(ValueError):
        run_circuit(circ, basis_ket(1, 0))


def test_circuit_matrix_refuses_wide_circuits_before_allocating():
    # 2^16 x 2^16 complex entries would be 64 GiB.
    for n in (13, 16, MAX_QUBITS):
        with pytest.raises(ValueError, match=f"num_qubits = {n}"):
            circuit_matrix(QuantumCircuit(n, (CircuitOp(hadamard(), (0,)),)))


def test_circuit_matrix_reproduces_composition():
    theta = 1.1
    circ = QuantumCircuit(
        2, (CircuitOp(hadamard(), (0,)), CircuitOp(ry(theta), (1,), (0,)))
    )
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    cry = np.eye(4, dtype=complex)
    cry[2:, 2:] = [[c, -s], [s, c]]
    expect = cry @ np.kron(H, np.eye(2))
    assert_allclose(circuit_matrix(circ), expect, atol=1e-12)


def per_column_matrix(circuit):
    """circuit_matrix built column by column: each basis ket through apply_op."""
    n = circuit.num_qubits
    cols = []
    for j in range(2**n):
        state = basis_ket(n, j)
        for op in circuit.ops:
            state = apply_op(state, op)
        cols.append(state.amps)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", range(1, 9))
def test_circuit_matrix_matches_the_per_column_build_on_the_qft(n):
    circuit = qft_circuit(n)
    assert_allclose(circuit_matrix(circuit), per_column_matrix(circuit), rtol=0, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_circuit_matrix_matches_the_per_column_build_on_mixed_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    circuit = QuantumCircuit(n, tuple(_random_op(rng, n) for _ in range(int(rng.integers(1, 12)))))
    assert_allclose(circuit_matrix(circuit), per_column_matrix(circuit), rtol=0, atol=1e-14)


def test_register_distribution_marginalizes_trailing_qubits():
    s = StateVector(2, np.sqrt([0.1, 0.2, 0.3, 0.4]))
    assert_allclose(register_distribution(s, 1), [0.3, 0.7], atol=1e-15)
    assert_allclose(register_distribution(s, 2), [0.1, 0.2, 0.3, 0.4], atol=1e-15)
    with pytest.raises(ValueError):
        register_distribution(s, 3)


def test_tensor_puts_left_factor_most_significant():
    joint = tensor(basis_ket(1, 1), basis_ket(2, 0))
    assert joint.amps[4] == 1.0


@pytest.mark.parametrize("left, right", [(20, 20), (20, 2)])
def test_tensor_refuses_wide_products_before_allocating(left, right):
    # np.kron of two 20-qubit kets would need 16 TiB; 22 qubits, 64 MiB.
    a, b = basis_ket(left, 0), basis_ket(right, 0)
    message = rf"^num_qubits = {left + right} is not an integer in \[1, {MAX_QUBITS}\]$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            tensor(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_WIDTH_CONSTRUCTORS = {
    "StateVector": lambda n: StateVector(n, [1.0, 0.0, 0.0, 0.0]),
    "QuantumCircuit": lambda n: QuantumCircuit(n, ()),
    "basis_ket": lambda n: basis_ket(n, 1),
    "qft_matrix": qft_matrix,
    "qft_circuit": qft_circuit,
}


@pytest.mark.parametrize("build", sorted(_WIDTH_CONSTRUCTORS))
@pytest.mark.parametrize("n", [2.0, True, 0, MAX_QUBITS + 1])
def test_constructors_refuse_widths_that_are_no_integer_in_range(build, n):
    # A float or bool width is refused like an out-of-range one, not kept
    # as the width of a state or circuit, nor left to fail as a TypeError.
    # tensor's check is tested on the wide products above.
    with pytest.raises(ValueError, match=f"^num_qubits = {n!r} "):
        _WIDTH_CONSTRUCTORS[build](n)


def test_inner_conjugates_left_argument():
    a = StateVector(1, [1.0 / np.sqrt(2), 1j / np.sqrt(2)])
    b = basis_ket(1, 1)
    assert_allclose(inner(a, b), -1j / np.sqrt(2), atol=1e-15)
    with pytest.raises(ValueError):
        inner(a, basis_ket(2, 0))


def test_shift_circuit_moves_all_wires():
    circ = QuantumCircuit(3, (CircuitOp(pauli_x(), (1,), (0, 2), (0, 1)),))
    wide = shift_circuit(circ, 1, 4)
    assert wide.num_qubits == 4
    assert wide.ops[0].targets == (2,)
    assert wide.ops[0].controls == (1, 3)
    assert wide.ops[0].control_values == (0, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_circuits_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    ops = []
    for _ in range(int(rng.integers(1, 12))):
        q = int(rng.integers(0, n))
        kind = rng.integers(0, 4)
        if kind == 0:
            ops.append(CircuitOp(hadamard(), (q,)))
        elif kind == 1:
            ops.append(CircuitOp(ry(float(rng.uniform(0, 2 * np.pi))), (q,)))
        elif kind == 2 and n > 1:
            other = int((q + 1 + rng.integers(0, n - 1)) % n)
            ops.append(CircuitOp(diagonal([0.0, float(rng.uniform())]), (q,), (other,)))
        else:
            ops.append(CircuitOp(diagonal(rng.uniform(0, 1, 2)), (q,)))
    out = run_circuit(QuantumCircuit(n, tuple(ops)), random_state(rng, n))
    assert abs(float(np.sum(np.abs(out.amps) ** 2)) - 1.0) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_circuit_matrix_is_unitary(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    ops = [CircuitOp(hadamard(), (int(rng.integers(0, n)),)) for _ in range(3)]
    ops.append(CircuitOp(ry(float(rng.uniform(0, 7))), (int(rng.integers(0, n)),)))
    mat = circuit_matrix(QuantumCircuit(n, tuple(ops)))
    assert_allclose(mat @ mat.conj().T, np.eye(2**n), atol=1e-10)


def _random_op(rng, n):
    """A random dense, diagonal or permutation op, with or without controls,
    each conditioned on a random value."""
    while True:
        kind = int(rng.integers(0, 7))
        if kind == 0:
            k = int(rng.integers(1, min(n, 2) + 1))
            q, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
            gate = UnitaryGate(q)
        elif kind == 1:
            gate = [hadamard(), ry(float(rng.uniform(0, 7)))][int(rng.integers(0, 2))]
        elif kind == 2:
            # A controlled RY or phase, as in the ansatz, the QFT and the
            # perceptron: it takes at least one control where there is room.
            gate = [ry(float(rng.uniform(0, 7))), diagonal([0.0, float(rng.uniform())])][
                int(rng.integers(0, 2))
            ]
        elif kind in (3, 4):
            gate = diagonal(rng.uniform(0, 1, 2 ** int(rng.integers(1, 4))))
        elif kind == 5:
            gate = [pauli_x(), swap()][int(rng.integers(0, 2))]
        else:
            gate = _permutation_gate(rng.permutation(8))
        if gate.arity <= n:
            break
    wires = [int(w) for w in rng.permutation(n)]
    least = int(kind == 2 and n > gate.arity)
    n_ctrl = int(rng.integers(least, n - gate.arity + 1))
    values = rng.integers(0, 2, n_ctrl)
    return CircuitOp(gate, tuple(wires[: gate.arity]), tuple(wires[gate.arity :][:n_ctrl]), values)


@pytest.mark.parametrize("block_qubits", [_kernels._BLOCK_QUBITS, 2])
@pytest.mark.parametrize("fuse_qubits", [1, 2, _kernels._FUSE_QUBITS])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_run_circuit_matches_op_by_op_application(block_qubits, fuse_qubits, seed):
    # block_qubits=2 splits diagonal groups after two qubits and applies
    # dense gates in sub-views of four amplitudes;
    # fuse_qubits=1 fuses only ops on one and the same qubit.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
        mp.setattr(_kernels, "_FUSE_QUBITS", fuse_qubits)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        ops = tuple(_random_op(rng, n) for _ in range(int(rng.integers(1, 30))))
        state = random_state(rng, n)
        expected = state
        for op in ops:
            expected = apply_op(expected, op)
        out = run_circuit(QuantumCircuit(n, ops), state)
    assert_allclose(out.amps, expected.amps, rtol=0, atol=1e-12)


def test_groups_fuse_ops_that_commute_into_place():
    # The controlled-phase sweep over 20 qubits: op q couples qubits q and
    # q + 1, so a diagonal group stops when a 15th qubit would join it.
    sweep = [CircuitOp(diagonal([0.0, 0.1 * q]), (q + 1,), (q,)) for q in range(19)]
    groups = statevec._groups(statevec._wire_ops(sweep))
    assert [len(run) for run, _ in groups] == [13, 6]
    assert [wires for _, wires in groups] == [list(range(14)), list(range(13, 20))]
    # An RY layer: ops on fresh qubits fill each dense group to the width.
    width = _kernels._FUSE_QUBITS
    groups = statevec._groups(statevec._wire_ops(CircuitOp(ry(0.1 * q), (q,)) for q in range(20)))
    assert [wires for _, wires in groups] == [
        list(range(q, min(q + width, 20))) for q in range(0, 20, width)
    ]
    # H(5) may not move ahead of the phase on (0, 5), which shares qubit 5
    # with it, into H(0)'s group, though that group has room for it. Nor
    # may it join the phase: wires 0, 5 and 6 are no run, so their fused
    # matrix would miss the span path.
    h0, h1, h5 = (CircuitOp(hadamard(), (q,)) for q in (0, 1, 5))
    cz = CircuitOp(diagonal([0.0, 0.3]), (5,), (0, 6))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_FUSE_QUBITS", 3)
        groups = statevec._groups(statevec._wire_ops([h0, h1, cz, h5]))
    assert [[(t, c) for _, t, c in run] for run, _ in groups] == [
        [((0,), {}), ((1,), {})],
        [((5,), {0: 1, 6: 1})],
        [((5,), {})],
    ]


def _plan_blocks(circuit):
    # The wires of run_circuit's dense groups and of its diagonal groups.
    groups, _ = statevec._plan(circuit)
    dense = [wires for run, wires in groups if any(e.ndim == 2 for e, _, _ in run)]
    folds = [(len(run), wires) for run, wires in groups if all(e.ndim == 1 for e, _, _ in run)]
    return dense, folds


def _n20_sweeps():
    # statevec-n20's RY layer and controlled-phase sweep.
    ry_layer = QuantumCircuit(20, tuple(CircuitOp(ry(0.1 * q), (q,)) for q in range(20)))
    sweep = tuple(CircuitOp(diagonal([0.0, 0.1 * q]), (q + 1,), (q,)) for q in range(19))
    return ry_layer, QuantumCircuit(20, sweep)


@pytest.mark.parametrize(
    "make, dense, folds",
    [
        (lambda: qft_circuit(15), 5, 5),
        (lambda: qft_circuit(16), 6, 6),
        (lambda: qft_circuit(17), 6, 6),
        (lambda: qft_circuit(18), 6, 7),
        (lambda: qft_circuit(19), 7, 8),
        (lambda: qft_circuit(20), 7, 8),
        (lambda: qpe_circuit([0.0, 0.3], 16), 12, 8),
        (lambda: qpe_circuit([0.0, 0.3], 19), 14, 10),
        (lambda: _n20_sweeps()[0], 7, 0),
        (lambda: _n20_sweeps()[1], 0, 2),
    ],
)
def test_plan_pins_its_passes_over_the_state(make, dense, folds):
    # Passes do not drift with machine load: the diagonal groups between
    # two dense ones commute and are repacked into as few folds as fit.
    got_dense, got_folds = _plan_blocks(make())
    assert (len(got_dense), len(got_folds)) == (dense, folds)
    assert all(len(wires) <= _kernels._BLOCK_QUBITS for _, wires in got_folds)
    assert all(size > 1 for size, _ in got_folds)


def test_qft_plan_folds_each_diagonal_run_into_two():
    dense, folds = _plan_blocks(qft_circuit(20))
    assert dense == [list(range(q, min(q + 3, 20))) for q in range(0, 20, 3)]
    # The 51 phases after block [0, 1, 2] and the 42 after [3, 4, 5].
    assert folds[:4] == [
        (33, list(range(14))),
        (18, [0, 1, 2, *range(14, 20)]),
        (33, list(range(3, 17))),
        (9, [3, 4, 5, 17, 18, 19]),
    ]


def test_repacking_is_kept_only_when_it_makes_fewer_groups():
    # First-fit on the sorted pool can lose to circuit order: at two wires
    # a group it packs {0, 1}, {0, 3} and {1, 4}, where circuit order packs
    # {0, 3} and {1, 4}.
    pair, one = diagonal([0.0, 0.1, 0.2, 0.3]), diagonal([0.0, 0.1])
    ops = [CircuitOp(pair, (0, 3)), CircuitOp(one, (1,)), CircuitOp(one, (0,)), CircuitOp(pair, (1, 4))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK_QUBITS", 2)
        groups = statevec._groups(statevec._wire_ops(ops))
    assert [wires for _, wires in groups] == [[0, 3], [1, 4]]

def _mostly_diagonal_op(rng, n):
    """Four in five ops diagonal, over 1-3 targets, one the most likely;
    the rest an H or an RY. Each takes up to two controls on random values."""
    if rng.random() < 0.8:
        arity = min(n, int(rng.choice([1, 1, 1, 2, 2, 3])))
        gate = diagonal(rng.uniform(0, 1, 2**arity))
    else:
        gate = [hadamard(), ry(float(rng.uniform(0, 7)))][int(rng.integers(0, 2))]
    wires = [int(w) for w in rng.permutation(n)]
    n_ctrl = int(rng.integers(0, min(2, n - gate.arity) + 1))
    values = rng.integers(0, 2, n_ctrl)
    return CircuitOp(gate, tuple(wires[: gate.arity]), tuple(wires[gate.arity :][:n_ctrl]), values)


@pytest.mark.parametrize("block_qubits", [2, 3, _kernels._BLOCK_QUBITS])
@pytest.mark.parametrize("fuse_qubits", [1, _kernels._FUSE_QUBITS])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_repacked_diagonal_runs_match_op_by_op_application(block_qubits, fuse_qubits, seed):
    # block_qubits 2 and 3 cut diagonal groups short, so that their runs
    # are repacked at small widths.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    ops = tuple(_mostly_diagonal_op(rng, n) for _ in range(int(rng.integers(1, 40))))
    circuit = QuantumCircuit(n, ops)
    state = random_state(rng, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
        mp.setattr(_kernels, "_FUSE_QUBITS", fuse_qubits)
        expected = state
        for op in circuit.ops:
            expected = apply_op(expected, op)
        out = run_circuit(circuit, state)
    assert_allclose(out.amps, expected.amps, rtol=0, atol=1e-12)
    assert_allclose(out.amps, circuit_matrix(circuit) @ state.amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("block_qubits", [2, 3, _kernels._BLOCK_QUBITS])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_plan_holds_each_op_once_and_no_dense_op_moves_past_its_wires(block_qubits, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    ops = statevec._wire_ops(_mostly_diagonal_op(rng, n) for _ in range(int(rng.integers(1, 40))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
        groups = statevec._groups(ops)
    applied = [op for run, _ in groups for op in run]
    position = {id(op): p for p, op in enumerate(applied)}
    assert len(applied) == len(ops) and position.keys() == set(map(id, ops))
    for run, wires in groups:
        assert wires == sorted(set().union(*map(statevec._touched, run)))
        if len(run) > 1 and all(e.ndim == 1 for e, _, _ in run):
            assert len(wires) <= block_qubits
    # Diagonal ops commute with each other; any pair with a dense op that
    # shares a wire keeps its circuit order.
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if (a[0].ndim == 2 or b[0].ndim == 2) and statevec._touched(a) & statevec._touched(b):
                assert position[id(a)] < position[id(b)]


def test_widest_inverse_qft_peaks_at_the_closed_form_probability():
    # Phase 0.3 on 19 ancillas: the outcome nearest 0.3 * 2^19 = 157286.4,
    # with the Fejer weight of its distance 0.4.
    dist = qpe_distribution([0.0, 0.3], basis_ket(1, 1), 19)
    best = int(np.argmax(dist))
    want = np.sin(0.4 * np.pi) ** 2 / (2**38 * np.sin(0.4 * np.pi / 2**19) ** 2)
    assert best == 157286
    assert abs(dist[best] - want) <= 1e-9

def _swap_sequence(rng, n):
    # A random wire permutation as a list of wire pairs to swap in turn.
    pairs = []
    for _ in range(int(rng.integers(1, 3 * n))):
        a, b = (int(w) for w in rng.choice(n, 2, replace=False))
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("n", range(2, 14))
def test_swap_circuits_return_the_permuted_input_exactly(n):
    # The frame is applied once, by moving amplitudes, so every bit of the
    # input comes back in its new place. Odd and even widths, and the full
    # bit reversal of qft_circuit's SWAP network.
    rng = np.random.default_rng(n)
    state = random_state(rng, n)
    sequences = [_swap_sequence(rng, n) for _ in range(4)]
    sequences.append([(q, n - 1 - q) for q in range(n // 2)])
    for pairs in sequences:
        expected = state.amps.reshape((2,) * n)
        for a, b in pairs:
            expected = np.swapaxes(expected, a, b)
        circuit = QuantumCircuit(n, tuple(CircuitOp(swap(), pair) for pair in pairs))
        assert np.array_equal(run_circuit(circuit, state).amps, expected.reshape(-1))


@pytest.mark.parametrize(
    "block_qubits, tile_qubits", [(_kernels._BLOCK_QUBITS, _kernels._TILE_QUBITS), (2, 1)]
)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_run_circuit_with_swaps_matches_circuit_matrix(block_qubits, tile_qubits, seed):
    # Uncontrolled SWAPs go into the wire frame, controlled ones are
    # multiplied at once; after each uncontrolled SWAP comes an op, its
    # controls on random values, with one of its targets or controls on a
    # swapped wire. block_qubits=2 and
    # tile_qubits=1 split every kernel pass and every frame pass into the
    # smallest pieces.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    ops = []
    for _ in range(int(rng.integers(1, 12))):
        a, b = (int(w) for w in rng.choice(n, 2, replace=False))
        ops.append(CircuitOp(swap(), (a, b)))
        op = _random_op(rng, n)
        wires = op.targets + op.controls
        pick, onto = wires[int(rng.integers(0, len(wires)))], (a, b)[int(rng.integers(0, 2))]
        relabel = {pick: onto, onto: pick}
        targets, controls = (tuple(relabel.get(q, q) for q in w) for w in (op.targets, op.controls))
        ops.append(CircuitOp(op.gate, targets, controls, op.control_values))
    circuit = QuantumCircuit(n, tuple(ops))
    state = random_state(rng, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
        mp.setattr(_kernels, "_TILE_QUBITS", tile_qubits)
        out = run_circuit(circuit, state)
    assert_allclose(out.amps, circuit_matrix(circuit) @ state.amps, rtol=0, atol=1e-12)


def test_qft_swaps_make_no_state_sized_temporary():
    # The input copy is the only state-sized array: the frame is applied in
    # tiles, where one numpy transpose would make a second state.
    n = 16
    state = random_state(np.random.default_rng(16), n)
    circuit = qft_circuit(n)
    tracemalloc.start()
    try:
        run_circuit(circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * state.amps.nbytes
