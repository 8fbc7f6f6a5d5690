"""The gate kernel against full matrices built from Kronecker products."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qgansim import _kernels, statevec
from qgansim.fourier import qft, qft_circuit
from qgansim.statevec import (
    CircuitOp,
    QuantumCircuit,
    StateVector,
    pauli_x,
    ry,
    run_circuit,
    swap,
)

_I = np.eye(2)
_PROJ = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))  # |0><0|, |1><1|


def _unit(i, j):
    # |i><j| on one qubit.
    e = np.zeros((2, 2))
    e[i, j] = 1.0
    return e


def _full_matrix(n, gate, targets, controls, values=None):
    """The 2^n x 2^n matrix of `gate` on `targets`, conditioned on `controls`.

    Written as I - P + sum_{g,h} gate[g, h] |g><h|_targets (x) P_controls,
    with P the projector (x)|v><v| onto every control reading its value v
    (1 unless `values` gives one) and qubit 0 the leftmost Kronecker factor.
    """
    k = len(targets)
    value = dict(zip(controls, values if values is not None else [1] * len(controls)))

    def factors(g, h):
        out = [_PROJ[value[q]] if q in value else _I for q in range(n)]
        for i, q in enumerate(targets):
            out[q] = _unit((g >> (k - 1 - i)) & 1, (h >> (k - 1 - i)) & 1)
        return out

    proj = reduce(np.kron, [_PROJ[value[q]] if q in value else _I for q in range(n)])
    full = np.eye(2**n) - proj
    for g in range(2**k):
        for h in range(2**k):
            full = full + gate[g, h] * reduce(np.kron, factors(g, h))
    return full


def _cmask(n, controls):
    return sum(1 << (n - 1 - c) for c in controls)


def _zeros(n, controls, values):
    # The kernel's mask of the controls that condition on 0.
    return _cmask(n, [c for c, v in zip(controls, values) if not v])


_CASES = [
    (n, k, c)
    for n in range(1, 9)
    for k in range(1, min(n, 3) + 1)
    for c in range(0, min(n - k, 2) + 1)
]


def _random_case(n, k, c):
    rng = np.random.default_rng(1000 * n + 10 * k + c)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    wires = [int(w) for w in rng.permutation(n)]
    targets, controls = tuple(wires[:k]), tuple(wires[k : k + c])
    if k > 1 and targets == tuple(sorted(targets)):
        targets = targets[::-1]  # keep every multi-qubit case out of order
    values = tuple(int(v) for v in rng.integers(0, 2, c))
    return rng, amps, targets, controls, values


@pytest.mark.parametrize("block_qubits", [_kernels._BLOCK_QUBITS, 1])
@pytest.mark.parametrize("n,k,c", _CASES)
def test_dense_matches_kronecker_matrix(n, k, c, block_qubits, monkeypatch):
    # block_qubits=1 splits every gate into one sub-view per free-qubit
    # assignment, the path 2^20-amplitude registers take.
    monkeypatch.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
    rng, amps, targets, controls, values = _random_case(n, k, c)
    mat, _ = np.linalg.qr(
        rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    )
    expected = _full_matrix(n, mat, targets, controls, values) @ amps
    _kernels.apply_dense(
        amps, np.ascontiguousarray(mat), targets, n, _cmask(n, controls),
        zeros=_zeros(n, controls, values),
    )
    assert_allclose(amps, expected, rtol=0, atol=1e-12)


# Uncontrolled gates on a sorted run of wires take the span path: every run
# of k = 1..3 wires at every offset. Real matrices go through the float64
# view, complex ones through the complex array; the last wires give the
# few-column (Kronecker) products.
_SPAN_CASES = [
    (n, k, first)
    for n in range(1, 9)
    for k in range(1, min(n, 3) + 1)
    for first in range(n - k + 1)
]


def _no_blocks(*args):
    raise AssertionError("a sorted, uncontrolled run of wires left the span path")


@pytest.mark.parametrize("block_qubits", [_kernels._BLOCK_QUBITS, 1])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("n,k,first", _SPAN_CASES)
def test_dense_on_a_run_of_wires_matches_kronecker_matrix(
    n, k, first, real, block_qubits, monkeypatch
):
    monkeypatch.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
    monkeypatch.setattr(_kernels, "_blocks", _no_blocks)
    rng = np.random.default_rng(100 * n + 10 * k + first)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    raw = rng.normal(size=(2**k, 2**k))
    if not real:
        raw = raw + 1j * rng.normal(size=(2**k, 2**k))
    mat = np.ascontiguousarray(np.linalg.qr(raw)[0], dtype=np.complex128)
    targets = tuple(range(first, first + k))
    expected = _full_matrix(n, mat, targets, ()) @ amps
    _kernels.apply_dense(amps, mat, targets, n, 0)
    assert_allclose(amps, expected, rtol=0, atol=1e-12)


def test_sixteen_qubit_ry_layer_and_qft_match_slices_and_the_fft():
    # run_circuit fuses the RY layer into real blocks on runs of wires and
    # the QFT into complex ones; the reference rotates reshaped slices and
    # transforms with the FFT.
    n = 16
    rng = np.random.default_rng(16)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    layer = QuantumCircuit(n, tuple(CircuitOp(ry(a), (q,)) for q, a in enumerate(angles)))
    state = run_circuit(qft_circuit(n), run_circuit(layer, StateVector(n, amps)))
    expected = amps.copy()
    for q, angle in enumerate(angles):
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        zero, one = expected.reshape(2**q, 2, -1).transpose(1, 0, 2)
        zero[...], one[...] = c * zero - s * one, s * zero + c * one
    expected = qft(StateVector(n, expected)).amps
    assert_allclose(state.amps, expected, rtol=0, atol=1e-10)


# Diagonals over more than two qubits take the one-multiply branch.
_DIAG_CASES = _CASES + [(n, 4, c) for n in range(4, 8) for c in range(0, min(n - 4, 2) + 1)]


@pytest.mark.parametrize("n,k,c", _DIAG_CASES)
def test_diag_matches_kronecker_matrix(n, k, c):
    rng, amps, targets, controls, values = _random_case(n, k, c)
    diag = np.exp(2j * np.pi * rng.uniform(size=2**k))
    diag[rng.permutation(2**k)[: 2 ** (k - 1)]] = 1.0  # entries the kernel skips
    expected = _full_matrix(n, np.diag(diag), targets, controls, values) @ amps
    _kernels.apply_diag(amps, diag, targets, n, _cmask(n, controls), zeros=_zeros(n, controls, values))
    assert_allclose(amps, expected, rtol=0, atol=1e-12)


def test_cases_cover_unordered_targets_and_controls():
    seen = [_random_case(n, k, c)[2:] for n, k, c in _CASES]
    assert any(list(t) != sorted(t) for t, _, _ in seen)
    assert {len(ctrl) for _, ctrl, _ in seen} == {0, 1, 2}
    # Open controls, closed ones and both under one gate.
    assert {values for _, _, values in seen} >= {(0,), (1,), (0, 1), (1, 0)}


def test_diag_leaves_unit_entries_untouched():
    # A phase on |11> is the diagonal (1, 1, 1, e^(i phi)): only the |11> quarter changes,
    # and the other three quarters keep their exact bits.
    amps = np.arange(1, 17, dtype=np.complex128)
    before = amps.copy()
    phase = np.exp(0.3j)
    _kernels.apply_diag(amps, np.array([1, 1, 1, phase]), (1, 3), 4, 0)
    quarter = amps.reshape(2, 2, 2, 2)[:, 1, :, 1]
    assert_allclose(quarter, before.reshape(2, 2, 2, 2)[:, 1, :, 1] * phase)
    untouched = np.ones((2, 2, 2, 2), dtype=bool)
    untouched[:, 1, :, 1] = False
    assert np.array_equal(amps.reshape(2, 2, 2, 2)[untouched], before.reshape(2, 2, 2, 2)[untouched])


def test_numpy_dense_leaves_uncontrolled_half_alone():
    # X on qubit 1 controlled by qubit 0: |00> lives in the unsatisfied
    # half, so the amplitudes must come back unchanged.
    amps = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    mat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    before = amps.copy()
    _kernels.apply_dense(amps, mat, (1,), 2, 2)
    assert_allclose(amps, before)


def _perm_matrix(perm):
    # Column j has its 1 in row perm[j]: |j> -> |perm[j]>.
    mat = np.zeros((len(perm), len(perm)))
    mat[perm, np.arange(len(perm))] = 1.0
    return mat


@pytest.mark.parametrize("block_qubits", [_kernels._BLOCK_QUBITS, 1])
@pytest.mark.parametrize("n,k,c", _CASES)
def test_perm_matches_kronecker_matrix(n, k, c, block_qubits, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_QUBITS", block_qubits)
    rng, amps, targets, controls, values = _random_case(n, k, c)
    perm = rng.permutation(2**k)
    while np.array_equal(perm, np.arange(2**k)):
        perm = rng.permutation(2**k)
    mat = _perm_matrix(perm).astype(np.complex128)
    expected = _full_matrix(n, mat, targets, controls, values) @ amps
    _kernels.apply_dense(amps, mat, targets, n, _cmask(n, controls), zeros=_zeros(n, controls, values))
    # Each output is one amplitude times 1 plus zeros: the product is exact.
    assert_allclose(amps, expected, rtol=0, atol=0)


def test_a_fused_permutation_is_moved_exactly():
    # SWAP X SWAP on wires (0, 1) is X on wire 1: fused, the three ops make
    # exactly that 0/1 matrix, whose product moves amplitudes exactly.
    # run_circuit keeps the SWAPs in its wire frame instead and multiplies
    # by X on wire 1.
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        ops = (CircuitOp(swap(), (0, 1)), CircuitOp(pauli_x(), (0,)), CircuitOp(swap(), (0, 1)))
        [(run, wires)] = statevec._groups(statevec._wire_ops(ops))
        assert np.array_equal(statevec._matrix(run, wires), np.kron(_I, pauli_x().entries))
        out = run_circuit(QuantumCircuit(n, ops), state)
        expected = state.amps.reshape(2, 2, -1)[:, ::-1].reshape(-1)
        assert np.array_equal(out.amps, expected)


@pytest.mark.parametrize(
    "mat",
    [
        [[1, 0], [0, 0]],
        [[0, 0], [1, 1]],
        [[1, 1], [0, 0]],
        [[0, 1], [1, 1]],
        np.eye(4)[:, [0, 0, 2, 3]],
        np.eye(4)[:, [1, 0, 3, 3]],
        np.diag([1, 1, 1, -1]),
        [[0, 1j], [1, 0]],
    ],
)
def test_a_matrix_that_is_no_permutation_is_multiplied(mat):
    # 0/1 matrices with a zero column, a repeated row, or an entry that is
    # not 1: the kernel returns and matches the full matrix, as a product.
    mat = np.asarray(mat, dtype=np.complex128)
    k = len(mat).bit_length() - 1
    for n, targets, controls in ((k, tuple(range(k)), ()), (k + 2, tuple(range(k + 1, 0, -1))[:k], (0,))):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        expected = _full_matrix(n, mat, targets, controls) @ amps
        _kernels.apply_dense(amps, mat, targets, n, _cmask(n, controls))
        assert_allclose(amps, expected, rtol=0, atol=1e-12)


def test_the_identity_is_multiplied():
    # Moving amplitudes would keep a -0.0 that the product 1 * (-0.0) + 0 * x
    # turns into +0.0: the identity and X are both products.
    for mat, amps in ((np.eye(2), [-0.0, 1.0]), (pauli_x().entries, [1.0, -0.0])):
        amps = np.array(amps, dtype=np.complex128)
        _kernels.apply_dense(amps, np.asarray(mat, dtype=np.complex128), (0,), 1, 0)
        assert not np.signbit(amps.real[0])


def _permute_cases():
    rng = np.random.default_rng(11)
    cases = [(n, list(w)) for n in range(1, 5) for w in itertools.permutations(range(n))]
    cases += [(n, rng.permutation(n).tolist()) for n in range(5, 12) for _ in range(6)]
    cases += [(n, list(range(n))[::-1]) for n in range(5, 12)]
    return cases


@pytest.mark.parametrize("tile_qubits", [_kernels._TILE_QUBITS, 1])
@pytest.mark.parametrize("n,where", _permute_cases())
def test_permute_wires_transposes_the_register_in_place(n, where, tile_qubits, monkeypatch):
    # tile_qubits=1 moves one row at a time and trades single entries. The
    # result is moved, not computed, so it is exact.
    monkeypatch.setattr(_kernels, "_TILE_QUBITS", tile_qubits)
    rng = np.random.default_rng(n)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    expected = amps.reshape((2,) * n).transpose(where).reshape(-1)
    _kernels.permute_wires(amps, where, n)
    assert np.array_equal(amps, expected)


def test_permute_wires_leaves_the_identity_alone():
    amps = np.arange(8, dtype=np.complex128)
    amps.flags.writeable = False  # a write would raise
    _kernels.permute_wires(amps, [0, 1, 2], 3)


@pytest.mark.parametrize(
    "where",
    [list(range(16))[::-1], [15] + list(range(1, 15)) + [0], [1, 0] + list(range(2, 16))],
)
def test_permute_wires_makes_no_state_sized_temporary(where):
    # A bit reversal (the transpose and the row pass), a swap of the outer
    # wires (all three passes) and one of the first two (the row pass only).
    n = 16
    amps = np.zeros(2**n, dtype=np.complex128)
    tracemalloc.start()
    try:
        _kernels.permute_wires(amps, where, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes / 2
