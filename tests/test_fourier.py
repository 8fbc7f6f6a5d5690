"""QFT tests: matrix definition, round trips, the gate-level circuit, the
product-form factorization, and binary-fraction encoding."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgansim.fourier import (
    BinaryFraction,
    encode_fraction,
    inverse_qft,
    inverse_qft_circuit,
    qft,
    qft_circuit,
    qft_matrix,
)
from qgansim.statevec import MAX_QUBITS, StateVector, basis_ket, circuit_matrix, run_circuit


def product_form(j, n):
    """|QFT j> assembled qubit by qubit from binary fractions.

    Writing amps[k] = e^(2 i pi jk / 2^n) / sqrt(2^n) and expanding k in
    bits (qubit 0 most significant, weight 2^(n-1)) factors the state:
    qubit l carries (|0> + e^(2 i pi j / 2^(l+1)) |1>) / sqrt 2, i.e. the
    fraction 0.b_l ... b_0 built from the low l+1 bits of j.
    """
    state = np.array([1.0 + 0j])
    for l in range(n):
        frac = (j / 2 ** (l + 1)) % 1.0
        qubit = np.array([1.0, np.exp(2j * np.pi * frac)]) / np.sqrt(2.0)
        state = np.kron(state, qubit)
    return state


def test_qft_matrix_definition():
    n = 3
    dim = 2**n
    mat = qft_matrix(n)
    for j in range(dim):
        for k in range(dim):
            assert abs(mat[k, j] - np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)) < 1e-12


def test_qft_matrix_is_unitary():
    for n in range(1, 9):
        mat = qft_matrix(n)
        assert_allclose(mat @ mat.conj().T, np.eye(2**n), atol=1e-12)


def test_qft_matrix_width_bounds():
    with pytest.raises(ValueError):
        qft_matrix(0)
    with pytest.raises(ValueError):
        qft_matrix(13)


def test_whole_state_qft_matches_matrix():
    rng = np.random.default_rng(2)
    for n in (1, 3, 5):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        out = qft(StateVector(n, v))
        assert_allclose(out.amps, qft_matrix(n) @ v, atol=1e-12)


def test_round_trip_on_all_basis_states():
    for n in range(1, 7):
        for j in range(2**n):
            ket = basis_ket(n, j)
            back = inverse_qft(qft(ket))
            assert np.max(np.abs(back.amps - ket.amps)) < 1e-10


def test_gate_level_circuit_equals_dense_gate():
    for n in range(1, 6):
        assert_allclose(
            circuit_matrix(qft_circuit(n)), qft_matrix(n), atol=1e-10
        )


def test_product_form_on_all_basis_states():
    for n in range(1, 6):
        for j in range(2**n):
            out = qft(basis_ket(n, j))
            assert np.max(np.abs(out.amps - product_form(j, n))) < 1e-10


def test_gate_level_qft_on_sixteen_qubits_matches_the_fft():
    # Wide enough that the controlled phases fold into runs of 14 qubits.
    rng = np.random.default_rng(16)
    v = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
    state = StateVector(16, v / np.linalg.norm(v))
    out = run_circuit(qft_circuit(16), state)
    assert_allclose(out.amps, qft(state).amps, rtol=0, atol=1e-12)


def test_gate_level_inverse_circuit_is_the_conjugate_matrix():
    # F is symmetric and unitary, so conj(F) is its inverse.
    for n in range(1, 7):
        assert_allclose(
            circuit_matrix(inverse_qft_circuit(n)), qft_matrix(n).conj(), rtol=0, atol=1e-10
        )


def test_gate_level_inverse_qft_on_sixteen_qubits_matches_the_fft():
    rng = np.random.default_rng(61)
    v = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
    state = StateVector(16, v / np.linalg.norm(v))
    out = run_circuit(inverse_qft_circuit(16), state)
    assert_allclose(out.amps, inverse_qft(state).amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("build", [qft_circuit, inverse_qft_circuit])
@pytest.mark.parametrize("n", [0, MAX_QUBITS + 1, 10**9])
def test_gate_level_circuits_refuse_widths_up_front(build, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="num_qubits"):
        build(n)
    assert time.perf_counter() - start < 0.1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_round_trip_on_random_states(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    state = StateVector(n, v)
    assert np.max(np.abs(inverse_qft(qft(state)).amps - v)) < 1e-10
    assert np.max(np.abs(qft(inverse_qft(state)).amps - v)) < 1e-10


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(1, 10),
)
def test_encode_fraction_truncates_from_below(x, bits):
    frac = encode_fraction(x, bits)
    assert 0.0 <= frac.value <= x or x == 1.0
    if x < 1.0:
        assert x - frac.value < 2.0**-bits
    recon = sum(b / 2 ** (i + 1) for i, b in enumerate(frac.bits))
    assert recon == frac.value
    assert len(frac.bits) == bits


def test_encode_fraction_domain():
    with pytest.raises(ValueError):
        encode_fraction(-0.1, 3)
    with pytest.raises(ValueError):
        encode_fraction(1.5, 3)
    with pytest.raises(ValueError):
        encode_fraction(0.5, 0)
    assert encode_fraction(1.0, 3).value == 0.875


def test_binary_fraction_rejects_mismatch():
    with pytest.raises(ValueError):
        BinaryFraction((1, 0), 0.75)
    with pytest.raises(ValueError):
        BinaryFraction((2, 0), 0.5)
