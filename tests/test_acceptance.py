"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test is self-contained (its own oracles and frozen configuration)
so a failure pins down the criterion, not a shared helper. The terminal
summary in conftest.py prints one PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest

from qgansim.adversarial import TrainConfig, grad_theta, score, train, training_discriminator
from qgansim.discriminator import (
    DiscriminatorConfig,
    DiscriminatorWeights,
    FastDiscriminator,
)
from qgansim.fourier import inverse_qft, qft
from qgansim.generator import (
    GeneratorParams,
    build_exact_circuit,
    exact_angles,
    generate_state,
    num_params,
)
from qgansim.metrics import trace_distance_pure
from qgansim.phase_estimation import qpe_distribution, size_ancillas
from qgansim.qneuron import (
    WeightVector,
    min_signed_ancillas,
    qip,
    qip_signed,
    sigmoid_activation,
    truncated,
)
from qgansim.statevec import StateVector, basis_ket, run_circuit
from qgansim.svi import (
    DEFAULT_SMILE_PARAMS,
    DiscreteDistribution,
    SviParams,
    bs_price,
    density,
    discretize,
    implied_vol,
)


def random_pure_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def test_criterion_01_qft_round_trip_and_unitarity():
    """Round trip through the transform and unitarity of its matrix, all
    basis states up to n = 6, error < 1e-10, under 5 seconds."""
    from qgansim.fourier import qft_matrix

    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        mat = qft_matrix(n)
        worst = max(worst, float(np.max(np.abs(mat @ mat.conj().T - np.eye(2**n)))))
        for j in range(2**n):
            ket = basis_ket(n, j)
            back = inverse_qft(qft(ket))
            worst = max(worst, float(np.max(np.abs(back.amps - ket.amps))))
            forth = qft(inverse_qft(ket))
            worst = max(worst, float(np.max(np.abs(forth.amps - ket.amps))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_product_form_identity():
    """The transform of every basis state factors into per-qubit binary
    fraction phases, n <= 5, error < 1e-10."""
    worst = 0.0
    for n in range(1, 6):
        for j in range(2**n):
            out = qft(basis_ket(n, j)).amps
            prod = np.array([1.0 + 0j])
            for l in range(n):
                frac = (j / 2 ** (l + 1)) % 1.0
                qubit = np.array([1.0, np.exp(2j * np.pi * frac)]) / np.sqrt(2.0)
                prod = np.kron(prod, qubit)
            worst = max(worst, float(np.max(np.abs(out - prod))))
    assert worst < 1e-10


def test_criterion_03_qpe_exact_and_inexact_phases():
    """Exact m-bit phases give point masses (prob 1 +- 1e-10, exhaustive
    k for m <= 5); inexact phases on a 64-point grid succeed with
    probability >= 1 - eps at m = n + ceil(log2(2 + 1/(2 eps)))."""
    for m in range(1, 6):
        for k in range(2**m):
            dist = qpe_distribution([0.0, k / 2**m], basis_ket(1, 1), m)
            assert abs(dist[k] - 1.0) < 1e-10

    eps = 0.2
    grid = (2.0 * np.arange(64) + 1.0) / 128.0  # never register-exact
    for n in (1, 2, 3):
        m = size_ancillas(n, eps)
        outcomes = np.arange(2**m) / 2**m
        for phi in grid:
            dist = qpe_distribution([0.0, phi], basis_ket(1, 1), m)
            circ = np.minimum(np.abs(outcomes - phi), 1.0 - np.abs(outcomes - phi))
            success = float(dist[circ <= 2.0**-n + 1e-15].sum())
            assert success >= 1.0 - eps - 1e-12


def test_criterion_04_qip_classical_oracle_grid():
    """Signed estimates match the classical dot product at register
    resolution on the exhaustive x/w grid, p = 2, m = 3, under 30 s."""
    start = time.perf_counter()
    values = [0.0, 0.25, 0.5, 0.75]
    weights = [-1.0, -0.5, 0.0, 0.5, 1.0]
    checked = 0
    for x0 in values:
        for x1 in values:
            for w0 in weights:
                for w1 in weights:
                    x = [x0, x1]
                    w = WeightVector(np.array([w0, w1]))
                    t = float(truncated(x, 2) @ w.w)
                    est = qip_signed(x, w, 3, 2)
                    # even register grid: resolution 2, max error 1
                    assert abs(est - t) <= 1.0 + 1e-9, (x, (w0, w1), est, t)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 400
    assert elapsed < 30.0


def test_criterion_05_register_closed_form():
    """The inner-product register distribution matches the squared
    geometric-sum closed form within 1e-9, exhaustively for n, p, m <= 2
    and on 50 random cases at n = p = m = 3."""

    def closed_form(t, m):
        dim = 2**m
        r = np.arange(dim)
        delta = t - r
        on_grid = np.abs(np.remainder(delta, dim)) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.sin(np.pi * delta) ** 2 / (
                dim**2 * np.sin(np.pi * delta / dim) ** 2
            )
        return np.where(on_grid, 1.0, p)

    rng = np.random.default_rng(105)
    cases = []
    for n in (1, 2):
        for p in (1, 2):
            for m in (1, 2):
                for _ in range(4):
                    cases.append((n, p, m))
    cases.extend([(3, 3, 3)] * 50)
    for n, p, m in cases:
        x = rng.integers(0, 2**p, n) / 2**p
        w = WeightVector(rng.uniform(0.0, 1.0, n))
        t = float(truncated(x, p) @ w.w)
        _, dist = qip(x, w, m, p)
        assert np.max(np.abs(dist - closed_form(t, m))) < 1e-9


def test_criterion_06_exact_generator_loads_targets():
    """100 random 4-qubit simplex targets load with total variation
    below 1e-9."""
    rng = np.random.default_rng(106)
    for _ in range(100):
        masses = rng.dirichlet(np.ones(16))
        target = DiscreteDistribution(4, masses / masses.sum())
        state = run_circuit(build_exact_circuit(exact_angles(target)), basis_ket(4, 0))
        tv = 0.5 * float(np.abs(state.probabilities() - target.masses).sum())
        assert tv < 1e-9


def test_criterion_07_score_identity_and_bound():
    """S equals 1/2 Tr((P_R - P_F)(rho_t - rho_g)) within 1e-10 and is
    bounded by half the trace distance, 200 random instances, n <= 3."""
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        cfg = DiscriminatorConfig(
            m1=int(rng.integers(1, 3)), m2=min_signed_ancillas(n), activation=sigmoid_activation()
        )
        theta = GeneratorParams(rng.uniform(0.0, 2.0 * np.pi, num_params(n)))
        w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, n))
        target = random_pure_state(rng, n)

        s = float(score(theta, w, target, cfg))
        fast = FastDiscriminator(cfg, n)
        labels = np.array(
            [fast.p_real(w.w, basis_ket(n, x).amps) for x in range(2**n)]
        )
        g = generate_state(n, theta).amps
        delta = np.outer(target.amps, target.amps.conj()) - np.outer(g, g.conj())
        povm = 0.5 * float(
            np.trace((2.0 * np.diag(labels) - np.eye(2**n)) @ delta).real
        )
        assert abs(s - povm) < 1e-10
        half_td = 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())
        assert s <= half_td + 1e-10


def test_criterion_08_shift_rule_vs_finite_differences():
    """Componentwise agreement below 1e-6 on 20 random instances."""
    rng = np.random.default_rng(108)
    h = 1e-5
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cfg = DiscriminatorConfig(m1=1, m2=min_signed_ancillas(n), activation=sigmoid_activation())
        theta = GeneratorParams(rng.uniform(0.0, 2.0 * np.pi, num_params(n)))
        w = DiscriminatorWeights(rng.uniform(-1.0, 1.0, n))
        target = random_pure_state(rng, n)
        grad = grad_theta(theta, w, target, cfg)
        for i in range(grad.size):
            up, down = theta.thetas.copy(), theta.thetas.copy()
            up[i] += h
            down[i] -= h
            fd = (
                float(score(GeneratorParams(up), w, target, cfg))
                - float(score(GeneratorParams(down), w, target, cfg))
            ) / (2.0 * h)
            assert abs(grad[i] - fd) < 1e-6


def test_criterion_09_trace_distance_eigenvalue_oracle():
    """Closed form 2 sqrt(1 - F^2) vs the eigenvalue trace norm, below
    1e-9, n <= 4."""
    rng = np.random.default_rng(109)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            a, b = random_pure_state(rng, n), random_pure_state(rng, n)
            rho = np.outer(a.amps, a.amps.conj()) - np.outer(b.amps, b.amps.conj())
            oracle = float(np.abs(np.linalg.eigvalsh(rho)).sum())
            assert abs(trace_distance_pure(a, b) - oracle) < 1e-9


def test_criterion_10_svi_pipeline():
    """b = 0 collapses to the lognormal density (1e-10); implied vol
    round-trips (1e-8); bin masses add under refinement (1e-14); the
    default smile yields a normalized unimodal 16-bin target."""
    import math

    a = 0.09
    flat = SviParams(a=a, b=0.0, rho=0.0, m=0.0, xi=0.05)
    for k in np.linspace(-0.9, 0.9, 25):
        ref = math.exp(-((k + a / 2.0) ** 2) / (2.0 * a)) / math.sqrt(
            2.0 * math.pi * a
        )
        assert abs(density(flat, float(k)) - ref) < 1e-10

    for sigma in (0.1, 0.3, 0.7):
        for k in (-0.3, 0.0, 0.25):
            price = bs_price(k, sigma * sigma * 1.5)
            assert abs(implied_vol(price, k, 1.5) - sigma) < 1e-8

    for n in (1, 2, 3):
        coarse = discretize(DEFAULT_SMILE_PARAMS, n)
        fine = discretize(DEFAULT_SMILE_PARAMS, n + 1)
        merged = fine.masses.reshape(-1, 2).sum(axis=1)
        assert np.max(np.abs(merged - coarse.masses)) < 1e-14

    target = discretize(DEFAULT_SMILE_PARAMS, 4)
    assert abs(float(target.masses.sum()) - 1.0) < 1e-12
    peak = int(np.argmax(target.masses))
    assert np.all(np.diff(target.masses[: peak + 1]) > 0.0)
    assert np.all(np.diff(target.masses[peak:]) < 0.0)


def test_criterion_11_two_qubit_training():
    """Five seeds, exact gradients, 300 epochs each: mean final fidelity
    >= 0.99 against an exactly reachable target, under 60 seconds."""
    start = time.perf_counter()
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    disc = training_discriminator(2)
    finals = []
    for seed in range(5):
        cfg = TrainConfig(
            n_qubits=2, epochs=300, n_d=9, n_g=1, lr_d=1.0, lr_g=1.0, seed=seed
        )
        finals.append(train(cfg, target, disc=disc).fidelities[-1])
    elapsed = time.perf_counter() - start
    assert float(np.mean(finals)) >= 0.99, finals
    assert elapsed < 60.0


def test_criterion_12_four_qubit_svi_training():
    """Four qubits (9 angles, 4 weights, n_D = 9, n_G = 1), five seeds on
    the discretized smile: median final fidelity >= 0.9 and the median
    KL strictly below its epoch-0 value, under 10 minutes."""
    start = time.perf_counter()
    target = discretize(DEFAULT_SMILE_PARAMS, 4)
    disc = training_discriminator(4)
    finals, kl_first, kl_last = [], [], []
    for seed in range(5):
        cfg = TrainConfig(
            n_qubits=4, epochs=2000, n_d=9, n_g=1, lr_d=1.0, lr_g=0.5, seed=seed
        )
        trace = train(cfg, target, disc=disc)
        assert trace.thetas.shape[1] == 9
        assert trace.ws.shape[1] == 4
        finals.append(trace.fidelities[-1])
        kl_first.append(trace.kls[0])
        kl_last.append(trace.kls[-1])
    elapsed = time.perf_counter() - start
    assert float(np.median(finals)) >= 0.9, finals
    assert float(np.median(kl_last)) < float(np.median(kl_first))
    assert elapsed < 600.0


def test_criterion_13_two_qubit_sampled_training():
    """Criterion 11's setup with 10,000 labelling rounds per probability,
    ten seeds: median final fidelity >= 0.99, under 60 seconds."""
    start = time.perf_counter()
    target = DiscreteDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    disc = training_discriminator(2)
    finals = []
    for seed in range(10):
        cfg = TrainConfig(
            n_qubits=2, epochs=300, n_d=9, n_g=1, lr_d=1.0, lr_g=1.0, shots=10_000,
            seed=seed,
        )
        finals.append(train(cfg, target, disc=disc).fidelities[-1])
    elapsed = time.perf_counter() - start
    assert float(np.median(finals)) >= 0.99, finals
    assert elapsed < 60.0


def test_criterion_14_four_qubit_sampled_svi_training():
    """Criterion 12's setup with 1,000 labelling rounds per probability,
    five seeds: median final fidelity >= 0.9 and the median KL strictly
    below its epoch-0 value, under 10 minutes."""
    start = time.perf_counter()
    target = discretize(DEFAULT_SMILE_PARAMS, 4)
    disc = training_discriminator(4)
    finals, kl_first, kl_last = [], [], []
    for seed in range(5):
        cfg = TrainConfig(
            n_qubits=4, epochs=2000, n_d=9, n_g=1, lr_d=1.0, lr_g=0.5, shots=1000,
            seed=seed,
        )
        trace = train(cfg, target, disc=disc)
        finals.append(trace.fidelities[-1])
        kl_first.append(trace.kls[0])
        kl_last.append(trace.kls[-1])
    elapsed = time.perf_counter() - start
    assert float(np.median(finals)) >= 0.9, finals
    assert float(np.median(kl_last)) < float(np.median(kl_first))
    assert elapsed < 600.0
