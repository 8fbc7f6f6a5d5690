"""train() replayed as plainly as the paper states it: every label
probability from the perceptron circuit on a generated state, one circuit
per probe, the weight probes and the shift rule one parameter at a time,
and the random draws in the order train() documents. The fast paths that
train() takes (closed-form label probabilities, batched generator
amplitudes, vectorised probes and binomial draws) must follow it epoch by
epoch."""

from types import SimpleNamespace

import numpy as np
import pytest

from qgansim.adversarial import TrainConfig, train, training_discriminator
from qgansim.discriminator import label_real_probability
from qgansim.generator import GeneratorParams, generate_state, num_params, param_kinds
from qgansim.svi import DEFAULT_SMILE_PARAMS, discretize, target_state

# Shift-rule stencils, (shift, coefficient) pairs: RY has the frequency
# 1/2 in its angle, a controlled RY also 1.
_PLUS = (np.sqrt(2.0) + 1.0) / (4.0 * np.sqrt(2.0))
_MINUS = (np.sqrt(2.0) - 1.0) / (4.0 * np.sqrt(2.0))
_STENCILS = {
    "ry": ((np.pi / 2, 0.5), (-np.pi / 2, -0.5)),
    "cry": (
        (np.pi / 2, _PLUS), (-np.pi / 2, -_PLUS), (3 * np.pi / 2, -_MINUS), (-3 * np.pi / 2, _MINUS)
    ),
}


def reference_train(cfg, target):
    """(score, thetas, w) after each epoch, and the number of restarts."""
    n = cfg.n_qubits
    disc = training_discriminator(n)
    rng = np.random.default_rng(cfg.seed)
    target_sv = target_state(target)

    def state(thetas):
        return generate_state(n, GeneratorParams(thetas))

    def label(w, sv):
        # The circuit is defined at any w; a probe w +- s e_j may leave the
        # [-1, 1] box that DiscriminatorWeights admits.
        return label_real_probability(SimpleNamespace(w=np.array(w)), disc, sv)

    def estimate(p_t, p_g):
        if cfg.shots == 0:
            return p_t - p_g
        hits_t = rng.binomial(cfg.shots, min(max(p_t, 0.0), 1.0))
        hits_g = rng.binomial(cfg.shots, min(max(p_g, 0.0), 1.0))
        return hits_t / cfg.shots - hits_g / cfg.shots

    # One uniform draw of the angles; each mixing RY is scaled into the
    # range that keeps the amplitudes it mixes nonnegative.
    draw = rng.uniform(0.0, np.pi, num_params(n))
    thetas = draw.copy()
    first = 2 * n - 1
    thetas[first:] = 0.0
    for i in range(first, draw.size):
        pairs = state(thetas).amps.real.reshape(2 ** (i - first + 2), 2, -1)
        thetas[i] = draw[i] / np.pi * 2.0 * np.arctan2(pairs[:, 0], pairs[:, 1]).min()
    w = rng.uniform(-1.0, 1.0, n)

    rows, restarts, needs_restart = [], 0, False
    for _ in range(cfg.epochs):
        gen_sv = state(thetas)
        if needs_restart:
            w = rng.uniform(-1.0, 1.0, n)
            restarts += 1
        for _ in range(cfg.n_d):
            grad = np.zeros(n)
            for j in range(n):
                s = []
                for sign in (1.0, -1.0):
                    probe = w.copy()
                    probe[j] += sign * cfg.fd_step
                    s.append(estimate(label(probe, target_sv), label(probe, gen_sv)))
                grad[j] = (s[0] - s[1]) / (2.0 * cfg.fd_step)
            w = np.clip(w + cfg.lr_d * grad, -1.0, 1.0)
        p_t = label(w, target_sv)
        needs_restart = estimate(p_t, label(w, gen_sv)) <= 0.0
        for _ in range(cfg.n_g):
            grad = np.zeros(thetas.size)
            for i, kind in enumerate(param_kinds(n)):
                for shift, coef in _STENCILS[kind]:
                    probe = thetas.copy()
                    probe[i] += shift
                    grad[i] += coef * estimate(p_t, label(w, state(probe)))
            thetas = thetas - cfg.lr_g * grad
        rows.append((p_t - label(w, state(thetas)), thetas, w))
    return rows, restarts


# (n, shots, n_g): every width exact and sampled at one descent step, and
# at two, where train()'s second step of an epoch generates probes of its
# own and the first reuses those generated with the previous epoch's state.
# n = 4 is the width of the paper's smile run.
_CASES = [(n, shots, 1) for n in (1, 2, 3, 4) for shots in (0, 200)]
_CASES += [(n, shots, 2) for n in (2, 3) for shots in (0, 200)]


@pytest.mark.parametrize(
    "n, shots, n_g", _CASES, ids=[f"{n}-{s}" + ("" if g == 1 else f"-ng{g}") for n, s, g in _CASES]
)
def test_train_follows_the_circuit_level_reference(n, shots, n_g):
    cfg = TrainConfig(n_qubits=n, epochs=4, n_d=2, n_g=n_g, lr_d=1.0, lr_g=0.5, shots=shots, seed=n)
    target = discretize(DEFAULT_SMILE_PARAMS, n)
    trace = train(cfg, target)
    rows, restarts = reference_train(cfg, target)
    # Every case but n = 3 and 4 exact restarts the ascent at least once, so
    # the restart draws are replayed too.
    assert restarts > 0 or (n, shots) in ((3, 0), (4, 0))
    for epoch, (score, thetas, w) in enumerate(rows):
        apart = (
            abs(trace.scores[epoch] - score) > 1e-10
            or np.max(np.abs(trace.thetas[epoch] - thetas)) > 1e-10
            or np.max(np.abs(trace.ws[epoch] - w)) > 1e-10
        )
        assert not apart, (
            f"train() and the reference part at epoch {epoch}: "
            f"scores {float(trace.scores[epoch])!r} and {score!r}"
        )
