"""The benchmark's workloads: inputs from a seed, set-up, the timed call, and the check.

Each workload object offers the same steps, called in this order by
`worker.py`:

* `prepare(seed, workdir)` makes the inputs (a config file, or a random
  state and angles). It is not timed: it stands for the user's own data.
* `setup(inputs)` is what a fresh process does before the work starts:
  parsing, target discretization, discriminator or circuit construction.
  Its time, plus the imports, is `setup_s`. A traced repetition repeats
  it inside the tracer only where `trace_setup` is true, that is where
  the timed call does not redo that work itself.
* `run(state, rep_dir)` is the timed region (`wall_s`).
* `check(state, output)` returns the problems found in the output and a
  fingerprint of it; repetitions of one seed must give equal fingerprints.
* `summary(output)` gives a training run's final fidelity and KL.
* `layer_extras(state, output, tracer)` adds the per-layer numbers that
  come from the output or from probes rather than from spans.

Only public qgansim names are used, so a refactor that keeps the public API
keeps the benchmark working.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

# Traced functions are called through their modules, so that the tracer's
# re-binding (which covers qgansim's own modules only) sees these calls too.
from qgansim import cli, fourier, statevec, svi
from qgansim.adversarial import TrainConfig, grad_theta, grad_w, training_discriminator
from qgansim.discriminator import (
    DiscriminatorConfig,
    DiscriminatorWeights,
    FastDiscriminator,
    threshold_activation,
)
from qgansim.generator import GeneratorParams, generate_state
from qgansim.metrics import fidelity
from qgansim.statevec import CircuitOp, QuantumCircuit, StateVector, diagonal, ry

# The smile of the README's `run.json` (equal to DEFAULT_SMILE_PARAMS).
README_SVI = {"a": 0.030358, "b": 0.0503815, "rho": -0.1, "m": 0.3, "xi": 0.048922, "T": 1.0}
_TRAIN_KEYS = ("n_qubits", "epochs", "n_d", "n_g", "lr_d", "lr_g", "shots", "seed")
_TRACE_HEADER = "epoch,score,fidelity,kl,trace_distance"
_PROBE_CALLS = 5


@dataclass(frozen=True)
class SmileState:
    config_path: Path
    cfg: TrainConfig
    disc: DiscriminatorConfig
    target: StateVector
    target_masses: np.ndarray


@dataclass(frozen=True)
class SmileWorkload:
    """`qgansim train` on the SVI smile, called in-process through the CLI.

    `setup` calls the public functions that `qgansim train` calls before
    its loop (discretize the smile, build the target state and the
    discriminator); it does not go through the CLI's own config parsing,
    which the timed call repeats and `cli.self_s` covers.
    """

    trace_setup = False  # the timed CLI call discretizes and builds the discriminator itself
    name: str
    n_qubits: int
    epochs: int
    shots: int
    discriminator: tuple | None  # (m1, m2) of a threshold section, or None for train()'s default

    def toy(self):
        return replace(self, name=f"{self.name}-toy", n_qubits=2, epochs=3)

    def prepare(self, seed, workdir):
        config = {
            "n_qubits": self.n_qubits,
            "epochs": self.epochs,
            "n_d": 9,
            "n_g": 1,
            "lr_d": 1.0,
            "lr_g": 0.5,
            "shots": self.shots,
            "seed": seed,
            "svi": README_SVI,
        }
        if self.discriminator is not None:
            m1, m2 = self.discriminator
            config["discriminator"] = {"m1": m1, "m2": m2, "activation": "threshold"}
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        return path

    def setup(self, config_path):
        raw = json.loads(Path(config_path).read_text())
        cfg = TrainConfig(**{key: raw[key] for key in _TRAIN_KEYS})
        dist = svi.discretize(svi.SviParams(**raw["svi"]), cfg.n_qubits)
        section = raw.get("discriminator")
        if section is None:
            disc = training_discriminator(cfg.n_qubits)
        else:
            m1, m2 = section["m1"], section["m2"]
            disc = DiscriminatorConfig(m1=m1, m2=m2, activation=threshold_activation(m1, 2.0**m2))
        FastDiscriminator(disc, cfg.n_qubits)
        return SmileState(Path(config_path), cfg, disc, svi.target_state(dist), dist.masses)

    def run(self, state, rep_dir):
        args = ["train", "--config", str(state.config_path), "--out-dir", str(rep_dir)]
        cli.main(args, standalone_mode=False)
        return Path(rep_dir)

    def check(self, state, out_dir):
        trace_bytes = (out_dir / "trace.csv").read_bytes()
        summary_bytes = (out_dir / "train.json").read_bytes()
        problems = []
        header, *rows = trace_bytes.decode().splitlines()
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        if header != _TRACE_HEADER or table.shape != (self.epochs, 5):
            problems.append(f"trace.csv has header {header!r} and shape {table.shape}")
        elif not np.all(np.isfinite(table)):
            problems.append("trace.csv holds a non-finite value")
        summary = json.loads(summary_bytes)
        final = summary["final"]
        numbers = np.array(
            summary["theta"] + summary["w"] + summary["generated_masses"] + list(final.values())
        )
        if not np.all(np.isfinite(numbers)):
            return problems + ["train.json holds a non-finite value"], None
        generated = generate_state(self.n_qubits, GeneratorParams(np.array(summary["theta"])))
        if abs(fidelity(state.target, generated) - final["fidelity"]) > 1e-12:
            problems.append("train.json fidelity disagrees with its final angles")
        if np.max(np.abs(generated.probabilities() - summary["generated_masses"])) > 1e-12:
            problems.append("train.json generated_masses disagree with its final angles")
        if summary["target_masses"] != state.target_masses.tolist():
            problems.append("train.json target_masses differ from the discretized smile")
        if table.shape == (self.epochs, 5) and table[-1, 2] != final["fidelity"]:
            problems.append("trace.csv and train.json disagree on the final fidelity")
        if max(abs(x) for x in summary["w"]) > 1.0:
            problems.append("train.json weights leave [-1, 1]")
        return problems, hashlib.sha256(trace_bytes + b"\0" + summary_bytes).hexdigest()

    def summary(self, out_dir):
        final = json.loads((out_dir / "train.json").read_text())["final"]
        return {"final_fidelity": final["fidelity"], "final_kl": final["kl"]}

    def layer_extras(self, state, out_dir, tracer):
        gen = "generator.generate_state"
        p_real = "discriminator.FastDiscriminator.p_real"
        train = "adversarial.train"
        # train() evaluates one state at the top of epoch 0 before its first
        # p_real; the states before that one are the initial draws.
        draws = tracer.first_enter[p_real][gen] - tracer.first_enter[train][gen] - 1
        summary = json.loads((out_dir / "train.json").read_text())
        theta = GeneratorParams(np.array(summary["theta"]))
        w = DiscriminatorWeights(np.array(summary["w"]))
        return {
            "adversarial.init_draws": draws,
            "adversarial.states_per_epoch": (tracer.calls_between(train, gen) - draws) / self.epochs,
            "adversarial.p_real_per_epoch": tracer.calls_between(train, p_real) / self.epochs,
            "adversarial.final_kl": summary["final"]["kl"],
            "adversarial.final_fidelity": summary["final"]["fidelity"],
            "adversarial.grad_w.s": _median_time(
                lambda: grad_w(theta, w, state.target, state.disc, state.cfg.fd_step)
            ),
            "adversarial.grad_theta.s": _median_time(
                lambda: grad_theta(theta, w, state.target, state.disc)
            ),
        }


def _median_time(fn):
    times = []
    for _ in range(_PROBE_CALLS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class StatevecInputs:
    amps: np.ndarray
    ry_angles: np.ndarray
    phases: np.ndarray


class StatevecState:
    def __init__(self, inputs, psi, circuits):
        self.inputs = inputs
        self.psi = psi
        self.circuits = circuits
        self.reference = None  # expected output, computed at the first check


@dataclass(frozen=True)
class StatevecWorkload:
    """A random state through an RY layer, a controlled-phase sweep and the gate-level QFT."""

    trace_setup = True  # the circuits, `fourier.qft_circuit` among them, are built in set-up
    name: str
    n_qubits: int

    def toy(self):
        return replace(self, name=f"{self.name}-toy", n_qubits=4)

    def prepare(self, seed, workdir):
        n = self.n_qubits
        rng = np.random.default_rng(seed)
        parts = rng.normal(size=(2, 2**n))
        amps = parts[0] + 1j * parts[1]
        amps /= np.linalg.norm(amps)
        return StatevecInputs(amps, rng.uniform(0.0, 2.0 * np.pi, n), rng.uniform(0.0, 1.0, n - 1))

    def setup(self, inputs):
        n = self.n_qubits
        ry_layer = QuantumCircuit(
            n, tuple(CircuitOp(ry(angle), (q,)) for q, angle in enumerate(inputs.ry_angles))
        )
        # diag(1, e^(2 i pi phase)) on wire q + 1, controlled by wire q.
        phase_sweep = QuantumCircuit(
            n,
            tuple(
                CircuitOp(diagonal([0.0, phase]), (q + 1,), (q,))
                for q, phase in enumerate(inputs.phases)
            ),
        )
        circuits = (ry_layer, phase_sweep, fourier.qft_circuit(n))
        return StatevecState(inputs, StateVector(n, inputs.amps), circuits)

    def run(self, state, rep_dir):
        out = state.psi
        for circuit in state.circuits:
            out = statevec.run_circuit(circuit, out)
        return out

    def check(self, state, output):
        if state.reference is None:
            state.reference = _statevec_reference(state.inputs, self.n_qubits)
        problems = []
        norm_err = abs(float(np.sum(np.abs(output.amps) ** 2)) - 1.0)
        if norm_err > 1e-10:
            problems.append(f"output norm^2 is off by {norm_err:.3g}")
        err = float(np.max(np.abs(output.amps - state.reference)))
        if err > 1e-10:
            problems.append(f"output is {err:.3g} away from the FFT reference")
        return problems, hashlib.sha256(output.amps).hexdigest()

    def summary(self, output):
        return {}

    def layer_extras(self, state, output, tracer):
        # The whole-state QFT through the FFT, on the output's width: what
        # the gate-level QFT stage is compared with.
        return {"fourier.qft.s": _median_time(lambda: fourier.qft(output))}


def _statevec_reference(inputs, n):
    # The two sweeps on reshaped slices, independent of the gate kernels,
    # then the whole-state QFT through the FFT.
    amps = inputs.amps.copy()
    for q, angle in enumerate(inputs.ry_angles):
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        zero, one = amps.reshape(2**q, 2, -1).transpose(1, 0, 2)
        saved = zero.copy()
        zero *= c
        zero -= s * one
        one *= c
        one += s * saved
    for q, phase in enumerate(inputs.phases):
        amps.reshape(2**q, 2, 2, -1)[:, 1, 1, :] *= np.exp(2j * np.pi * phase)
    return fourier.qft(StateVector(n, amps)).amps


WORKLOADS = {
    w.name: w
    for w in (
        SmileWorkload("smile-n4", n_qubits=4, epochs=100, shots=0, discriminator=(2, 4)),
        SmileWorkload("smile-n6-shots", n_qubits=6, epochs=40, shots=1000, discriminator=None),
        StatevecWorkload("statevec-n20", n_qubits=20),
    )
}
