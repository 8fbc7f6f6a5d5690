"""Command line interface.

Subcommands: `target` writes the discretized distribution and density
curve, `train` runs the adversarial loop and writes per-epoch metrics,
`demo` prints exact outcome distributions of the circuit primitives as
JSON lines. All randomness flows from the configured seed; repeated runs
with the same seed produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np

from .adversarial import TrainConfig, train, training_discriminator
from .discriminator import DiscriminatorConfig, threshold_activation
from .fourier import qft
from .generator import generate_amps
from .phase_estimation import qpe_distribution
from .qneuron import (
    WeightVector,
    check_neuron_width,
    neuron_forward,
    qip,
    scaled_identity_activation,
    sigmoid_activation,
)
from .statevec import MAX_QUBITS, basis_ket, diagonal
from .svi import DEFAULT_SMILE_PARAMS, SviParams, density, discretize

# Every setting is checked and defaulted by its library type; the CLI only
# reads the JSON, hands each section over, and names a rejected key as
# section.key.
_SECTIONS = {"svi": SviParams, "discriminator": DiscriminatorConfig}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_TOP_KEYS = _TRAIN_KEYS | set(_SECTIONS) | {"out_dir"}

_PROB_FLOOR = 1e-12  # demo output omits outcomes below this


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise click.UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise click.UsageError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    for name, kind in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise click.UsageError(f"config.{name} must be a JSON object, got {section!r}")
        _reject_unknown(section, {f.name for f in fields(kind)}, f"config.{name}")
    if not isinstance(raw.get("out_dir", ""), str):
        raise click.UsageError(f"out_dir = {raw['out_dir']!r} is not a string")
    return raw


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise click.UsageError(f"unknown {where} keys: {', '.join(unknown)}")


def _qualified(exc: ValueError, name: str) -> str:
    # Library messages name a setting as "key = value"; prefix the section.
    keys = "|".join(f.name for f in fields(_SECTIONS[name]))
    return re.sub(rf"\b({keys}) = ", rf"{name}.\1 = ", str(exc))


def _svi_params(raw: dict) -> SviParams:
    try:
        return replace(DEFAULT_SMILE_PARAMS, **raw.get("svi", {}))
    except ValueError as exc:
        raise click.ClickException(f"invalid SVI parameters: {_qualified(exc, 'svi')}")


def _activation(name: str, m1: int, m2: int):
    if name == "sigmoid":
        return sigmoid_activation()
    if name == "threshold":
        return threshold_activation(m1, 2.0**m2)
    if name == "identity":
        return scaled_identity_activation(m2)
    raise ValueError(f"activation = {name!r} is not sigmoid, threshold or identity")


def _discriminator(raw: dict, n: int) -> DiscriminatorConfig:
    # Missing keys fall back to train()'s own discriminator, whose
    # activation is the threshold one; its width is checked like a
    # configured one. The width check also rejects an activation that is
    # no label probability, such as the identity on negative products.
    section = raw.get("discriminator", {})
    default = training_discriminator(n)
    try:
        m1, m2 = section.get("m1", default.m1), section.get("m2", default.m2)
        cfg = DiscriminatorConfig(m1=m1, m2=m2)
        name = section.get("activation", "threshold")
        cfg = replace(cfg, activation=_activation(name, cfg.m1, cfg.m2))
        cfg.check_width(n)
    except ValueError as exc:
        raise click.UsageError(_qualified(exc, "discriminator"))
    return cfg


def _train_config(raw: dict, seed: int | None) -> TrainConfig:
    kwargs = {k: raw[k] for k in _TRAIN_KEYS if k in raw}
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _echo_line(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True))


def _echo_distribution(dist: np.ndarray) -> None:
    for outcome, prob in enumerate(dist):
        if prob > _PROB_FLOOR:
            _echo_line({"outcome": outcome, "prob": float(prob)})


def _parse_xw(x_text: str, w_text: str) -> tuple[np.ndarray, WeightVector]:
    # The input vector and weights of `demo qip` and `demo neuron`. Weight
    # messages do not name w, so a refusal here names the option.
    vectors = []
    for name, text in (("--x", x_text), ("--w", w_text)):
        try:
            vectors.append(np.array([float(part) for part in text.split(",")]))
        except ValueError:
            raise click.UsageError(f"{name} must be comma-separated numbers")
    x, w = vectors
    if x.size != w.size:
        raise click.UsageError("--x and --w must have equal length")
    try:
        return x, WeightVector(w)
    except ValueError as exc:
        raise click.UsageError(f"--w = {w_text}: {exc}")


@click.group()
def main() -> None:
    """Quantum GAN simulator: targets, training, circuit demos."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=".")
def target(config_path: str | None, out_dir: str) -> None:
    """Write the discretized target (JSON) and density curve (CSV)."""
    raw = _load_config(config_path)
    n = _train_config(raw, None).n_qubits
    params = _svi_params(raw)
    try:
        dist = discretize(params, n)
    except ValueError as exc:
        raise click.ClickException(str(exc))

    out = Path(raw.get("out_dir", out_dir))
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(
        out / "target.json",
        {
            "n_qubits": dist.n_qubits,
            "bin_edges": dist.bin_edges().tolist(),
            "masses": dist.masses.tolist(),
            "truncated_mass": dist.truncated_mass,
        },
    )
    ks = np.linspace(-1.0, 1.0, 401)
    lines = ["k,density"]
    # repr of the builtin float is the shortest round-trip form
    lines += [f"{float(k)!r},{float(density(params, k))!r}" for k in ks]
    (out / "density.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {out / 'target.json'} and {out / 'density.csv'}")


@main.command(name="train")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None, help="overrides the config seed")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".")
def train_cmd(config_path: str | None, seed: int | None, out_dir: str) -> None:
    """Run adversarial training; write trace.csv and train.json."""
    raw = _load_config(config_path)
    cfg = _train_config(raw, seed)
    disc = _discriminator(raw, cfg.n_qubits)
    params = _svi_params(raw)
    try:
        dist = discretize(params, cfg.n_qubits)
    except ValueError as exc:
        raise click.ClickException(str(exc))

    trace = train(cfg, dist, disc)

    out = Path(raw.get("out_dir", out_dir))
    out.mkdir(parents=True, exist_ok=True)
    lines = ["epoch,score,fidelity,kl,trace_distance"]
    for epoch in range(trace.num_epochs):
        cells = (
            trace.scores[epoch],
            trace.fidelities[epoch],
            trace.kls[epoch],
            trace.trace_distances[epoch],
        )
        lines.append(f"{epoch}," + ",".join(repr(float(c)) for c in cells))
    (out / "trace.csv").write_text("\n".join(lines) + "\n")

    final_theta = trace.thetas[-1]
    generated_masses = generate_amps(cfg.n_qubits, final_theta[None])[0] ** 2
    _dump_json(
        out / "train.json",
        {
            "theta": final_theta.tolist(),
            "w": trace.ws[-1].tolist(),
            "generated_masses": generated_masses.tolist(),
            "target_masses": dist.masses.tolist(),
            "final": {
                "score": float(trace.scores[-1]),
                "fidelity": float(trace.fidelities[-1]),
                "kl": float(trace.kls[-1]),
                "trace_distance": float(trace.trace_distances[-1]),
            },
        },
    )
    click.echo(f"wrote {out / 'trace.csv'} and {out / 'train.json'}")


@main.group()
def demo() -> None:
    """Print exact outcome distributions of the circuit primitives."""


@demo.command(name="qft")
@click.option("--n", type=int, default=1)
@click.option("--basis", type=int, default=0)
def demo_qft(n: int, basis: int) -> None:
    """Amplitudes of the Fourier transform of a basis state."""
    if not 1 <= n <= MAX_QUBITS or not 0 <= basis < 2**n:
        raise click.UsageError(f"need 1 <= --n <= {MAX_QUBITS} and 0 <= --basis < 2^n")
    state = qft(basis_ket(n, basis))
    for outcome, amp in enumerate(state.amps):
        _echo_line(
            {
                "outcome": outcome,
                "amplitude": [amp.real, amp.imag],
                "prob": abs(amp) ** 2,
            }
        )


@demo.command(name="qpe")
@click.option("--phi", type=float, required=True)
@click.option("--m", "ancillas", type=int, default=3)
def demo_qpe(phi: float, ancillas: int) -> None:
    """Phase estimation of diag(1, e^{2 pi i phi}) on eigenstate |1>."""
    try:
        unitary = diagonal([0.0, phi])
    except ValueError as exc:
        raise click.UsageError(f"--phi = {phi}: {exc}")
    try:
        dist = qpe_distribution(unitary, basis_ket(1, 1), ancillas)
    except ValueError as exc:
        raise click.UsageError(f"--m = {ancillas}: {exc}")
    _echo_distribution(dist)


@demo.command(name="qip")
@click.option("--x", "x_text", type=str, required=True, help="comma-separated in [0,1)")
@click.option("--w", "w_text", type=str, required=True, help="comma-separated in [0,1]")
@click.option("--precision", "-p", type=int, default=2)
@click.option("--m", "ancillas", type=int, default=3)
def demo_qip(x_text: str, w_text: str, precision: int, ancillas: int) -> None:
    """Inner-product register estimate and its outcome distribution."""
    x, w = _parse_xw(x_text, w_text)
    if np.any(w.w < 0.0):
        # The register reads a negative product as a large unsigned one.
        raise click.UsageError(f"--w = {w_text}: qip estimates nonnegative products only")
    try:
        estimate, dist = qip(x, w, ancillas, precision)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_line({"estimate": int(estimate)})
    _echo_distribution(dist)


@demo.command(name="neuron")
@click.option("--x", "x_text", type=str, required=True)
@click.option("--w", "w_text", type=str, required=True)
@click.option(
    "--activation",
    type=click.Choice(["sigmoid", "identity", "threshold"]),
    default="sigmoid",
)
@click.option("--m1", type=int, default=2)
@click.option("--m2", type=int, default=3)
@click.option("--precision", "-p", type=int, default=2)
def demo_neuron(
    x_text: str, w_text: str, activation: str, m1: int, m2: int, precision: int
) -> None:
    """Activation-register distribution of the quantum neuron."""
    x, w = _parse_xw(x_text, w_text)
    try:
        # Before the activation, which scales by 2^m2 and tabulates 2^m2 values.
        check_neuron_width(m1, m2, x.size, precision)
        fn = _activation(activation, m1, m2)
        dist = neuron_forward(x, w, fn, m1, m2, precision)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo_distribution(dist)


if __name__ == "__main__":
    main()
