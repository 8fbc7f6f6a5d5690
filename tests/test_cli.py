"""CLI contract: artifact layout, exact CSV headers, byte-determinism
under a fixed seed, config validation, and the demo subcommands."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from qgansim.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def combined(result):
    # usage errors print to stderr, which CliRunner keeps separate
    return result.output + result.stderr


def test_target_writes_artifacts(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"n_qubits": 2})
    result = runner.invoke(main, ["target", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "target.json").read_text())
    assert payload["n_qubits"] == 2
    assert len(payload["masses"]) == 4
    assert abs(sum(payload["masses"]) - 1.0) < 1e-12
    assert payload["bin_edges"] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "k,density"
    assert len(lines) == 402
    # every cell must be a plain parseable number, not a numpy repr
    ks, vals = zip(*(map(float, line.split(",")) for line in lines[1:]))
    assert ks[0] == -1.0 and ks[-1] == 1.0
    assert all(v >= 0.0 for v in vals)


def test_target_is_byte_deterministic(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"n_qubits": 2})
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, ["target", "--config", cfg, "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
    assert (tmp_path / "a/target.json").read_bytes() == (tmp_path / "b/target.json").read_bytes()
    assert (tmp_path / "a/density.csv").read_bytes() == (tmp_path / "b/density.csv").read_bytes()


def test_unknown_config_key_is_a_usage_error(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"n_qubits": 2, "learning_rate": 0.1})
    result = runner.invoke(main, ["target", "--config", cfg])
    assert result.exit_code == 2
    assert "learning_rate" in combined(result)


def test_unknown_nested_key_is_a_usage_error(runner, tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"svi": {"alpha": 0.1}, "n_qubits": 2}
    )
    result = runner.invoke(main, ["target", "--config", cfg])
    assert result.exit_code == 2
    assert "config.svi" in combined(result)


def test_invalid_svi_parameters_fail_cleanly(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"n_qubits": 1, "svi": {"rho": 2.0}})
    result = runner.invoke(main, ["target", "--config", cfg])
    assert result.exit_code == 1
    assert "rho" in combined(result)


def _small_train_config(tmp_path, **extra):
    payload = {
        "n_qubits": 1,
        "epochs": 3,
        "n_d": 2,
        "n_g": 1,
        "lr_d": 0.5,
        "lr_g": 0.5,
        "seed": 4,
    }
    payload.update(extra)
    tmp_path.mkdir(parents=True, exist_ok=True)
    return write_config(tmp_path / "train.json.cfg", payload)


def test_train_writes_trace_and_summary(runner, tmp_path):
    cfg = _small_train_config(tmp_path)
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,score,fidelity,kl,trace_distance"
    assert len(lines) == 4  # header + one row per epoch
    assert lines[1].split(",")[0] == "0"
    for line in lines[1:]:
        cells = [float(cell) for cell in line.split(",")]  # plain numbers
        assert len(cells) == 5
        assert 0.0 <= cells[2] <= 1.0  # fidelity
    summary = json.loads((tmp_path / "train.json").read_text())
    assert len(summary["theta"]) == 1
    assert len(summary["w"]) == 1
    assert set(summary["final"]) == {"score", "fidelity", "kl", "trace_distance"}
    assert abs(sum(summary["generated_masses"]) - 1.0) < 1e-9


def test_train_is_byte_deterministic(runner, tmp_path):
    cfg = _small_train_config(tmp_path)
    for sub in ("a", "b"):
        res = runner.invoke(
            main, ["train", "--config", cfg, "--out-dir", str(tmp_path / sub)]
        )
        assert res.exit_code == 0, res.output
    assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
    assert (tmp_path / "a/train.json").read_bytes() == (tmp_path / "b/train.json").read_bytes()


def test_seed_option_overrides_config(runner, tmp_path):
    cfg = _small_train_config(tmp_path)
    res_a = runner.invoke(
        main,
        ["train", "--config", cfg, "--seed", "99", "--out-dir", str(tmp_path / "a")],
    )
    res_b = runner.invoke(
        main, ["train", "--config", cfg, "--out-dir", str(tmp_path / "b")]
    )
    assert res_a.exit_code == 0 and res_b.exit_code == 0
    assert (tmp_path / "a/trace.csv").read_text() != (tmp_path / "b/trace.csv").read_text()


def test_zero_epochs_is_a_usage_error(runner, tmp_path):
    cfg = _small_train_config(tmp_path, epochs=0)
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 2


def test_train_accepts_discriminator_section(runner, tmp_path):
    cfg = _small_train_config(
        tmp_path,
        discriminator={"m1": 1, "m2": 2, "activation": "threshold"},
    )
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output


def test_empty_discriminator_section_trains_like_the_default(runner, tmp_path):
    # Missing discriminator keys fall back to train()'s own discriminator.
    runs = {"omitted": {}, "empty": {"discriminator": {}}}
    for name, extra in runs.items():
        cfg = _small_train_config(tmp_path / name, n_qubits=3, **extra)
        res = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
    for artifact in ("trace.csv", "train.json"):
        omitted = (tmp_path / "omitted" / artifact).read_bytes()
        assert (tmp_path / "empty" / artifact).read_bytes() == omitted


@pytest.mark.parametrize(
    "key, value", [("lr_d", float("nan")), ("lr_g", float("inf")), ("fd_step", float("nan"))]
)
def test_non_finite_rate_is_a_usage_error_naming_the_key(runner, tmp_path, key, value):
    cfg = _small_train_config(tmp_path, **{key: value})
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert key in combined(result)


def test_bad_activation_name_is_a_usage_error(runner, tmp_path):
    cfg = _small_train_config(tmp_path, discriminator={"activation": "relu"})
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "section, key",
    [
        ({"activation": "identity"}, "discriminator.activation"),
        ({"m1": "abc"}, "discriminator.m1"),
        ({"m1": 2.7}, "discriminator.m1"),
        ({"m1": True}, "discriminator.m1"),
        ({"m1": 0}, "discriminator.m1"),
        ({"m2": None}, "discriminator.m2"),
        ({"m2": -3}, "discriminator.m2"),
        ({"m2": 1}, "discriminator.m2"),  # too few bits for 4 features
    ],
)
def test_bad_discriminator_key_is_a_usage_error_naming_it(runner, tmp_path, section, key):
    cfg = _small_train_config(tmp_path, n_qubits=4, discriminator=section)
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert key in combined(result)
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "n_qubits, section, key",
    [
        (2, {"m2": 30}, "discriminator.m2"),
        (2, {"m1": 9, "m2": 10}, "discriminator.m1"),
        # train()'s own discriminator is 2 + 6 ancillas wide at 13 features.
        (13, None, "discriminator.m2"),
    ],
)
def test_discriminator_beyond_the_circuit_limit_is_a_usage_error(
    runner, tmp_path, n_qubits, section, key
):
    extra = {} if section is None else {"discriminator": section}
    cfg = _small_train_config(tmp_path, n_qubits=n_qubits, **extra)
    result = runner.invoke(main, ["train", "--config", cfg, "--out-dir", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert key in combined(result)
    assert "20-qubit circuit limit" in combined(result)
    assert not (tmp_path / "trace.csv").exists()


def test_demo_qft_single_qubit(runner):
    result = runner.invoke(main, ["demo", "qft", "--n", "1", "--basis", "0"])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert abs(row["amplitude"][0] - 1.0 / np.sqrt(2.0)) < 1e-12
        assert row["amplitude"][1] == 0.0
        assert abs(row["prob"] - 0.5) < 1e-12


def test_demo_qft_rejects_bad_basis(runner):
    assert runner.invoke(main, ["demo", "qft", "--n", "1", "--basis", "2"]).exit_code == 2


def test_demo_qpe_exact_phase(runner):
    result = runner.invoke(main, ["demo", "qpe", "--phi", "0.25", "--m", "2"])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert len(rows) == 1
    assert rows[0]["outcome"] == 1
    assert abs(rows[0]["prob"] - 1.0) < 1e-9


def test_demo_qip_integer_product(runner):
    result = runner.invoke(
        main,
        ["demo", "qip", "--x", "0.5,0.5", "--w", "1,1", "-p", "1", "--m", "2"],
    )
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert rows[0] == {"estimate": 1}
    assert rows[1]["outcome"] == 1
    assert abs(rows[1]["prob"] - 1.0) < 1e-9


def test_demo_qip_length_mismatch(runner):
    result = runner.invoke(main, ["demo", "qip", "--x", "0.5", "--w", "1,1"])
    assert result.exit_code == 2


def test_demo_qip_rejects_oversized_weights(runner):
    result = runner.invoke(main, ["demo", "qip", "--x", "0.5", "--w", "2.0"])
    assert result.exit_code == 2


def test_demo_neuron_distribution_normalizes(runner):
    # `train` rejects the identity activation; the demo keeps it.
    for activation in ("sigmoid", "identity"):
        result = runner.invoke(
            main,
            [
                "demo", "neuron", "--x", "0.75,0.25", "--w", "0.9,-0.4",
                "--activation", activation, "--m1", "2", "--m2", "3", "-p", "2",
            ],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert abs(sum(row["prob"] for row in rows) - 1.0) < 1e-9


def test_demo_vector_parse_error(runner):
    result = runner.invoke(main, ["demo", "qip", "--x", "py", "--w", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, text, key, code",
    [
        ("train", '{"n_qubits": 2,', "config", 2),
        ("train", '{"svi": 5}', "config.svi", 2),
        ("train", '{"svi": null}', "config.svi", 2),
        ("train", '{"discriminator": 5}', "config.discriminator", 2),
        ("train", '{"out_dir": 5}', "out_dir", 2),
        ("target", '{"svi": {"a": "x"}}', "svi.a", 1),
        ("target", '{"svi": {"a": null}}', "svi.a", 1),
        ("target", '{"svi": {"T": true}}', "svi.T", 1),
        ("target", '{"n_qubits": "x"}', "n_qubits", 2),
        ("target", '{"n_qubits": 2.7}', "n_qubits", 2),
        ("target", '{"n_qubits": 21}', "n_qubits", 2),
        ("train", '{"n_qubits": 2, "epochs": true}', "epochs", 2),
        ("train", '{"n_qubits": 2, "seed": -1}', "seed", 2),
        # The sigmoid rounds to 1.0 from decoded product 38 up.
        (
            "train",
            '{"n_qubits": 2, "discriminator": {"m2": 6, "activation": "sigmoid"}}',
            "discriminator.activation = sigmoid maps 38",
            2,
        ),
    ],
)
def test_malformed_config_is_rejected_naming_the_key(runner, tmp_path, command, text, key, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(cfg), "--out-dir", str(out)])
    assert result.exit_code == code, combined(result)
    assert isinstance(result.exception, SystemExit), result.exception
    assert key in combined(result)
    assert not out.exists()
