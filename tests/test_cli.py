"""CLI contract: artifact layout, exact CSV headers, byte-determinism
under a fixed seed, config validation, and the demo subcommands."""

import json
import shlex
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for name, extra in {"exact": {}, "sampled": {"shots": 100}}.items():
        cfg = _small_train_config(tmp_path / name, **extra)
        for sub in ("a", "b"):
            res = runner.invoke(
                main, ["train", "--config", cfg, "--out-dir", str(tmp_path / name / sub)]
            )
            assert res.exit_code == 0, res.output
        for artifact in ("trace.csv", "train.json"):
            a = (tmp_path / name / "a" / artifact).read_bytes()
            assert (tmp_path / name / "b" / artifact).read_bytes() == a


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


@pytest.mark.parametrize("phi", ["1e17", "1e308", "-1e308"])
def test_demo_qpe_of_a_huge_whole_phase_is_a_point_mass_at_zero(runner, phi):
    # Each phase is a whole number of turns; 2 pi phi would round away
    # its turns (or overflow) unless the phase is reduced mod 1 first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["demo", "qpe", "--phi", phi, "--m", "3"])
    assert result.exit_code == 0, combined(result)
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert len(rows) == 1
    assert rows[0]["outcome"] == 0
    assert abs(rows[0]["prob"] - 1.0) < 1e-12


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


def test_demo_qip_refuses_negative_weights(runner):
    # The register would show the product -0.5 as the unsigned outcome 3.
    result = runner.invoke(
        main, ["demo", "qip", "--x", "0.5", "--w", "-1", "-p", "1", "--m", "2"]
    )
    assert result.exit_code == 2
    assert "--w" in result.stderr
    assert result.stdout == ""


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


def test_demo_qpe_at_twelve_ancillas_stays_small(runner):
    # The inverse QFT is applied gate by gate, so the peak is the 2^13
    # amplitudes and their copies, not a dense 2^12 x 2^12 matrix (256 MiB).
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["demo", "qpe", "--phi", "0.25", "--m", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, combined(result)
    assert json.loads(result.output) == {"outcome": 1024, "prob": pytest.approx(1.0, abs=1e-12)}
    assert peak < 16 * 2**20


def test_demo_neuron_with_a_twelve_qubit_product_register_stays_small(runner):
    # Each activation diagonal holds its 2^12 phases, not a dense
    # 2^12 x 2^12 matrix (256 MiB each).
    args = ["demo", "neuron", "--x", "0.5", "--w", "0.5", "--m1", "3", "--m2", "12", "-p", "2",
            "--activation", "identity"]
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, combined(result)
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert abs(sum(row["prob"] for row in rows) - 1.0) < 1e-9
    assert peak < 32 * 2**20


README_DEMOS = [
    shlex.split(line)[1:]
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    if line.startswith("qgansim demo ")
]


def test_readme_lists_the_four_demos():
    assert sorted(args[1] for args in README_DEMOS) == ["neuron", "qft", "qip", "qpe"]


@pytest.mark.parametrize("args", README_DEMOS, ids=lambda args: args[1])
def test_readme_demo_lines_run(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, combined(result)
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert rows


NEURON_M1_1 = [
    "neuron", "--x", "0.5", "--w", "0.5", "--activation", "identity", "--m1", "1", "-p", "1",
]


@pytest.mark.parametrize(
    "args, name",
    [
        (["qip", "--x", "0.5", "--w", "1", "--m", "26"], "ancillas"),
        (["neuron", "--x", "0.5", "--w", "1", "--m2", "26"], "ancillas"),
        (["qft", "--n", "30"], "--n"),
        (["qft", "--n", "0"], "--n"),
        # Width 21: one over the circuit limit with the eigenstate qubit.
        (["qpe", "--phi", "0.25", "--m", "20"], "--m"),
        (["qpe", "--phi", "0.25", "--m", "1000000000"], "--m"),
        (["qpe", "--phi", "0.25", "--m", "0"], "--m"),
        # Width 21: m1 = 1, m2 = 19 and one data qubit.
        (NEURON_M1_1 + ["--m2", "19"], "ancillas"),
        # Refused before the threshold activation scales by 2^m2.
        (
            ["neuron", "--x", "0.5", "--w", "0.5", "--activation", "threshold", "--m2", "1100"],
            "m2 = 1100",
        ),
        # A non-finite phase is refused by --phi, before any circuit.
        (["qpe", "--phi", "nan", "--m", "3"], "--phi"),
    ],
)
def test_demo_width_beyond_the_limit_is_a_prompt_usage_error(runner, args, name):
    start = time.perf_counter()
    result = runner.invoke(main, ["demo", *args])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, combined(result)
    assert name in combined(result)


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
        ("train", '{"n_qubits": 1, "epochs": 10000000000000}', "epochs", 2),
        ("train", '{"n_qubits": 2, "shots": 9223372036854775808}', "shots", 2),
        ("train", '{"n_qubits": 2, "fd_step": 0}', "fd_step", 2),
        ("train", '{"n_qubits": 2, "fd_step": 8}', "fd_step", 2),
        ("train", '{"n_qubits": 4, "epochs": 1, "n_d": 1000000000000}', "n_d", 2),
        ("train", '{"n_qubits": 4, "epochs": 1, "n_g": 1000000000000}', "n_g", 2),
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


# Option sets for the demos. Each option mostly takes a value the demo must
# accept; one time in eight it takes one that the demo must refuse (for
# --x and --w, in one entry), and the refusal must name the option: its
# flag, or the library name it is handed over as. Accepted sets stay
# within 12 qubits.
_BAD_WIDTHS = [0, -1, 25, 10**9]
_BAD_X = ["nan", "inf", "-0.5", "1.5", "1e308", "-1e308"]
_BAD_W = ["nan", "inf", "-inf", "1.0000001", "1e308", "-1e308"]
_HUGE_PHASES = ["1e17", "-1e17", "1e308", "-1e308", "4503599627370497", "1e-320"]


def _pick(draw, refused, names, good, bad):
    if draw(st.integers(0, 7)):
        return str(draw(good))
    refused.update(names)
    return str(draw(st.sampled_from(bad)))


def _vector(draw, refused, names, size, good, bad):
    entries = [str(draw(good)) for _ in range(size)]
    if not draw(st.integers(0, 7)):
        refused.update(names)
        entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from(bad))
    return ",".join(entries)


def _vectors(draw, refused, n, w_low=-1.0):
    # --x and --w of n entries each, or of unequal lengths; a --w entry below
    # w_low is refused.
    w_size = n if draw(st.integers(0, 9)) else n + 1
    if w_size != n:
        refused.update(("--x", "--w"))
    bad_w = _BAD_W if w_low < 0.0 else _BAD_W + ["-0.5", "-1"]
    x = _vector(draw, refused, ("--x", "x must be"), n, st.floats(0.0, 1.0), _BAD_X)
    w = _vector(draw, refused, ("--w",), w_size, st.floats(w_low, 1.0), bad_w)
    return ["--x", x, "--w", w]


@st.composite
def demo_options(draw):
    """(demo args, names one of which a refusal must give; empty if accepted)."""
    refused = set()
    demo = draw(st.sampled_from(["qft", "qpe", "qip", "neuron"]))
    if demo == "qft":
        n = _pick(draw, refused, ("--n",), st.integers(1, 12), _BAD_WIDTHS)
        top = 2 ** int(n) - 1 if 1 <= int(n) <= 12 else 3
        basis = _pick(draw, refused, ("--basis",), st.integers(0, top), [-1, top + 1])
        return ["qft", "--n", n, "--basis", basis], refused
    if demo == "qpe":
        phases = st.floats(-10.0, 10.0) | st.sampled_from(_HUGE_PHASES)
        phi = _pick(draw, refused, ("--phi",), phases, ["nan", "inf", "-inf", "1e400"])
        m = _pick(draw, refused, ("--m",), st.integers(1, 11), [0, -1, 20, 10**9])
        return ["qpe", "--phi", phi, "--m", m], refused
    small = st.integers(1, 3)
    if demo == "qip":
        args = ["qip", *_vectors(draw, refused, draw(small), w_low=0.0)]
        args += ["-p", _pick(draw, refused, ("precision",), small, _BAD_WIDTHS)]
        args += ["--m", _pick(draw, refused, ("ancillas",), small, _BAD_WIDTHS)]
        return args, refused
    args = ["neuron", *_vectors(draw, refused, draw(st.integers(1, 2)))]
    args += ["--activation", draw(st.sampled_from(["sigmoid", "identity", "threshold"]))]
    args += ["-p", _pick(draw, refused, ("precision",), small, _BAD_WIDTHS)]
    args += ["--m1", _pick(draw, refused, ("m1",), small, _BAD_WIDTHS)]
    args += ["--m2", _pick(draw, refused, ("m2",), small, _BAD_WIDTHS)]
    return args, refused


@settings(max_examples=300, derandomize=True, deadline=None)
@given(demo_options())
def test_demo_option_sets_print_a_distribution_or_name_the_bad_option(options):
    args, refused = options
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["demo", *args])
    # No traceback: a RuntimeWarning or any other exception lands here.
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception
    )
    if refused:
        assert result.exit_code == 2, (args, combined(result))
        assert any(name in result.stderr for name in refused), (args, result.stderr)
    else:
        assert result.exit_code == 0, (args, combined(result))
        probs = [json.loads(line).get("prob", 0.0) for line in result.output.splitlines()]
        assert abs(sum(probs) - 1.0) < 1e-9, args
