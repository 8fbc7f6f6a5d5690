"""Smoke tests of the benchmark itself, at toy sizes (a few seconds in all).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from qgansim.statevec import StateVector  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every module attribute of qgansim, and every traced method or callback."""
    found = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("qgansim")
        for attr, value in vars(module).items()
    }
    for _, module_name, path in tracer.SPANS:
        owner, attr = tracer._resolve(module_name, path)
        found[(module_name, path)] = getattr(owner, attr)
    return found


def test_names_and_workloads_agree_with_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_passes_its_check_and_emits_every_metric(name, tmp_path):
    record = worker.measure(WORKLOADS[name].toy(), 1, 0.0, False, tmp_path)
    assert record["failed"] == 0, record["problems"]
    assert record["attempted"] == worker.MIN_REPS
    metrics = run.end_to_end(record, [record["setup_s"]])
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {key: m["unit"] for key, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_restores_functions(name, tmp_path):
    before = _bindings()
    record = worker.measure(WORKLOADS[name].toy(), 1, 0.0, True, tmp_path)
    after = _bindings()
    assert before.keys() == after.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert record["failed"] == 0, record["problems"]
    assert sorted(run.per_layer(record, SPEC)) == sorted(m["name"] for m in SPEC["per_layer"])
    layers = record["layers"]
    if name.startswith("smile"):
        # At n = 2 the first initial draw always qualifies.
        assert layers["adversarial.init_draws"] == 1
        assert layers["adversarial.states_per_epoch"] > 0
        assert layers["generator.generate_state.calls"] > 0
        # The harness's own set-up stays outside the tracer: only train() builds one.
        assert layers["discriminator.FastDiscriminator.init.calls"] == 1
        assert layers["svi.discretize.s"] > 0
    else:
        assert layers["kernels.apply_diag.calls"] > 0
        assert layers["generator.generate_state.calls"] == 0
        assert layers["discriminator.FastDiscriminator.init.calls"] == 0
        assert layers["fourier.qft_circuit.s"] > 0
    assert layers["process.minor_faults"] >= 0


def test_checks_reject_wrong_outputs(tmp_path):
    statevec = WORKLOADS["statevec-n20"].toy()
    state = statevec.setup(statevec.prepare(0, tmp_path))
    out = statevec.run(state, None)
    assert statevec.check(state, out)[0] == []
    assert statevec.check(state, StateVector(out.num_qubits, np.roll(out.amps, 1)))[0]

    smile = WORKLOADS["smile-n4"].toy()
    state = smile.setup(smile.prepare(0, tmp_path))
    out_dir = smile.run(state, tmp_path / "out")
    assert smile.check(state, out_dir)[0] == []
    summary_path = out_dir / "train.json"
    summary = json.loads(summary_path.read_text())
    summary["final"]["fidelity"] -= 1e-6
    summary_path.write_text(json.dumps(summary))
    assert smile.check(state, out_dir)[0]


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smile-n4", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
