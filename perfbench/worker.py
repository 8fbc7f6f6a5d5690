"""One measuring process of the benchmark; `run.py` starts it with pinned threads.

    python3 perfbench/worker.py --workload smile-n4 --seed 0 --mode setup --workdir DIR
    python3 perfbench/worker.py --workload smile-n4 --seed 0 --mode measure \
        --seconds 30 --trace 0 --workdir DIR

`--mode setup` times the imports and the workload's set-up in this fresh
process and prints {"setup_s": ...}. `--mode measure` also sets up, then
repeats the timed region until `--seconds` have passed (at least
`MIN_REPS` times), checks every repetition's output and prints one JSON
record as its last line. Peak RSS is read after set-up and the first
repetition, before any output check allocates its reference. With
`--trace 1` untraced and traced repetitions alternate, and the record holds
the median per-layer metrics of the traced ones, the tracing overhead and
the median minor page faults of the untraced ones.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qgansim  # noqa: E402
from qgansim import _kernels  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = perf_counter() - _T0
MIN_REPS = 3  # repetitions of an untraced run
MIN_TRACED_REPS = 2  # of each kind, untraced and traced, in a traced run

_COUNTED = (
    "statevec.UnitaryGate",
    "statevec.StateVector",
    "statevec.run_circuit",
    "generator.build_parametric_circuit",
    "generator.generate_state",
    "discriminator.FastDiscriminator.p_real",
)


def layer_metrics(tracer):
    """Per-layer numbers of one traced repetition, before workload extras."""
    out = {}
    for name in ("kernels.apply_dense", "kernels.apply_diag"):
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_time[name]
        out[f"{name}.gb_computed"] = tracer.nbytes[name] / 1e9
    for name in _COUNTED:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_time[name]
    out["discriminator.FastDiscriminator.init.calls"] = tracer.calls["discriminator.FastDiscriminator.init"]
    out["discriminator.FastDiscriminator.init_s"] = tracer.total["discriminator.FastDiscriminator.init"]
    out["adversarial.train.self_s"] = tracer.self_time["adversarial.train"]
    for name in ("init_draws", "p_real_per_epoch", "states_per_epoch", "final_kl",
                 "final_fidelity", "grad_w.s", "grad_theta.s"):
        out[f"adversarial.{name}"] = 0
    out["metrics.self_s"] = sum(
        tracer.self_time[f"metrics.{fn}"] for fn in ("fidelity", "kl_divergence", "trace_distance_pure")
    )
    out["svi.discretize.s"] = tracer.total["svi.discretize"]
    out["fourier.qft_circuit.s"] = tracer.total["fourier.qft_circuit"]
    out["fourier.qft.s"] = 0
    out["cli.self_s"] = tracer.self_time["cli.train"]
    return out


def measure(workload, seed, seconds, trace, workdir, import_s=0.0):
    """Set up once, then time, check and (if `trace`) trace repetitions."""
    workdir = Path(workdir)
    inputs = workload.prepare(seed, workdir)
    start = perf_counter()
    state = workload.setup(inputs)
    setup_s = import_s + perf_counter() - start

    walls, traced_walls, faults, layers, problems = [], [], [], [], []
    attempted = failed = 0
    reference = summary = None
    begin = perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        rep_dir = workdir / f"rep{attempted}"
        gc.collect()  # garbage of the last repetition is not this one's cost
        if traced:
            with Tracer() as tracer:
                rep_state = workload.setup(inputs) if workload.trace_setup else state
                start = perf_counter()
                output = workload.run(rep_state, rep_dir)
                wall = perf_counter() - start
        else:
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            output = workload.run(state, rep_dir)
            wall = perf_counter() - start
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
            if not walls:
                # Later checks allocate their own references; the program's
                # peak is reached by set-up and one repetition.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rep_problems, fingerprint = workload.check(state, output)
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            rep_problems.append("output differs from the first repetition of this seed")
        attempted += 1
        failed += bool(rep_problems)
        problems.extend(rep_problems)
        summary = workload.summary(output)
        if traced:
            traced_walls.append(wall)
            layers.append({**layer_metrics(tracer), **workload.layer_extras(state, output, tracer)})
        else:
            walls.append(wall)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if trace:
            enough = min(len(walls), len(traced_walls)) >= MIN_TRACED_REPS
        else:
            enough = len(walls) >= MIN_REPS
        if enough and perf_counter() - begin + wall >= seconds:
            break

    record = {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "summary": summary,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        record["traced_walls"] = traced_walls
        record["layers"] = {key: statistics.median(rep[key] for rep in layers) for key in layers[0]}
        record["layers"]["trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        record["layers"]["process.minor_faults"] = statistics.median(faults)
    return record


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "qgansim_file": qgansim.__file__,
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    parser = argparse.ArgumentParser(description="one measuring process of the benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        inputs = workload.prepare(args.seed, args.workdir)
        start = perf_counter()
        workload.setup(inputs)
        record = {"setup_s": IMPORT_S + perf_counter() - start}
    else:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), args.workdir, IMPORT_S)
        record["provenance"] = provenance()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
