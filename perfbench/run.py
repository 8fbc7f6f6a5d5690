"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload smile-n4 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; qgansim is imported from its
`src/`, never from an installed copy. The run

1. pins, in every process it starts, BLAS and OpenMP to one thread (the
   processes run one at a time, so at most one compute thread is busy),
   and, in untraced runs only, glibc malloc's thresholds (`MALLOC_ENV`);
   a traced run keeps the default allocator that users run and reports
   its page faults;
2. starts one measuring process (`worker.py`) that repeats the workload
   for `--seconds`, checks every output, and reports its peak RSS;
3. times set-up in `SETUP_PROBES` fresh processes, half before and half
   after the measuring one, whose own set-up is one more sample of the
   median `setup_s`; a first probe only warms caches (and compiles
   bytecode);
4. prints a record line (provenance, quartiles and sample counts) and, as
   the last line, the result object.

With `--trace 0` the result holds the end-to-end metrics, with `--trace 1`
the per-layer metrics (see README.md). The exit code is nonzero, and no
result is printed, when the checkout has no qgansim sources or a process
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # half before and half after the measuring process
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
THREAD_ENV = {var: "1" for var in THREAD_VARS}
# glibc's default heuristics return freed memory to the system or keep it
# depending on the heap's layout, so a smile-n6-shots repetition took either
# about 3.4 thousand or about a million page faults (6 s or 8.7 s) from one
# process to the next. Fixed thresholds keep freed memory for reuse, which
# steadies `wall_s` but hides that cost; the traced run, under the default
# allocator, shows it as `process.minor_faults`.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(4 * 2**30),
}
DEADLINE_S = 170.0  # the whole run, set-up probes included


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values, unit):
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qgansim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _call(args, env, deadline):
    """Run one worker process; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    out = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(deadline - monotonic(), 1.0),
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"worker failed with exit code {out.returncode}: {' '.join(args)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(record, setup_samples):
    return {
        "wall_s": _summary(record["walls"], "s"),
        "setup_s": _summary(setup_samples, "s"),
        "peak_rss_mb": _summary([record["peak_rss_mb"]], "MB"),
    }


def load_spec():
    """BENCHMARK.json: the workload names and the unit of every metric."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer(record, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: {"value": v, "unit": units[name]} for name, v in record["layers"].items()}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description="qgansim benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qgansim" / "__init__.py").is_file():
        raise SystemExit(f"no qgansim sources under {ROOT / 'src'}; run from a source checkout")

    pinned = THREAD_ENV if args.trace else {**THREAD_ENV, **MALLOC_ENV}
    env = {key: value for key, value in os.environ.items() if key not in MALLOC_ENV}
    env.update(PYTHONPATH=str(ROOT / "src"), **pinned)
    work_parent = ROOT / ".perfbench-work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = [*common, "--mode", "setup"]
        setup_samples = [_call(setup, env, deadline)["setup_s"] for _ in range(probes + 1)][1:]
        record = _call(
            [*common, "--mode", "measure", "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env, deadline,
        )
        setup_samples += [_call(setup, env, deadline)["setup_s"] for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(record, spec)
    else:
        setup_samples.append(record["setup_s"])
        record["setup_samples"] = setup_samples
        metrics = end_to_end(record, setup_samples)
    record["provenance"].update(
        git_sha=_git_sha(),
        src_sha256=_src_digest(),
        nproc=os.cpu_count(),
        env=pinned,
        l3_bytes=_l3_bytes(),
        seed=args.seed,
        run_seconds=args.seconds,
    )
    record["metrics"] = metrics
    print(json.dumps({"record": record}))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
