"""Run the benchmark over workloads and seeds and print one table per workload.

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --seeds 0 1 2 3 4 --out BENCH_<tag>.json
    python3 perfbench/report.py --trace --out BENCH_<tag>_trace.json

Each (workload, seed) is one `run.py` process of BENCHMARK.json's
`run_seconds`, run one after another over every workload. For
every end-to-end metric the table gives the median over seeds, the
quartiles, the sample count and the spread (q3 - q1) / median; it adds
`failed_frac` (failed over attempted repetitions) and, for training
workloads, the final fidelity of the trained generator. `--out` writes the
run records, provenance included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, _summary


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {out.returncode}")
    *_, record_line, result_line = out.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def spread_row(name, unit, values):
    s = _summary(values, unit)
    spread = (s["q3"] - s["q1"]) / s["value"] if s["value"] else float("nan")
    return (
        f"  {name:<44} {s['value']:>12.6g} {unit:<6} q1 {s['q1']:<10.6g} q3 {s['q3']:<10.6g}"
        f" n {s['n']:<3} spread {spread:.4f}"
    )


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--out", type=Path, help="write every run record to this JSON file")
    args = parser.parse_args()

    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        rows = {}
        attempted = failed = 0
        fidelities = []
        for seed in args.seeds:
            record, result = run_once(workload, seed, seconds, args.trace)
            records.append(record)
            attempted += result["attempted"]
            failed += result["failed"]
            if "final_fidelity" in record["summary"]:
                fidelities.append(record["summary"]["final_fidelity"])
            for name, metric in result["metrics"].items():
                rows.setdefault((name, metric["unit"]), []).append(metric["value"])
            print(f"# {workload} seed {seed}: {json.dumps(result['metrics'])}", flush=True)
        print(f"{workload}  (seeds {' '.join(map(str, args.seeds))}, {seconds:g} s per run)")
        for (name, unit), values in rows.items():
            print(spread_row(name, unit, values))
        print(spread_row("failed_frac", "1", [failed / attempted]))
        if fidelities:
            print(spread_row("final_fidelity", "1", fidelities))
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
