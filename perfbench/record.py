"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/record.py --label seed

For every workload of BENCHMARK.json: RUNS untraced runs with seeds
1..RUNS, then one traced run with seed 1.  For each end-to-end metric the
point holds the values, their median and quartiles
(`statistics.quantiles(values, n=4)`), and the spread (Q3 - Q1) / median
next to the metric's bound; for each per-layer metric, the traced run's
value.  The point is written to perfbench/trajectory/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-2])["report"]
    return {"result": json.loads(lines[-1]), "env": report["env"]}, took


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="point")
    args = ap.parse_args()

    point = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in names:
        values: dict[str, list[float]] = {}
        elapsed = []
        env = None
        for seed in range(1, RUNS + 1):
            got, took = run(w, seed, spec["run_seconds"], 0)
            env = env or got["env"]
            elapsed.append(took)
            for name, m in got["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {"unit": m["unit"], "values": vals, "median": med, "q1": q1,
                               "q3": q3, "spread": (q3 - q1) / med, "bound": m["bound"]}
            print(f"{w} {m['name']}: median {med:.6g} {m['unit']}, spread "
                  f"{(q3 - q1) / med:.4f} (bound {m['bound']})", flush=True)
        entry = {"end_to_end": rows, "run_elapsed_s": elapsed, "env": env}
        got, took = run(w, 1, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in got["result"]["metrics"].items()}
        entry["traced_run_elapsed_s"] = took
        print(f"{w}: runs took {min(elapsed):.1f}..{max(elapsed):.1f} s", flush=True)
        point["workloads"][w] = entry
    out = HERE / "trajectory" / f"{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
