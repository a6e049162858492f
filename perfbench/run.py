"""Benchmark of the ostrowski library: one command, four workloads.

    python3 perfbench/run.py --workload joint_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                       # all four workloads, seed 0

Run from the root of a checkout; the library is imported from ./src.  Each
workload runs in its own fresh interpreter (perfbench/worker.py) as a closed
loop: one client, one operation at a time, the next after the previous
completes.  Workloads run one after another.  Before and after the
workload, SETUP_PROBES further fresh interpreters only do the set-up;
`setup_s` is the median of their set-up times and the workload's own.

With --trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured on
traced passes that alternate with untraced ones.  The line before it is a
detailed report: environment stamp, every pass time, percentiles, failures.
Traced runs also write their spans to .perfbench/ in the checkout.

Exit codes: 0 when every output check passed, 1 when any operation failed
or raised, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("joint_scan", "exact_windows", "random_digits", "verify_quick")
SETUP_PROBES = 10  # half before the workload, half after
WORKER_TIMEOUT = 170.0


def git_revision() -> str | None:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def high_percentile(samples: list[float]) -> tuple[int | None, float | None]:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)  # nearest-rank
    return pct, sorted(samples)[rank - 1]


class Runner:
    def __init__(self, args, outdir: Path):
        self.args = args
        self.outdir = outdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # The library makes no multithreaded BLAS calls, but numpy's OpenBLAS
        # starts a thread per CPU on import.  On a shared 2-vCPU host that
        # start cost 0.05-0.08 s of a 0.2 s set-up, and set-up medians jumped
        # between about 0.13 s and 0.21 s from one run to the next.
        self.env["OPENBLAS_NUM_THREADS"] = "1"

    def _cmd(self, workload: str, *extra: str) -> list[str]:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--outdir", str(self.outdir), *extra]
        if a.small:
            cmd.append("--small")
        if a.inject_fault:
            cmd.append("--inject-fault")
        return cmd

    def _start(self, cmd: list[str]) -> tuple[subprocess.Popen, float]:
        """Start a worker; return it with its in-process set-up time."""
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker did not become ready: {' '.join(line)!r}")
        return proc, float(line[1])

    def _setup_probes(self, workload: str, count: int) -> list[float]:
        took = []
        for _ in range(count):
            proc, t = self._start(self._cmd(workload, "--setup-only"))
            proc.communicate(timeout=WORKER_TIMEOUT)
            took.append(t)
        return took

    def run(self, workload: str) -> dict:
        load_before = os.getloadavg()
        probes = 0 if self.args.trace else SETUP_PROBES // 2
        setups = self._setup_probes(workload, probes)
        proc, worker_setup = self._start(self._cmd(workload))
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} worker exceeded {WORKER_TIMEOUT} s")
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
        res["loadavg_before"] = load_before
        res["loadavg_after"] = os.getloadavg()
        res["setup_samples"] = setups + [worker_setup] + self._setup_probes(workload, probes)
        return res


def end_to_end(res: dict) -> dict[str, float]:
    wall = res["segment_floor"]
    return {
        "setup_s": statistics.median(res["setup_samples"]),
        "wall_s": wall,
        "items_per_s": res["items_per_pass"] / wall,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def report(res: dict, args, spec: dict) -> dict:
    """Print a workload's metrics by name and unit; return its result fields."""
    w = res["workload"]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = res["per_layer"] if args.trace else end_to_end(res)
    metrics = {m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]} for m in names}
    untraced = res["times"]["untraced"]
    pct, pval = high_percentile(untraced)
    ratio = res["failed"] / res["attempted"]
    detail = {k: res[k] for k in ("config", "items_per_pass", "times", "attempted", "failed",
                                  "failures", "setup_samples", "peak_rss_kb")}
    detail.update({
        "workload": w,
        "ops_failed_ratio": ratio,
        "wall_s_samples": len(untraced),
        "pass_median_s": statistics.median(untraced),
        "wall_s_high_percentile": pct,
        "wall_s_high_value": pval,
        "env": {"python": res["python"], "numpy": res["numpy"], "nproc": os.cpu_count(),
                "git_revision": git_revision(), "seed": args.seed, "seconds": args.seconds,
                "loadavg_before": res["loadavg_before"], "loadavg_after": res["loadavg_after"]},
    })
    for name, m in metrics.items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    tail = f"p{pct} = {pval:.6g} s" if pct is not None else "no percentile below 11 samples"
    print(f"{w} untraced passes: {len(untraced)}, median {statistics.median(untraced):.6g} s, "
          f"{tail}")
    print(f"{w} ops_failed_ratio = {ratio:.6g} ({res['failed']} of {res['attempted']})")
    for msg in res["failures"]:
        print(f"{w} FAILED {msg}")
    print(json.dumps({"report": detail}))
    if args.trace:
        path = ROOT / ".perfbench" / f"spans-{w}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "spans": res["spans"]}))
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs, for the harness self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one oracle value, for the harness self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "ostrowski" / "__init__.py").is_file():
        print(f"error: no ostrowski sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="out-", dir=ROOT / ".perfbench"))
    results = []
    try:
        runner = Runner(args, outdir)
        for w in chosen:
            results.append(report(runner.run(w), args, spec))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in zip(chosen, results) for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
