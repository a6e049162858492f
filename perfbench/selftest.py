"""Self-test of the benchmark harness; exits 0 when every claim holds.

    python3 perfbench/selftest.py

For each workload, at reduced size: a clean run passes every check, a
traced run reports every per-layer metric of BENCHMARK.json, and a run with
one deliberately wrong oracle value counts failed operations, reports
`correct: false` and exits 1.  Last, run.py in a directory holding only
BENCHMARK.json and perfbench/ must exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("joint_scan", "exact_windows", "random_digits", "verify_quick")


def bench(*extra: str, root: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1",
         "--small", *extra],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        rc, res = bench("--workload", w)
        if rc != 0 or not res or not res["correct"] or res["failed"]:
            problems.append(f"{w}: clean run rc={rc} result={res}")
        rc, res = bench("--workload", w, "--trace", "1")
        if rc != 0 or not res or set(res["metrics"]) != per_layer:
            problems.append(f"{w}: traced run rc={rc} lacks per-layer metrics")
        rc, res = bench("--workload", w, "--inject-fault")
        if rc != 1 or not res or res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: wrong oracle value not counted (rc={rc}, result={res})")
        print(f"{w}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "trajectory"))
        rc, res = bench("--workload", "joint_scan", root=bare)
        if rc == 0 or res is not None:
            problems.append(f"bare directory: rc={rc}, result={res}")
        print(f"bare directory: exit {rc}, result printed: {res is not None}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
