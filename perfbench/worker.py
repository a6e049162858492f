"""One workload in a fresh interpreter: set up, run timed passes, check outputs.

Started by run.py, never by hand.  Prints `ready <seconds>` on stdout as
soon as the library is imported and the workload's systems and pinned data
are loaded, with the time that took in this fresh interpreter (interpreter
start-up itself is not the library's and is left out), then runs whole
passes of the workload, one operation at a time, until the next pass would
end after `--seconds`.  The last stdout line is one JSON object with the pass times,
the segment floor that becomes `wall_s`, operation counts, failures and, on
traced runs, the per-layer metrics and spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

MIN_PASSES = 2


def run_pass(wl, ops, tracer=None, pass_no=0) -> tuple[list, list]:
    """Run every operation once; only the operations are timed."""
    raws, op_times = [], []
    sink = io.StringIO()
    clock = time.perf_counter
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for i, (name, arg) in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{pass_no}:{i}"
            t = clock()
            try:
                raws.append(wl.run_op(name, arg))
            except Exception as exc:  # a raising operation counts as failed
                raws.append(exc)
            op_times.append(clock() - t)
    return raws, op_times


def segment_floor(passes: list[dict]) -> float:
    """Sum over segments of each segment's fastest time across passes.

    Interference from other tenants of the machine only ever adds time, so
    the fastest run of each segment estimates its uncontended cost.
    """
    return sum(min(p[key] for p in passes if key in p) for key in passes[0])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.small, args.inject_fault,
                                            Path(args.outdir))
    t0 = time.perf_counter()
    wl.setup()
    print(f"ready {time.perf_counter() - t0!r}", flush=True)
    if args.setup_only:
        return 0

    import ostrowski
    from ostrowski import acceptance, cf, cli, digits, equidist, expsum

    if not Path(ostrowski.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ostrowski imported from {ostrowski.__file__}, not this checkout")
    import numpy

    import spans

    ops = wl.prepare()
    keys = [wl.segment(i, name, arg) for i, (name, arg) in enumerate(ops)]
    tracer = spans.Tracer({"acceptance": acceptance, "cf": cf, "cli": cli, "digits": digits,
                           "equidist": equidist, "expsum": expsum}) if args.trace else None
    times = {"untraced": [], "traced": []}
    seg_passes = {"untraced": [], "traced": []}
    layer_passes = []
    stored = []
    attempted = failed = 0
    failures: list[str] = []
    bytes_out = []

    def record(op, out):
        nonlocal failed
        name, arg = op
        if isinstance(out, Exception):
            msg = f"raised {out!r}"
        else:
            try:
                msg = wl.check(name, arg, out)
            except Exception as exc:  # an output of the wrong shape fails its check
                msg = f"check raised {exc!r}"
        if msg:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{name}: {msg}")

    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            counts_before = tracer.counts.copy()
            tracer.install()
        try:
            raws, op_times = run_pass(wl, ops, tracer if traced else None, pass_no)
        finally:
            if traced:
                tracer.uninstall()
        segments = {}
        for key, took, raw in zip(keys, op_times, raws):
            for part, dt in wl.split(key, took, raw):
                segments[part] = segments.get(part, 0.0) + dt
        seg_passes["traced" if traced else "untraced"].append(segments)
        times["traced" if traced else "untraced"].append(sum(segments.values()))
        if traced:
            layer = spans.pass_metrics(tracer.spans, first_span, tracer.counts - counts_before)
            if tracer.criteria:
                layer.update({f"acceptance.c{i}_s": e
                              for i, e in enumerate(tracer.criteria.pop(), 1)})
            layer_passes.append(layer)
        outs = []
        for op, raw in zip(ops, raws):
            attempted += 1
            if isinstance(raw, Exception):
                outs.append(raw)
                continue
            try:
                outs.append(wl.digest(op[0], raw))
            except Exception as exc:
                outs.append(exc)
        bytes_out.append(sum(o.get("bytes", 0) for o in outs if isinstance(o, dict)))
        if wl.deferred:
            stored.append(outs)
        else:
            for op, out in zip(ops, outs):
                record(op, out)
        pass_no += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(times["untraced"] + times["traced"])
        enough = len(times["untraced"]) >= (1 if tracer else MIN_PASSES) and (
            tracer is None or times["traced"])
        if enough and elapsed + typical > args.seconds:
            break

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.deferred:
        wl.finish()
        for outs in stored:
            for op, out in zip(ops, outs):
                record(op, out)

    result = {
        "workload": wl.name,
        "config": wl.config,
        "items_per_pass": wl.items_per_pass,
        "times": times,
        "segment_floor": segment_floor(seg_passes["untraced"]),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "bytes_out_per_pass": bytes_out,
        "peak_rss_kb": peak_rss_kb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layers = {key: min(p.get(key, 0.0) for p in layer_passes)
                  for key in set().union(*layer_passes)}
        layers["cli.bytes_out"] = statistics.median(bytes_out)
        layers.update(spans.replays(wl, tracer))
        step_s = layers["digits.odometer_step_ns"] * 1e-9
        scans = wl.corollary_scans
        layers["equidist.corollary_self_est_s"] = (
            layers["equidist.corollary_scan_s"] - scans * 2 * wl.scan_n * step_s
            if scans else 0.0)
        layers["trace.overhead_ratio"] = (segment_floor(seg_passes["traced"])
                                          / segment_floor(seg_passes["untraced"]))
        result["per_layer"] = layers
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
