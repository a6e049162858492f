"""Span recording at layer boundaries, and the per-layer metrics of a traced run.

The tracer swaps public module-level names in the library's modules for
wrappers for the duration of one traced pass, then puts the originals back.
A span wrapper records (name, start, end, parent, operation id) in memory; a
count wrapper only counts calls and keeps the first arguments for replay.
Hot inner-loop calls (`Odometer.step`, `phase_term` lookups,
`CompensatedSum.add`, the `Surd` operators) are never wrapped: they are
replayed afterwards as microbenchmarks on the workload's own operands.
"""

from __future__ import annotations

import time
from collections import Counter

CAPTURE = 4096  # arguments kept per counted name for the replays
REPLAY_TERMS = 200_000  # cap on replayed phase terms

# (module, attribute, span name); span names are <layer>.<public function>
SPANS = [
    ("cli", "run", "cli.run"),
    ("cli", "delta_scan_theorem", "equidist.delta_scan_theorem"),
    ("cli", "delta_scan_corollary", "equidist.delta_scan_corollary"),
    ("cli", "single_decay", "expsum.single_decay"),
    ("cli", "dft_window", "expsum.dft_window"),
    ("cli", "reconstruction_error", "expsum.reconstruction_error"),
    ("cli", "convergents", "cf.convergents"),
    ("cli", "digits_of", "digits.digits_of"),
    ("equidist", "joint_exp_series", "expsum.joint_exp_series"),
    ("expsum", "m_sums", "expsum.m_sums"),
    ("expsum", "min_norm_sum", "expsum.min_norm_sum"),
    ("expsum", "dft_window", "expsum.dft_window"),
    ("expsum", "reconstruction_error", "expsum.reconstruction_error"),
    ("expsum", "schmidt_margin", "expsum.schmidt_margin"),
    ("expsum", "b_zero_normalization", "expsum.b_zero_normalization"),
    ("digits", "v_sequence", "digits.v_sequence"),
    ("acceptance", "run_all", "acceptance.run_all"),
    ("acceptance", "delta_scan_theorem", "equidist.delta_scan_theorem"),
    ("acceptance", "delta_scan_corollary", "equidist.delta_scan_corollary"),
    ("acceptance", "mismatch_sweep", "equidist.mismatch_sweep"),
    ("acceptance", "single_decay", "expsum.single_decay"),
    ("acceptance", "dft_window", "expsum.dft_window"),
    ("acceptance", "reconstruction_error", "expsum.reconstruction_error"),
] + [("acceptance", f"criterion_{i}", f"acceptance.criterion_{i}") for i in range(1, 10)]

COUNTS = [
    ("digits", "digits_of", "digits.digits_of"),
    ("acceptance", "digits_of", "digits.digits_of"),
    ("cf", "frac_mul", "cf.frac_mul"),
    ("expsum", "frac_mul", "cf.frac_mul"),
]

# per-layer metric <- sum of these spans' durations in one pass
SPAN_METRICS = {
    "expsum.joint_series_s": ("expsum.joint_exp_series",),
    "expsum.single_decay_s": ("expsum.single_decay",),
    "expsum.m_sums_s": ("expsum.m_sums",),
    "expsum.dft_s": ("expsum.dft_window", "expsum.reconstruction_error"),
    "expsum.min_norm_s": ("expsum.min_norm_sum",),
    "equidist.theorem_scan_s": ("equidist.delta_scan_theorem",),
    "equidist.corollary_scan_s": ("equidist.delta_scan_corollary",),
    "equidist.mismatch_sweep_s": ("equidist.mismatch_sweep",),
    "cli.run_s": ("cli.run",),
}


class Tracer:
    """In-memory spans and call counts for the traced passes of one worker."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = {}
        self.criteria: list = []
        self.op = None
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self.counts[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if name == "acceptance.run_all":
                self.criteria.append([r.elapsed for r in result])
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        kept = self.captured.setdefault(name, [])

        def wrapper(*args):
            counts[name] += 1
            if len(kept) < CAPTURE:
                kept.append(args)
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for mod_name, attr, name in table:
                mod = self.modules[mod_name]
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, make(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def pass_metrics(spans: list[tuple], first: int, counts: Counter) -> dict[str, float]:
    """Span-derived metrics of one traced pass, whose spans start at index `first`."""
    out = {metric: sum(s[2] - s[1] for s in spans[first:] if s[0] in names)
           for metric, names in SPAN_METRICS.items()}
    child_time: Counter = Counter()
    for s in spans[first:]:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out["cli.self_s"] = sum(s[2] - s[1] - child_time[i]
                            for i, s in enumerate(spans[first:], first) if s[0] == "cli.run")
    out["digits.greedy_calls"] = counts["digits.digits_of"]
    out["cf.frac_mul_calls"] = counts["cf.frac_mul"]
    return out


def per_call(fn, calls: int, budget: float = 0.15, rounds: int = 3) -> float:
    """Fastest seconds per call of `fn` over `rounds` rounds; `fn` makes `calls` calls."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        took = time.perf_counter() - t0
        if took >= budget / rounds or reps >= 1 << 20:
            break
        reps *= 2
    samples = [took]
    for _ in range(rounds - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append(time.perf_counter() - t0)
    return min(samples) / (reps * calls)


def replays(wl, tracer: Tracer) -> dict[str, float]:
    """Microbenchmarks of the unwrapped inner loops, on the workload's operands."""
    from ostrowski import digits, expsum

    out = {}
    greedy_args = tracer.captured.get("digits.digits_of") or [(0, wl.params[wl.systems[0]])]
    digits_of = digits.digits_of

    def greedy():
        for args in greedy_args:
            digits_of(*args)

    out["digits.greedy_us"] = per_call(greedy, len(greedy_args)) * 1e6

    streams = wl.odometer_replay()

    def stream():
        for params, start, count in streams:
            step = digits.Odometer(params, start).step
            for _ in range(count):
                step()

    out["digits.odometer_step_ns"] = per_call(
        stream, sum(count for _, _, count in streams)) * 1e9
    out["digits.odometer_steps"] = wl.odometer_steps()

    tables = wl.table_sizes()
    out["digits.block_table_s"] = per_call(
        lambda: [digits.digit_sum_array(p, n) for p, n in tables], 1, budget=0.3)

    # frac_mul at the magnitudes the workload passed; with no calls, at the
    # workload's greedy arguments times phi
    mul_args = tracer.captured.get("cf.frac_mul") or [
        (n, p.phi) for n, p in greedy_args if n > 0] or [(1, wl.params[wl.systems[0]].phi)]
    frac_mul = tracer.modules["cf"].frac_mul

    def fm():
        for h, s in mul_args:
            frac_mul(h, s)

    out["cf.frac_mul_us"] = per_call(fm, len(mul_args)) * 1e6
    products = [s * h for h, s in mul_args]
    fracs = [x.frac() for x in products]
    out["surd.mul_us"] = per_call(lambda: [s * h for h, s in mul_args], len(mul_args)) * 1e6
    out["surd.frac_us"] = per_call(lambda: [x.frac() for x in products], len(products)) * 1e6
    out["surd.float_us"] = per_call(lambda: [float(x) for x in fracs], len(fracs)) * 1e6

    c1, c2, p1, p2 = wl.phase_replay()
    terms = max(1, min(wl.scan_n or 10**6, REPLAY_TERMS))
    xs1 = digits.digit_sum_array(p1, terms).tolist()
    xs2 = digits.digit_sum_array(p2, terms).tolist() if p2 is not None else range(terms)

    def phase():
        term = expsum.phase_term(c1, c2)
        add = expsum.CompensatedSum().add
        for a, b in zip(xs1, xs2):
            add(term(a, b))

    out["expsum.phase_sum_ns"] = per_call(phase, terms, budget=0.3) * 1e9
    return out
