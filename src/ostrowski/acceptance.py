"""Executable acceptance suite.

Each criterion function performs one verification battery at its stated
tolerance and returns a CriterionResult; run_all executes them in order.
The pytest acceptance module and the `ostrowski verify` subcommand both
drive these functions, so the pass/fail lines agree across surfaces.

Criterion 1 checks blocks of consecutive n as arrays: one odometer walk
writes its digit rows (Odometer.digit_rows), digits.digits_matrix gives the
greedy rows by the same descent as digits_of, and admissibility, the
prefix-sum condition and the round trip are array comparisons on them.

Criterion 5 runs the seeded lemma battery (lemma_trials), which the
`ostrowski lemmas` subcommand shares, plus a shift-mismatch sweep.

Criteria 6, 7 and 8 compare freshly computed values (the decay series, the
two scans) against the pinned baseline shipped with the package
(data/baseline.json, regenerated via `ostrowski scan --regen-baseline`);
values must reproduce to 1e-8.  Criterion 9 reruns both scans at other
chunk sizes of the digit-sum engine and demands bit-identical sums and
counts, and compares the engine with one odometer walk.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .cf import AlphaParams, convergents, make_alpha, q_sequence
from .digits import CHUNK, Odometer, digit_sum_chunks, digits_matrix, digits_of
from .equidist import (
    delta_scan_corollary,
    delta_scan_theorem,
    joint_count_series,
    mismatch_sweep,
)
from .expsum import (
    b_zero_normalization,
    dft_window,
    fejer_check,
    joint_exp_series,
    reconstruction_error,
    single_decay,
    weyl_vdc_check,
)
from .surd import Surd

BASELINE_GRID = (1_000, 10_000, 100_000, 1_000_000)
THETA = Fraction(1, 3)
BETA = Fraction(1, 2)
RANDOM_SEED = 20260810


@dataclass(frozen=True, slots=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.elapsed:.1f}s) {self.detail}"


def _result(number: int, name: str, t0: float, failures: list[str], detail: str = "") -> CriterionResult:
    ok = not failures
    msg = detail if ok else "; ".join(failures[:4])
    return CriterionResult(number, name, ok, msg, time.time() - t0)


# -- criterion 1: representation suite ----------------------------------------


def _check_representations(params: AlphaParams, n_max: int) -> str | None:
    """Odometer/greedy agreement, admissibility, the prefix-sum condition and
    the round trip for every n below n_max, in blocks of consecutive n;
    returns a message for the first failing n."""
    m = params.m
    od = Odometer(params)
    rows_per_chunk = CHUNK // 2  # 2^14 rows raised repeated `verify --quick` peak RSS 3 MB
    for lo in range(0, n_max, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_max)
        eps = digits_matrix(params, lo, hi)
        width = eps.shape[1]
        try:
            rows = od.digit_rows(hi - lo, width)
        except ValueError as exc:
            return f"m={m}: odometer {exc}"
        caps = np.array([params.digit_cap(i) for i in range(width)])
        inadmissible = eps > caps
        inadmissible[:, 1:] |= (eps[:, 1:] == caps[1:]) & (eps[:, :-1] != 0)
        # value of the digits below column i, which must stay below q_i for
        # i = 0 .. width (at width it is the whole value); int64 scalars keep
        # the products int64
        qs = np.array(q_sequence(m, min_len=width + 1)[: width + 1], dtype=np.int64)
        value = np.zeros(hi - lo, dtype=np.int64)
        too_big = np.zeros(hi - lo, dtype=bool)
        for i in range(width):
            too_big |= value >= qs[i]
            value += eps[:, i] * qs[i]
        too_big |= value >= qs[width]

        def prefix(j: int) -> str:
            below = np.cumsum(np.concatenate(([0], eps[j] * qs[:width])))
            i = int(np.argmax(below >= qs))
            return f"prefix sum {below[i]} >= q_{i}"

        checks = [
            ((rows != eps).any(axis=1),
             lambda j: f"odometer {_trim(rows[j].tolist())} != greedy {_trim(eps[j].tolist())}"),
            (inadmissible.any(axis=1),
             lambda j: f"admissibility broken at index {np.argmax(inadmissible[j])}"),
            (too_big, prefix),
            (value != np.arange(lo, hi), lambda j: f"round-trip value {value[j]}"),
        ]
        hits = [(int(np.argmax(bad)), order) for order, (bad, _) in enumerate(checks) if bad.any()]
        if hits:
            j, order = min(hits)
            return f"m={m} n={lo + j}: {checks[order][1](j)}"
    return None


def criterion_1(n_max: int = 1_000_000, ms: Sequence[int] = (1, 2, 3, 5)) -> CriterionResult:
    t0 = time.time()
    failures = []
    for m in ms:
        msg = _check_representations(make_alpha(m), n_max)
        if msg:
            failures.append(msg)
    return _result(1, "representation suite", t0, failures,
                   f"all n < {n_max}, m in {tuple(ms)}")


# -- criterion 2: uniqueness oracle -------------------------------------------


def admissible_strings(params: AlphaParams, length: int) -> Iterable[tuple[int, ...]]:
    """Every admissible digit vector of the given length, by direct recursion
    on the admissibility rule (independent of the greedy expansion)."""
    def rec(i: int, prev: int):
        if i == length:
            yield ()
            return
        cap = params.digit_cap(i)
        for e in range(cap + 1):
            if e == cap and i > 0 and prev != 0:
                continue
            for tail in rec(i + 1, e):
                yield (e,) + tail

    return rec(0, 0)


def _trim(eps: Sequence[int]) -> tuple[int, ...]:
    top = len(eps)
    while top > 1 and eps[top - 1] == 0:
        top -= 1
    return tuple(eps[:top])


def criterion_2(n_max: int = 10_000, ms: Sequence[int] = (1, 2, 3)) -> CriterionResult:
    t0 = time.time()
    failures = []
    for m in ms:
        params = make_alpha(m)
        qs = q_sequence(m, above=n_max)
        length = next(i for i in range(1, len(qs)) if qs[i] > n_max)
        value_to_string: dict[int, tuple[int, ...]] = {}
        dupes = 0
        for eps in admissible_strings(params, length):
            v = sum(e * q for e, q in zip(eps, qs))
            if v in value_to_string:
                dupes += 1
            value_to_string[v] = eps
        if dupes:
            failures.append(f"m={m}: {dupes} duplicated values")
        if sorted(value_to_string) != list(range(qs[length])):
            failures.append(f"m={m}: enumeration misses values below q_{length}")
        for n in range(n_max):
            if _trim(value_to_string[n]) != digits_of(n, params).eps:
                failures.append(f"m={m} n={n}: greedy differs from unique string")
                break
    return _result(2, "uniqueness oracle", t0, failures,
                   f"exhaustive enumeration bijective below q_K > {n_max}, m in {tuple(ms)}")


# -- criterion 3: exact identities --------------------------------------------


def criterion_3() -> CriterionResult:
    t0 = time.time()
    failures = []
    for m in range(1, 11):
        table = convergents(make_alpha(m), 200)
        for i in range(200):
            if table.p[i + 1] * table.q[i] - table.p[i] * table.q[i + 1] != (-1) ** i:
                failures.append(f"determinant fails at m={m}, i={i}")
                break
    for m in range(1, 6):
        params = make_alpha(m)
        alpha = params.alpha
        qs = q_sequence(m, min_len=43)
        for k0 in range(1, 21):
            lhs_even = qs[2 * k0] + alpha * qs[2 * k0 - 1]
            lhs_odd = qs[2 * k0] + alpha * (qs[2 * k0 + 1] - qs[2 * k0])
            phi_pow = params.phi ** k0
            if lhs_even != phi_pow or lhs_odd != phi_pow:
                failures.append(f"surd identity fails at m={m}, k0={k0}")
                break
    for m in (2, 3):
        params = make_alpha(m)
        one = Surd(1, 0, 1, params.d)
        for k in range(2, 21):
            if b_zero_normalization(params, k) != one:
                failures.append(f"b(0) normalization fails at m={m}, k={k}")
                break
    return _result(3, "exact identities", t0, failures,
                   "determinant i<=200, half-index surd identities k0<=20, b(0) normalization")


# -- criterion 4: window DFT reconstruction -----------------------------------


def criterion_4() -> CriterionResult:
    t0 = time.time()
    failures = []
    params = make_alpha(2)
    thetas = (Fraction(1, 3), Fraction(1, 2), 0.37)
    for k in (3, 4, 5):
        for v in range(1, 6):
            for theta in thetas:
                spectrum = dft_window(params, k, v, theta)
                err = reconstruction_error(spectrum, extended=True)
                if err >= 1e-9:
                    failures.append(f"k={k} v={v} theta={theta}: reconstruction err {err:.2e}")
                pe = abs(spectrum.parseval_sum() - 1.0)
                if pe >= 1e-9:
                    failures.append(f"k={k} v={v} theta={theta}: parseval off by {pe:.2e}")
    return _result(4, "window DFT reconstruction", t0, failures,
                   "m=2, k in 3..5, v in 1..5, three thetas, extended range, 1e-9")


# -- criterion 5: lemma checks -------------------------------------------------


def lemma_trials(seed: int, trials: int) -> tuple[float, int]:
    """`trials` Fejer identities (R <= 100), then `trials` van der Corput bounds
    (N <= 500 unit vectors, R <= 50), drawn from one generator: the worst gap
    |lhs - rhs| / R^2 and the count of bounds with lhs > rhs + 1e-6 * N^2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = float(rng.random())
        R = int(rng.integers(1, 101))
        lhs, rhs = fejer_check(x, R)
        worst = max(worst, abs(lhs - rhs) / (R * R))
    violations = 0
    for _ in range(trials):
        N = int(rng.integers(1, 501))
        R = int(rng.integers(1, 51))
        lhs, rhs = weyl_vdc_check(np.exp(2j * np.pi * rng.random(N)), R)
        if lhs > rhs + 1e-6 * N * N:
            violations += 1
    return worst, violations


def criterion_5(seed: int = RANDOM_SEED) -> CriterionResult:
    t0 = time.time()
    failures = []
    trials = 1000
    worst, violations = lemma_trials(seed, trials)
    if worst > 1e-8:
        failures.append(f"fejer: worst |lhs-rhs|/R^2 = {worst:.3e} > 1e-8")
    if violations:
        failures.append(f"van der Corput: {violations} of {trials} trials exceed rhs + 1e-6*N^2")
    for m in (2, 3):
        records = mismatch_sweep(
            make_alpha(m), (1_000, 10_000, 100_000), range(3, 11), range(1, 21)
        )
        bad = [r for r in records if not r.ok]
        if bad:
            r = bad[0]
            failures.append(f"mismatch bound broken: m={m} N={r.N} k={r.k} r={r.r}")
    return _result(5, "lemma checks", t0, failures,
                   f"fejer + van der Corput (seed {seed}) + shift-mismatch sweep, zero violations")


# -- criterion 6: single-system decay -----------------------------------------


def criterion_6() -> CriterionResult:
    t0 = time.time()
    failures = []
    series = single_decay(make_alpha(2), Fraction(1, 3), Fraction(3, 10), kmax=20, kmin=6)
    if not series.slope < 0:
        failures.append(f"fit slope {series.slope} not negative")
    d6 = series.values[0]
    d20 = series.values[-1]
    if not d20 < d6 / 10:
        failures.append(f"D_20={d20} not below D_6/10={d6 / 10}")
    base = load_baseline()
    if base is None:
        failures.append("baseline file missing; run `ostrowski scan --regen-baseline`")
    else:
        ref = base["decay"]
        for k, v, want in zip(series.ks, series.values, ref["values"]):
            if abs(v - want) > 1e-8:
                failures.append(f"D_{k} deviates from baseline by > 1e-8")
        if abs(series.slope - ref["slope"]) > 1e-8:
            failures.append("slope deviates from baseline by > 1e-8")
    return _result(6, "single-system decay", t0, failures,
                   f"m=2 gamma=1/3 theta=3/10: slope={series.slope:.4f}, D6={d6:.5f}, D20={d20:.6f}")


# -- baseline handling ---------------------------------------------------------


def baseline_path() -> Path:
    return Path(resources.files("ostrowski") / "data" / "baseline.json")


def load_baseline() -> dict | None:
    path = baseline_path()
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compute_baseline() -> dict:
    """Recompute every pinned scan value (the first-verified-run snapshot)."""
    p2, p3 = make_alpha(2), make_alpha(3)
    theorem = delta_scan_theorem(p2, p3, THETA, BETA, BASELINE_GRID)
    corollary = delta_scan_corollary(p2, 3, p3, 2, BASELINE_GRID)
    decay = single_decay(p2, Fraction(1, 3), Fraction(3, 10), kmax=20, kmin=6)
    return {
        "theorem": {
            "m1": 2, "m2": 3, "theta": "1/3", "beta": "1/2",
            "grid": list(BASELINE_GRID),
            "values": [[s.real, s.imag] for s in theorem.series.values],
            "normalized": list(theorem.err),
            "delta_hat": theorem.delta_hat,
        },
        "corollary": {
            "m1": 2, "b1": 3, "m2": 3, "b2": 2,
            "grid": list(BASELINE_GRID),
            "err": list(corollary.err),
            "delta_hat": corollary.delta_hat,
            "counts": {
                str(r.N): [[str(c) for c in row] for row in r.counts]
                for r in corollary.reports
            },
        },
        "decay": {
            "m": 2, "gamma": "1/3", "theta": "3/10",
            "ks": list(decay.ks),
            "values": list(decay.values),
            "slope": decay.slope,
        },
    }


def write_baseline(data: dict, path: Path | None = None) -> Path:
    path = path or baseline_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


# -- criteria 7-9: scan experiments vs the pinned baseline ----------------------


def criterion_7() -> tuple[CriterionResult, object]:
    t0 = time.time()
    failures = []
    p2, p3 = make_alpha(2), make_alpha(3)
    fit = delta_scan_theorem(p2, p3, THETA, BETA, BASELINE_GRID)
    err = fit.err
    if not all(b < a for a, b in zip(err, err[1:])):
        failures.append(f"|S_N|/N not strictly decreasing: {err}")
    if fit.delta_hat is None or not fit.delta_hat > 0:
        failures.append(f"delta_hat {fit.delta_hat} not positive")
    base = load_baseline()
    if base is None:
        failures.append("baseline file missing; run `ostrowski scan --regen-baseline`")
    else:
        ref = base["theorem"]
        for n, s, (re, im) in zip(fit.grid, fit.series.values, ref["values"]):
            if abs(s.real - re) > 1e-8 or abs(s.imag - im) > 1e-8:
                failures.append(f"S_{n} deviates from baseline by > 1e-8")
        if abs(fit.delta_hat - ref["delta_hat"]) > 1e-8:
            failures.append("delta_hat deviates from baseline by > 1e-8")
    detail = f"delta_hat={fit.delta_hat:.4f}" if fit.delta_hat is not None else ""
    return _result(7, "joint sum decay experiment", t0, failures, detail), fit


def criterion_8() -> tuple[CriterionResult, object]:
    t0 = time.time()
    failures = []
    p2, p3 = make_alpha(2), make_alpha(3)
    fit = delta_scan_corollary(p2, 3, p3, 2, BASELINE_GRID)
    for rep in fit.reports:
        if sum(map(sum, rep.counts)) != rep.N:
            failures.append(f"matrix at N={rep.N} does not sum to N")
    if not fit.err[-1] < fit.err[0]:
        failures.append(f"err({fit.grid[-1]})={fit.err[-1]} not below err({fit.grid[0]})={fit.err[0]}")
    if fit.delta_hat is None or not fit.delta_hat > 0:
        failures.append(f"delta_hat {fit.delta_hat} not positive")
    # the N=1000 matrix against the naive per-n double expansion
    naive = [[0] * 2 for _ in range(3)]
    for n in range(1_000):
        naive[digits_of(n, p2).digit_sum() % 3][digits_of(n, p3).digit_sum() % 2] += 1
    if tuple(tuple(row) for row in naive) != fit.reports[0].counts:
        failures.append("N=1000 matrix differs from naive oracle")
    base = load_baseline()
    if base is None:
        failures.append("baseline file missing; run `ostrowski scan --regen-baseline`")
    else:
        ref = base["corollary"]
        for rep in fit.reports:
            want = [[int(c) for c in row] for row in ref["counts"][str(rep.N)]]
            if [list(r) for r in rep.counts] != want:
                failures.append(f"counts at N={rep.N} deviate from baseline")
        if abs(fit.delta_hat - ref["delta_hat"]) > 1e-8:
            failures.append("delta_hat deviates from baseline by > 1e-8")
    detail = f"delta_hat={fit.delta_hat:.4f}" if fit.delta_hat is not None else ""
    return _result(8, "joint count experiment", t0, failures, detail), fit


def criterion_9(theorem_fit, corollary_fit) -> CriterionResult:
    t0 = time.time()
    failures = []
    p2, p3 = make_alpha(2), make_alpha(3)
    # 997 cuts the blocks at shifting offsets; 2^16 spans whole blocks
    for chunk in (997, 1 << 16):
        series = joint_exp_series(BASELINE_GRID, THETA, BETA, p2, p3, _chunk=chunk)
        if series.values != theorem_fit.series.values:
            failures.append(f"sums at chunk size {chunk} not bit-identical")
        reports = joint_count_series(BASELINE_GRID, p2, 3, p3, 2, _chunk=chunk)
        if [r.counts for r in reports] != [r.counts for r in corollary_fit.reports]:
            failures.append(f"counts at chunk size {chunk} not bit-identical")
    start, span = 987_654, 20_000
    for m in (2, 3):
        params = make_alpha(m)
        od = Odometer(params, start)
        width = len(digits_of(start + span - 1, params).eps)
        # in criterion 1's blocks: one 20000-row walk raised the peak RSS by 4 MB
        want = [od.digit_rows(min(CHUNK // 2, start + span - lo), width).sum(axis=1)
                for lo in range(start, start + span, CHUNK // 2)]
        got = np.concatenate(list(digit_sum_chunks(params, start, start + span, _chunk=997)))
        if got.tolist() != np.concatenate(want).tolist():
            failures.append(f"m={m}: digit_sum_chunks differs from the odometer")
    return _result(9, "chunk-size invariance", t0, failures,
                   "chunk sizes 997 and 2^16: sums and counts bit-identical; "
                   f"engine = odometer on [{start}, {start + span}) for m in (2, 3)")


def run_all(
    quick: bool = False,
    report: Callable[[str], None] = print,
) -> list[CriterionResult]:
    """Run the full suite in order, emitting one pass/fail line per criterion.

    quick=True shrinks only the n-ranges of criteria 1-2 for smoke runs;
    the scan criteria always run at full scale because their values are
    pinned against the baseline.
    """
    results: list[CriterionResult] = []

    def push(res: CriterionResult):
        results.append(res)
        report(res.line())

    push(criterion_1(n_max=50_000 if quick else 1_000_000))
    push(criterion_2(n_max=2_000 if quick else 10_000))
    push(criterion_3())
    push(criterion_4())
    push(criterion_5())
    push(criterion_6())
    res7, fit7 = criterion_7()
    push(res7)
    res8, fit8 = criterion_8()
    push(res8)
    push(criterion_9(fit7, fit8))
    return results
