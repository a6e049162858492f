"""Executable acceptance suite.

Each criterion function performs one verification battery at its stated
tolerance and returns a CriterionResult; run_all executes them in order.
The pytest acceptance module and the `ostrowski verify` subcommand both
drive these functions, so the pass/fail lines agree across surfaces.

Criterion 1 checks blocks of consecutive n as arrays: digits.digits_matrix
gives the greedy rows G by the same descent as digits_of, digits.step_rows
applies the odometer's carry rule to every row at once, and
step_rows(G[n-1]) = G[n] with G[0] = 0 is, by induction on n, the odometer
walk from 0 agreeing with the greedy digits.  Admissibility, the prefix-sum
condition and the round trip are array comparisons on G.

Criterion 2 builds every admissible string of a given length column by
column from the admissibility rule (admissible_rows), takes their values
with one matrix product against q_i, checks with one sort that the values
are exactly 0 .. q_K - 1, and compares the string of each n < n_max with
the greedy row of digits_matrix.

Criterion 5 runs the seeded lemma battery (lemma_trials), which the
`ostrowski lemmas` subcommand shares, as array passes over batches of
trials, plus a shift-mismatch sweep.

Criteria 6, 7 and 8 compare freshly computed values (the decay series, the
two scans) against the pinned baseline shipped with the package
(data/baseline.json, regenerated via `ostrowski regen-baseline`):
each builds its whole section with baseline_section, the builder
compute_baseline uses, and compares it field by field, ints, strings and
counts exactly and floats to 1e-8, naming the first field that differs.
The two scans come from one joint pass
(pinned_run("scans")), which criterion 7 makes and criteria 8 and 9
reuse; criterion 8 also checks the N = 1000 matrix against the digit sums
of the greedy rows.  Criterion 9 reruns that pass at other chunk sizes of
the joint pass and demands bit-identical sums and counts, compares the
values of the engine's block runs (digits.block_runs) on [987654, 1007654)
with the digit sums of the greedy rows, and checks those rows as
criterion 1 does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import budget
from .cf import AlphaParams, convergents, make_alpha, q_sequence
# digits_of, delta_scan_theorem and delta_scan_corollary have no caller here;
# they stay importable from this module because the benchmark's tracer wraps them.
from .digits import block_runs, digits_matrix, digits_of, step_rows
from .equidist import (
    CHUNK,
    DeltaFit,
    delta_scan_corollary,
    delta_scan_theorem,
    delta_scans,
    mismatch_sweep,
)
from .expsum import (
    b_zero_normalization,
    dft_window,
    e_turns,
    fejer_checks,
    reconstruction_error,
    single_decay,
    weyl_vdc_checks,
)
from .surd import Surd

BASELINE_GRID = (1_000, 10_000, 100_000, 1_000_000)
SCAN_MS, SCAN_MODULI = (2, 3), (3, 2)  # the pinned scans' m1, m2 and b1, b2
THETA = Fraction(1, 3)
BETA = Fraction(1, 2)
DECAY_M, DECAY_GAMMA, DECAY_THETA = 2, Fraction(1, 3), Fraction(3, 10)
RANDOM_SEED = 20260810
BLOCK = 1 << 13  # consecutive n per block of greedy rows in criteria 1 and 9


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
    return CriterionResult(number, name, ok, msg, time.perf_counter() - t0)


# -- criterion 1: representation suite ----------------------------------------


def _check_representations(params: AlphaParams, start: int, stop: int) -> str | None:
    """Odometer/greedy agreement, admissibility, the prefix-sum condition and
    the round trip for every n in [start, stop), in blocks of consecutive n;
    returns a message for the first failing n."""
    for lo in range(start, stop, BLOCK):
        hi = min(lo + BLOCK, stop)
        msg = _check_rows(params, lo, digits_matrix(params, max(lo - 1, 0), hi))
        if msg:
            return msg
    return None


def _check_rows(params: AlphaParams, lo: int, eps: np.ndarray) -> str | None:
    """_check_representations on [lo, hi), given the greedy rows G of
    [lo - 1, hi), or of [0, hi) when lo = 0.  It steps G one place back
    instead of walking: step_rows(G[n-1]) = G[n] for every n > 0 in [lo, hi),
    and G[0] = 0 when lo = 0, is by induction on n the odometer walk from the
    greedy row of lo - 1, or from the zero row, agreeing with G."""
    rows = step_rows(params, eps[:-1])
    if lo == 0:
        rows = np.concatenate((np.zeros((1, rows.shape[1]), rows.dtype), rows))
    else:
        eps = eps[1:]
    width = eps.shape[1]
    caps = np.array([params.digit_cap(i) for i in range(width)], dtype=eps.dtype)
    inadmissible = eps > caps
    inadmissible[:, 1:] |= (eps[:, 1:] == caps[1:]) & (eps[:, :-1] != 0)
    # value of the digits below column i, which must stay below q_i for
    # i = 0 .. width (at width it is the whole value); in int32, which is
    # faster, when no digits up to the dtype's top can reach 2^31
    qs = q_sequence(params, min_len=width + 1)[: width + 1]
    wide = np.iinfo(eps.dtype).max * sum(qs[:width]) >= 2**31
    qs = np.array(qs, dtype=np.int64 if wide else np.int32)
    value = np.zeros(len(eps), dtype=qs.dtype)
    too_big = np.zeros(len(eps), dtype=bool)
    for i in range(width):
        too_big |= value >= qs[i]
        value += eps[:, i] * qs[i]
    too_big |= value >= qs[width]

    def prefix(j: int) -> str:
        below = np.cumsum(np.concatenate(([0], eps[j] * qs[:width])))
        i = int(np.argmax(below >= qs))
        return f"prefix sum {below[i]} >= q_{i}"

    checks = [
        ((rows[:, :width] != eps).any(axis=1) | rows[:, width:].any(axis=1),
         lambda j: f"odometer {_trim(rows[j].tolist())} != greedy {_trim(eps[j].tolist())}"),
        (inadmissible.any(axis=1),
         lambda j: f"admissibility broken at index {np.argmax(inadmissible[j])}"),
        (too_big, prefix),
        (value != np.arange(lo, lo + len(eps)), lambda j: f"round-trip value {value[j]}"),
    ]
    hits = [(int(np.argmax(bad)), order) for order, (bad, _) in enumerate(checks) if bad.any()]
    if hits:
        j, order = min(hits)
        return f"m={params.m} n={lo + j}: {checks[order][1](j)}"
    return None


def criterion_1(n_max: int = 1_000_000, ms: Sequence[int] = (1, 2, 3, 5)) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    for m in ms:
        msg = _check_representations(make_alpha(m), 0, n_max)
        if msg:
            failures.append(msg)
    return _result(1, "representation suite", t0, failures,
                   f"all n < {n_max}, m in {tuple(ms)}")


# -- criterion 2: uniqueness oracle -------------------------------------------


def admissible_rows(params: AlphaParams, length: int) -> np.ndarray:
    """Every admissible digit vector of the given length, one per row, built
    column by column from the admissibility rule alone (independent of the
    greedy expansion): each row extends by every digit up to the cap, and
    by the cap itself only above a zero (position 0 has cap 0)."""
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(max(map(params.digit_cap, (1, 2)))))
    for i in range(length):
        cap = params.digit_cap(i)
        parts = [rows if e < cap or i == 0 else rows[rows[:, -1] == 0] for e in range(cap + 1)]
        rows = np.concatenate([np.column_stack((part, np.full(len(part), e, rows.dtype)))
                               for e, part in enumerate(parts)])
    return rows


def _trim(eps: Sequence[int]) -> tuple[int, ...]:
    top = len(eps)
    while top > 1 and eps[top - 1] == 0:
        top -= 1
    return tuple(eps[:top])


def criterion_2(n_max: int = 10_000, ms: Sequence[int] = (1, 2, 3)) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    for m in ms:
        params = make_alpha(m)
        qs = q_sequence(params, above=n_max)
        length = next(i for i in range(1, len(qs)) if qs[i] > n_max)
        rows = admissible_rows(params, length)
        values = rows @ np.array(qs[:length], dtype=np.int64)
        order = np.argsort(values, kind="stable")
        ranked = values[order]
        repeat = ranked[1:] == ranked[:-1]
        dupes = int(np.count_nonzero(repeat))
        if dupes:
            failures.append(f"m={m}: {dupes} duplicated values")
        if not np.array_equal(ranked[np.r_[True, ~repeat]], np.arange(qs[length])):
            failures.append(f"m={m}: enumeration misses values below q_{length}")
            continue
        # row n of the value-ordered strings against the greedy digits of n
        unique = rows[order[np.searchsorted(ranked, np.arange(n_max))]]
        greedy = digits_matrix(params, 0, n_max)
        width = greedy.shape[1]
        bad = (unique[:, :width] != greedy).any(axis=1) | unique[:, width:].any(axis=1)
        if bad.any():
            failures.append(f"m={m} n={int(np.argmax(bad))}: greedy differs from unique string")
    return _result(2, "uniqueness oracle", t0, failures,
                   f"exhaustive enumeration bijective below q_K > {n_max}, m in {tuple(ms)}")


# -- criterion 3: exact identities --------------------------------------------


def criterion_3() -> CriterionResult:
    t0 = time.perf_counter()
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
        qs = q_sequence(params, min_len=43)
        phi_pow = Surd(1, 0, 1, params.d)
        for k0 in range(1, 21):
            lhs_even = qs[2 * k0] + alpha * qs[2 * k0 - 1]
            lhs_odd = qs[2 * k0] + alpha * (qs[2 * k0 + 1] - qs[2 * k0])
            phi_pow = phi_pow * params.phi
            if lhs_even != phi_pow or lhs_odd != phi_pow:
                failures.append(f"surd identity fails at m={m}, k0={k0}")
                break
    for m in (2, 3):
        params = make_alpha(m)
        for k in range(2, 21):
            if b_zero_normalization(params, k) != 1:
                failures.append(f"b(0) normalization fails at m={m}, k={k}")
                break
    return _result(3, "exact identities", t0, failures,
                   "determinant i<=200, half-index surd identities k0<=20, b(0) normalization")


# -- criterion 4: window DFT reconstruction -----------------------------------


def criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
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


class SplitMix64:
    """Counter-based SplitMix64 stream (Steele, Lea & Flood, 2014) in
    wrapping numpy uint64 arithmetic: draw i (from 1) of state s is
    mix(s + i * GAMMA) mod 2^64, so the state is the seed plus a draw
    counter.  A seed below 2^64 is the state itself; a larger one is folded
    limb by limb, highest first, as state = mix(state) ^ limb (mix(0) = 0).
    random(n) gives u = (z >> 11) * 2^-53 in [0, 1); integers(lo, hi, n)
    gives lo + floor(u * (hi - lo)), which stays below hi because
    u <= 1 - 2^-53 rounds u * (hi - lo) below hi - lo < 2^53, and whose
    total-variation bias against the uniform law on lo .. hi - 1 is below
    (hi - lo) * 2^-53."""

    GAMMA = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, seed: int):
        if seed < 0:
            raise budget.UsageError(f"seed must be nonnegative, got {seed}")
        state = np.zeros(1, dtype=np.uint64)
        for shift in range(64 * ((seed.bit_length() - 1) // 64), -1, -64):
            state = self.mix(state) ^ np.uint64((seed >> shift) & (2**64 - 1))
        self.state, self.drawn = state, 0

    @staticmethod
    def mix(z: np.ndarray) -> np.ndarray:
        """SplitMix64's output function on a uint64 array, in place."""
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def bits(self, n: int) -> np.ndarray:
        z = np.arange(self.drawn + 1, self.drawn + n + 1, dtype=np.uint64)
        z *= self.GAMMA
        z += self.state
        self.drawn += n
        return self.mix(z)

    def random(self, n: int) -> np.ndarray:
        return (self.bits(n) >> np.uint64(11)) * 2.0**-53

    def integers(self, lo: int, hi: int, n: int) -> np.ndarray:
        return lo + (self.random(n) * (hi - lo)).astype(np.int64)


# trials per array pass: at most 16 x 549 complex windows, 0.14 MB; the
# phases of 4 * LEMMA_BATCH trials, at most 0.26 MB of float64, are drawn at
# once (64-trial batches cost about 2.7 MB more at the peak, at no gain in speed)
LEMMA_BATCH = 16


def lemma_trials(seed: int, trials: int) -> tuple[float, int]:
    """`trials` Fejer identities (R <= 100) and `trials` van der Corput
    bounds (N <= 500 unit vectors, R <= 50), in batches of LEMMA_BATCH
    trials: the worst gap |lhs - rhs| / R^2 and the count of bounds with
    lhs > rhs + 1e-6 * N^2.  One SplitMix64 stream draws x, the Fejer R, N
    and the van der Corput R as one vector each, then the phases of the unit
    vectors in trial order, 4 * LEMMA_BATCH trials at a time (at most
    0.26 MB of float64).  Batches hold trials of like R, or of like N within
    one such window, so that they pad little."""
    rng = SplitMix64(seed)
    budget.check("lemma_trials trials", trials)
    x, fejer_R = rng.random(trials), rng.integers(1, 101, trials)
    N, vdc_R = rng.integers(1, 501, trials), rng.integers(1, 51, trials)
    worst, violations = 0.0, 0
    by_R = np.argsort(fejer_R, kind="stable")
    for lo in range(0, trials, LEMMA_BATCH):
        part = by_R[lo : lo + LEMMA_BATCH]
        lhs, rhs = fejer_checks(x[part], fejer_R[part])
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / fejer_R[part] ** 2)))
    for start in range(0, trials, 4 * LEMMA_BATCH):
        window_N = N[start : start + 4 * LEMMA_BATCH]
        window_R = vdc_R[start : start + 4 * LEMMA_BATCH]
        phases = rng.random(int(window_N.sum()))
        offsets = np.cumsum(window_N) - window_N  # where each trial's phases begin
        by_N = np.argsort(window_N, kind="stable")
        for lo in range(0, len(by_N), LEMMA_BATCH):
            part = by_N[lo : lo + LEMMA_BATCH]
            n = window_N[part]
            cells = np.arange(n.max())
            inside = cells < n[:, None]
            a = np.zeros(inside.shape, dtype=complex)
            a[inside] = e_turns(phases[(offsets[part][:, None] + cells)[inside]])
            lhs, rhs = weyl_vdc_checks(a, n, window_R[part])
            violations += int(np.count_nonzero(lhs > rhs + 1e-6 * n * n))
    return worst, violations


def criterion_5() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    trials = 1000
    worst, violations = lemma_trials(RANDOM_SEED, trials)
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
                   f"fejer + van der Corput (seed {RANDOM_SEED}) + shift-mismatch sweep, "
                   "zero violations")


# -- criterion 6: single-system decay -----------------------------------------


def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    series = pinned_run("decay")
    slope = np.nan if series.slope is None else series.slope  # no fit: a failed slope
    if not slope < 0:
        failures.append(f"fit slope {series.slope} not negative")
    d6 = series.values[0]
    d20 = series.values[-1]
    if not d20 < d6 / 10:
        failures.append(f"D_20={d20} not below D_6/10={d6 / 10}")
    _check_section("decay", series, failures)
    return _result(6, "single-system decay", t0, failures,
                   f"m={DECAY_M} gamma={DECAY_GAMMA} theta={DECAY_THETA}: "
                   f"slope={slope:.4f}, D6={d6:.5f}, D20={d20:.6f}")


# -- baseline handling ---------------------------------------------------------


def pinned_run(section: str, *, _chunk: int = CHUNK):
    """The run behind the baseline's "decay" section, or ("scans") the
    theorem and corollary fits from one joint pass, defined once so that
    the criteria and `ostrowski regen-baseline` cannot drift apart."""
    if section == "decay":
        return single_decay(make_alpha(DECAY_M), DECAY_GAMMA, DECAY_THETA, kmax=20, kmin=6)
    systems = tuple(map(make_alpha, SCAN_MS))
    return delta_scans(BASELINE_GRID, systems, (THETA, BETA), SCAN_MODULI, _chunk=_chunk)


def baseline_path() -> Path:
    return Path(resources.files("ostrowski") / "data" / "baseline.json")


def load_baseline() -> dict | None:
    path = baseline_path()
    if not path.exists():
        return None
    return json.loads(path.read_text())


def baseline_section(section: str, result) -> dict:
    """The baseline's `section` built from its pinned run's result: the
    theorem or corollary fit of pinned_run("scans"), or the decay series."""
    (m1, m2), (b1, b2) = SCAN_MS, SCAN_MODULI
    if section == "theorem":
        return {
            "m1": m1, "m2": m2, "theta": str(THETA), "beta": str(BETA),
            "grid": list(BASELINE_GRID),
            "values": [[s.real, s.imag] for s in result.series.values],
            "normalized": list(result.err),
            "delta_hat": result.delta_hat,
        }
    if section == "corollary":
        return {
            "m1": m1, "b1": b1, "m2": m2, "b2": b2,
            "grid": list(BASELINE_GRID),
            "err": list(result.err),
            "delta_hat": result.delta_hat,
            "counts": {str(r.N): [list(map(str, row.tolist())) for row in r.counts]
                       for r in result.reports},
        }
    return {
        "m": DECAY_M, "gamma": str(DECAY_GAMMA), "theta": str(DECAY_THETA),
        "ks": list(result.ks),
        "values": list(result.values),
        "slope": result.slope,
    }


def _first_difference(got, want, path: str) -> str | None:
    """The path of the first field where `got` differs from `want`: floats
    to 1e-8, ints, strings and counts exactly."""
    if isinstance(got, dict) and isinstance(want, dict) and list(got) == list(want):
        parts = [(f"{path}.{key}", got[key], want[key]) for key in got]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        parts = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    elif isinstance(got, float) and isinstance(want, float):
        return None if abs(got - want) <= 1e-8 else path
    else:
        return None if type(got) is type(want) and got == want else path
    return next(filter(None, (_first_difference(g, w, p) for p, g, w in parts)), None)


def _check_section(section: str, result, failures: list[str]) -> None:
    """Compare the baseline's `section` with the one built from `result`,
    noting the first field that differs; a missing baseline is a failure."""
    base = load_baseline()
    if base is None:
        failures.append("baseline file missing; run `ostrowski regen-baseline`")
        return
    path = _first_difference(baseline_section(section, result), base[section], section)
    if path is not None:
        failures.append(f"{path} deviates from baseline")


def compute_baseline() -> dict:
    """Recompute every pinned scan value (the first-verified-run snapshot)."""
    (theorem, corollary), decay = pinned_run("scans"), pinned_run("decay")
    return {"theorem": baseline_section("theorem", theorem),
            "corollary": baseline_section("corollary", corollary),
            "decay": baseline_section("decay", decay)}


def write_baseline(data: dict) -> Path:
    path = baseline_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


# -- criteria 7-9: scan experiments vs the pinned baseline ----------------------


def criterion_7() -> tuple[CriterionResult, tuple[DeltaFit, DeltaFit]]:
    """The theorem fit against the baseline; also returns both pinned fits,
    from the one joint pass that criteria 8 and 9 reuse."""
    t0 = time.perf_counter()
    failures = []
    fits = pinned_run("scans")
    fit = fits[0]
    err = fit.err
    if not all(b < a for a, b in zip(err, err[1:])):
        failures.append(f"|S_N|/N not strictly decreasing: {err}")
    if fit.delta_hat is None or not fit.delta_hat > 0:
        failures.append(f"delta_hat {fit.delta_hat} not positive")
    _check_section("theorem", fit, failures)
    detail = f"delta_hat={fit.delta_hat:.4f}" if fit.delta_hat is not None else ""
    return _result(7, "joint sum decay experiment", t0, failures, detail), fits


def criterion_8(fits: tuple[DeltaFit, DeltaFit]) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    fit = fits[1]
    for rep in fit.reports:
        if rep.counts.sum() != rep.N:
            failures.append(f"matrix at N={rep.N} does not sum to N")
    if not fit.err[-1] < fit.err[0]:
        failures.append(f"err({fit.grid[-1]})={fit.err[-1]} not below err({fit.grid[0]})={fit.err[0]}")
    if fit.delta_hat is None or not fit.delta_hat > 0:
        failures.append(f"delta_hat {fit.delta_hat} not positive")
    # the N=1000 matrix against the greedy digit sums of every n < 1000
    s1, s2 = (digits_matrix(make_alpha(m), 0, 1_000).sum(axis=1, dtype=np.int64) for m in SCAN_MS)
    b1, b2 = SCAN_MODULI
    naive = np.bincount(s1 % b1 * b2 + s2 % b2, minlength=b1 * b2).reshape(b1, b2)
    if not np.array_equal(naive, fit.reports[0].counts):
        failures.append("N=1000 matrix differs from naive oracle")
    _check_section("corollary", fit, failures)
    detail = f"delta_hat={fit.delta_hat:.4f}" if fit.delta_hat is not None else ""
    return _result(8, "joint count experiment", t0, failures, detail)


def criterion_9(fits: tuple[DeltaFit, DeltaFit]) -> CriterionResult:
    t0 = time.perf_counter()
    failures = []
    theorem, corollary = fits
    # 997 cuts the blocks at shifting offsets; 2^16 spans whole blocks
    for chunk in (997, 1 << 16):
        again = pinned_run("scans", _chunk=chunk)
        if again[0].series.values != theorem.series.values:
            failures.append(f"sums at chunk size {chunk} not bit-identical")
        if not all(np.array_equal(a.counts, b.counts)
                   for a, b in zip(again[1].reports, corollary.reports)):
            failures.append(f"counts at chunk size {chunk} not bit-identical")
    start, stop = 987_654, 1_007_654
    for m in (2, 3):
        params = make_alpha(m)
        # greedy rows = the odometer walk from start - 1; their sums check the runs
        msg, sums = None, []
        for lo in range(start, stop, BLOCK):
            eps = digits_matrix(params, lo - 1, min(lo + BLOCK, stop))
            msg = msg or _check_rows(params, lo, eps)
            sums.append(eps[1:].sum(axis=1))
        if msg:
            failures.append(msg)
        table, runs = block_runs(params, start, stop)
        got = np.concatenate([base + table[offset : offset + n] for offset, base, n in runs])
        if not np.array_equal(got, np.concatenate(sums)):
            failures.append(f"m={m}: block runs differ from the greedy digit sums")
    return _result(9, "chunk-size invariance", t0, failures,
                   "chunk sizes 997 and 2^16: sums and counts bit-identical; "
                   f"engine = odometer on [{start}, {stop}) for m in (2, 3)")


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
    res7, fits = criterion_7()
    push(res7)
    push(criterion_8(fits))
    push(criterion_9(fits))
    return results
