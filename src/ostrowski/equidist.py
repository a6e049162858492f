"""The joint theorem and its corollary: sums and counts over r >= 2 digit sums.

Every joint scan is a fold of one exact integer histogram H of
(S_1(n) mod P_1, ..., S_r(n) mod P_r) over n < N and reaches it by one
call, joint_folds(grid, systems, folds); every joint function here takes
(grid, systems, ...) in that order.  The pass keys n by mixed-radix sums of
residue rows read along digits.block_runs (see joint_folds), and P_i never
exceeds W_i = digits.digit_sum_bound(p_i, N), because S_i(n) < W_i.
Two folds read H:

- sum_fold(phases) gives the theorem's sum_{n<N} e(theta*S_1(n) +
  beta*S_2(n)), one phase per system, at moduli the phases' denominators
  (joint_exp_series);
- count_fold(systems, moduli) gives the corollary's b_1 x ... x b_r residue
  counts, a read-only int64 array that is H in its corner (JointCountReport).

The counts are exact integers, so both folds are the same for every chunk
size, and delta_scans takes the theorem's sums and the corollary's counts
from one pass.  Each report carries the flags gcd(b_i, m_i) = 1 that the
equidistribution statement rests on (tests assert decay only when all
hold).  The delta fits keep the paper's two systems and estimate the error
exponent delta by ordinary least squares (expsum.fit_line) on log err(N)
versus log N, with err the maximum relative cell deviation (counting mode)
or |S_N|/N (exponential-sum mode).

Each quantity has one route here.  The slow second routes (per-n joint
sums, per-n odometer mismatch counts, single-system counts from one sum
array, counts recovered from the character sums) live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import budget
from .cf import AlphaParams, hypothesis_m_gamma, q_sequence
from .digits import block_runs, digit_sum_array, digit_sum_bound
from .expsum import TWO_PI, Real, fit_line

CHUNK = 1 << 14  # keys per np.bincount of the joint pass, by default


def _fold(hist: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """A joint histogram summed down to residues mod P_1 x ... x P_r.
    Along each axis the histogram's length is a multiple of P_i or the
    value bound W_i >= P_i (its index is then S_i itself), so index mod P_i
    is S_i mod P_i either way.  Exact integers: a fold of a shared pass
    equals the histogram a pass at these moduli would give."""
    padded = np.pad(hist, [(0, -h % P) for h, P in zip(hist.shape, moduli)])
    split = [d for h, P in zip(padded.shape, moduli) for d in (h // P, P)]
    return padded.reshape(split).sum(axis=tuple(range(0, len(split), 2)))


Fold = tuple[tuple[int, ...], Callable[[int, np.ndarray], object]]
Systems = Sequence[AlphaParams]  # the r >= 2 numeration systems of a joint scan, in axis order


def _residue_rows(
    table: np.ndarray, P: int, scale: int, dtype: np.dtype
) -> Callable[[int], np.ndarray]:
    """row(base) = ((base + table) mod P) * scale, from the value-to-bin
    lookup, built the first time a run needs base mod P and then kept."""
    lut = (np.arange(P + int(table.max())) % P * scale).astype(dtype)
    rows: dict[int, np.ndarray] = {}

    def row(base: int) -> np.ndarray:
        r = base % P
        if r not in rows:
            rows[r] = lut[r:].take(table)
        return rows[r]

    return row


def joint_folds(
    grid: Sequence[int],
    systems: Systems,
    folds: Sequence[Fold],
    *,
    _chunk: int = CHUNK,
) -> list[list]:
    """Several folds of the cumulative histogram H of (S_1(n) mod P_1, ...,
    S_r(n) mod P_r) over n < N, one axis per system (r >= 2), at each
    point N of a strictly increasing positive grid, from one pass over
    [0, grid[-1]).

    A fold (moduli, f) names one modulus q_i per system and reads residues
    mod min(q_i, W_i); the pass keys n by P_i = min(lcm of the folds'
    moduli, W_i), and f(N, H) receives H summed down to its own moduli, so
    its results do not depend on what shares the pass.  A fold at the
    pass's own moduli receives the pass's histogram itself, which the pass
    goes on adding to, so no fold may keep H.

    On a block run S_i(n) = base + T_i[offset + t], so the key of n is
    sum_i R_i[base_i mod P_i][o_i], with R_i[r] = ((r + T_i) mod P_i) *
    stride_i and stride_i = P_{i+1}...P_r, a row built when a run first
    needs its residue.  The worst-case rows, sum_i P_i*q_Ki entries, and
    the P_1...P_r bins are charged to the budget first.  Where no run
    ends, the keys are one slice add of two rows into a reused buffer of
    max(_chunk, P_1...P_r) keys, plus one in-place add per further system;
    there is one np.bincount per full buffer and one per grid point.
    """
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise budget.UsageError(f"grid must be strictly increasing positive integers, got {grid}")
    r = len(systems)
    if r < 2 or any(len(moduli) != r for moduli, _ in folds):
        raise budget.UsageError(f"need r >= 2 systems and one modulus per system in every fold, "
                                f"got {r} systems and moduli {[m for m, _ in folds]}")
    budget.check("joint scan N", grid[-1])
    W = [digit_sum_bound(p, grid[-1]) for p in systems]
    mods = [tuple(min(q, w) for q, w in zip(qs, W)) for qs, _ in folds]
    P = tuple(min(math.lcm(*col), w) for col, w in zip(zip(*mods), W))
    bins = math.prod(P)
    budget.check("joint histogram bins P1*P2", bins)
    tables, runs = zip(*(block_runs(p, 0, grid[-1]) for p in systems))
    budget.check("joint residue rows P1*qK1+P2*qK2", sum(p * len(t) for p, t in zip(P, tables)))
    # keys < P_1...P_r in the narrowest unsigned dtype (uint8 up to 256 bins,
    # uint16 up to 65 536): the rows and the key buffer take 1-2 bytes a key,
    # and np.bincount counts unsigned keys as fast as intp ones
    dtype = np.min_scalar_type(bins - 1)
    row_of = [_residue_rows(t, P_i, math.prod(P[i + 1:]), dtype)
              for i, (t, P_i) in enumerate(zip(tables, P))]
    size = min(max(_chunk, bins), grid[-1])
    keys = np.empty(size, dtype=dtype)
    hist = np.zeros(bins, dtype=np.int64)
    out: list[list] = [[] for _ in folds]
    # n is the next value to key, and keys[:n - b] hold the keys of [b, n);
    # system i's current run ends at ends[i] and reads rows[i] from offset 0
    # at starts[i]
    n = b = 0
    ends, starts, rows = [0] * r, [0] * r, [None] * r
    for point in grid:
        while n < point:
            for i in range(r):
                if n == ends[i]:
                    offset, base, length = next(runs[i])
                    starts[i], ends[i], rows[i] = n - offset, n + length, row_of[i](base)
            stop = min(*ends, point, b + size)
            first, second, *more = (row[n - s : stop - s] for row, s in zip(rows, starts))
            segment = keys[n - b : stop - b]
            np.add(first, second, out=segment)
            for row in more:
                np.add(segment, row, out=segment)
            n = stop
            if n == b + size:
                hist += np.bincount(keys, minlength=bins)
                b = n
        if n > b:
            hist += np.bincount(keys[: n - b], minlength=bins)
            b = n
        H = hist.reshape(P)
        for (_, f), moduli, values in zip(folds, mods, out):
            values.append(f(point, H if moduli == P else _fold(H, moduli)))
    return out


def sum_fold(phases: Sequence[Real]) -> Fold:
    """The fold giving sum_{n<N} e(sum_i phases[i]*S_i(n)), at moduli the
    denominators of the phases' exact values (a float at its exact binary
    value); see joint_exp_series."""
    steps = tuple(Fraction(c) % 1 for c in phases)
    tables: dict[tuple[int, ...], list[np.ndarray]] = {}

    def fold(n: int, hist: np.ndarray) -> complex:
        # c*S mod 1 depends only on S mod P, reduced exactly, then rounded
        # once; built at the first grid point, as every point has the same P
        if hist.shape not in tables:
            tables[hist.shape] = [np.array([float(c * a % 1) for a in range(P)])
                                  for c, P in zip(steps, hist.shape)]
        bins = np.nonzero(hist)
        counts = hist[bins].astype(np.float64)
        phase = TWO_PI * (sum(t[a] for t, a in zip(tables[hist.shape], bins)) % 1.0)
        return complex(math.fsum(counts * np.cos(phase)), math.fsum(counts * np.sin(phase)))

    return tuple(c.denominator for c in steps), fold


@dataclass(frozen=True, slots=True)
class ExpSumSeries:
    """Joint sums along an N grid, with normalized moduli |S|/N."""

    grid: tuple[int, ...]
    values: tuple[complex, ...]

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(abs(s) / n for s, n in zip(self.values, self.grid))


# a function of its own because the benchmark's tracer wraps equidist.joint_exp_series
def joint_exp_series(grid: Sequence[int], systems: Systems, phases: Sequence[Real]) -> ExpSumSeries:
    """Cumulative joint sums at each grid point, folded from the histogram H
    of (S_i mod P_i) with P_i = min(denominator of phases[i], W_i), so the
    values are the same for every chunk size.

    Each nonzero bin's phase is the sum of the exact reductions
    float(phases[i]*a_i mod 1), taken mod 1; the bins are summed as H*cos
    and H*sin with math.fsum.  For two systems, with u = 2^-53, a phase
    errs by at most 2u, so each part of a bin errs by less than (6*pi +
    2)*u*H[a1, a2], and each value is within 32*u*N (3.6e-15*N) of the
    exact sum, for rational and float phases alike.
    """
    (values,) = joint_folds(grid, systems, [sum_fold(phases)])
    return ExpSumSeries(grid=tuple(grid), values=tuple(values))


@dataclass(frozen=True, slots=True)
class JointCountReport:
    """Exact b_1 x ... x b_r count matrix of joint digit-sum residues below
    N, as a read-only int64 array, with gcd(b_i, m_i) = 1 per system."""

    N: int
    moduli: tuple[int, ...]
    counts: np.ndarray
    gcd_ok: tuple[bool, ...]

    def __eq__(self, other: object) -> bool:
        """Every field equal, the count matrices by value."""
        if not isinstance(other, JointCountReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__slots__)

    @property
    def expected(self) -> float:
        return self.N / math.prod(self.moduli)

    def rel_dev(self) -> np.ndarray:
        """Relative deviation |C * b_1...b_r / N - 1| per cell."""
        return np.abs(self.counts * (math.prod(self.moduli) / self.N) - 1.0)

    def deviation_stats(self) -> tuple[float, float]:
        """(max_rel_dev, mean_rel_dev); the mean is summed in row-major order."""
        devs = self.rel_dev()
        return float(devs.max()), float(np.cumsum(devs)[-1] / devs.size)


def count_fold(systems: Systems, moduli: Sequence[int]) -> Fold:
    """The fold giving the b_1 x ... x b_r count matrix, with the cells
    charged to the budget first.  S_i < W_i, so residues from W_i up never
    occur and each matrix is the histogram in its corner."""
    moduli = tuple(moduli)
    if min(moduli, default=0) < 1:
        raise budget.UsageError(f"moduli must be >= 1, got {', '.join(map(str, moduli))}")
    budget.check("joint counts cells b1*b2", math.prod(moduli))
    gcd_ok = tuple(math.gcd(b, p.m) == 1 for b, p in zip(moduli, systems))

    def fold(n: int, hist: np.ndarray) -> JointCountReport:
        assert int(hist.sum()) == n
        counts = np.pad(hist, [(0, b - h) for b, h in zip(moduli, hist.shape)])
        counts.flags.writeable = False
        return JointCountReport(N=n, moduli=moduli, counts=counts, gcd_ok=gcd_ok)

    return moduli, fold


@dataclass(frozen=True, slots=True)
class MismatchRecord:
    N: int
    k: int
    r: int
    count: int
    bound: Fraction

    @property
    def ok(self) -> bool:
        return self.count <= self.bound


def mismatch_sweep(
    params: AlphaParams,
    Ns: Sequence[int],
    ks: Sequence[int],
    rs: Sequence[int],
) -> list[MismatchRecord]:
    """How often adding r to n changes digits at or above index k, for every
    (N, k, r) of a grid: the exact count of n < N with
    S(n+r) - S(n) != S_k(n+r) - S_k(n), against the proven ceiling
    N*r/q_{k-1} as an exact rational.

    The difference moves exactly when the sum H = S - S_k of the digits at or
    above index k moves, H(n+r) != H(n).  H comes from digit_sum_array, built
    once per k, narrowed to the smallest dtype that holds digit_sum_bound,
    and compared with its own shifts.
    """
    for name, values in (("Ns", Ns), ("ks", ks), ("rs", rs)):
        if len(values) == 0:
            raise budget.UsageError(f"{name} must not be empty")
    if min(ks) < 2 or min(rs) < 0 or min(Ns) < 0:
        raise budget.UsageError(f"need k >= 2 and N, r >= 0, got ks={ks}, rs={rs}, Ns={Ns}")
    max_n = max(Ns)
    max_r = max(rs)
    budget.check_index("mismatch_sweep index max(ks)^2", max(ks))
    budget.check("mismatch_sweep entries len(ks)*(max(Ns)+max(rs))", len(ks) * (max_n + max_r))
    qs = q_sequence(params, min_len=max(ks) + 1)
    full = digit_sum_array(params, max_n + max_r)
    narrow = np.min_scalar_type(digit_sum_bound(params, max_n + max_r))  # S < bound
    out = []
    for k in ks:
        high = (full - digit_sum_array(params, max_n + max_r, trunc=k)).astype(narrow)
        for r in rs:
            moved = high[r : max_n + r] != high[:max_n]
            out.extend(
                MismatchRecord(N=N, k=k, r=r, count=int(np.count_nonzero(moved[:N])),
                               bound=Fraction(N * r, qs[k - 1]))
                for N in Ns
            )
    return out


@dataclass(frozen=True, slots=True)
class DeltaFit:
    """Log-log fit of the error decay err(N) ~ N^-delta along an N grid.

    delta_hat is None when no positive errors are available to fit (for
    example the single-class count where every deviation is exactly zero).
    """

    grid: tuple[int, ...]
    err: tuple[float, ...]
    delta_hat: float | None
    residual: float | None
    hypothesis_ok: bool
    series: ExpSumSeries | None = None
    reports: tuple[JointCountReport, ...] | None = None


def _fit_delta(grid: Sequence[int], err: Sequence[float]) -> tuple[float | None, float | None]:
    pts = [(math.log(n), math.log(e)) for n, e in zip(grid, err) if e > 0.0]
    if len(pts) < 2:
        return None, None
    xs, ys = np.array(pts).T
    slope, intercept = fit_line(xs, ys)
    residual = float(np.sqrt(np.mean((slope * xs + intercept - ys) ** 2)))
    return -slope, residual


def _check_scan(grid: Sequence[int], systems: Systems) -> tuple[int, ...]:
    """At least 4 points and the paper's two systems; joint_folds checks the rest."""
    pts = tuple(grid)
    if len(pts) < 4:
        raise budget.UsageError(f"grid needs at least 4 points, got {len(pts)}")
    if len(systems) != 2:
        raise budget.UsageError(f"the delta fits take two systems, got {len(systems)}")
    return pts


def _theorem_fit(series: ExpSumSeries, hypothesis_ok: bool) -> DeltaFit:
    err = series.normalized
    delta_hat, residual = _fit_delta(series.grid, err)
    return DeltaFit(grid=series.grid, err=err, delta_hat=delta_hat,
                    residual=residual, hypothesis_ok=hypothesis_ok, series=series)


def _corollary_fit(grid: tuple[int, ...], reports: list[JointCountReport]) -> DeltaFit:
    err = tuple(r.deviation_stats()[0] for r in reports)
    delta_hat, residual = _fit_delta(grid, err)
    return DeltaFit(grid=grid, err=err, delta_hat=delta_hat,
                    residual=residual, hypothesis_ok=all(reports[-1].gcd_ok),
                    reports=tuple(reports))


def delta_scan_theorem(grid: Sequence[int], systems: Systems, phases: Sequence[Real]) -> DeltaFit:
    """Fit the decay of |sum_{n<N} e(theta*S1 + beta*S2)| / N along the
    grid, for phases (theta, beta).

    The cancellation hypothesis is that m2*beta is not an integer (checked
    exactly for rational beta); a failing hypothesis is flagged rather than
    fatal, so degenerate baselines like theta = beta = 0 stay observable.
    """
    series = joint_exp_series(_check_scan(grid, systems), systems, phases)
    return _theorem_fit(series, hypothesis_m_gamma(systems[1], phases[1]))


def delta_scan_corollary(grid: Sequence[int], systems: Systems, moduli: Sequence[int]) -> DeltaFit:
    """Fit the decay of the max relative cell deviation along the grid.

    One streaming pass produces the cumulative b1 x b2 count matrix at
    every grid point; err(N) is the worst cell's relative deviation from
    N/(b1*b2).
    """
    pts = _check_scan(grid, systems)
    (reports,) = joint_folds(pts, systems, [count_fold(systems, moduli)])
    return _corollary_fit(pts, reports)


def delta_scans(
    grid: Sequence[int],
    systems: Systems,
    phases: Sequence[Real],
    moduli: Sequence[int],
    *,
    _chunk: int = CHUNK,
) -> tuple[DeltaFit, DeltaFit]:
    """delta_scan_theorem and delta_scan_corollary from one shared pass; each
    fit equals its own function's."""
    pts = _check_scan(grid, systems)
    folds = [sum_fold(phases), count_fold(systems, moduli)]
    sums, reports = joint_folds(pts, systems, folds, _chunk=_chunk)
    series = ExpSumSeries(grid=pts, values=tuple(sums))
    return (_theorem_fit(series, hypothesis_m_gamma(systems[1], phases[1])),
            _corollary_fit(series.grid, reports))
