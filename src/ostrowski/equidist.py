"""The joint theorem and its corollary: sums and counts over two digit sums.

One exact integer histogram H of (S_1(n) mod P1, S_2(n) mod P2) over n < N
lies behind every joint scan.  joint_folds builds it in one pass over
[0, N_max) without a digit-sum array: digits.block_runs cuts each system
into runs on which S_i = base + T_i[offset + t], so the key of n is a sum
of two entries of residue rows ((r + T_i) mod P_i), built lazily, one per
residue r = base mod P_i that a run needs.  Where neither run ends, the
keys are one slice add into one reused buffer, with one np.bincount per
full buffer and per grid point, where the pass stops to hand each fold H
summed down to the fold's own moduli (H itself where they are the pass's).
Rows and keys take the smallest unsigned dtype that holds P1*P2 - 1 (uint8
up to 256 bins, uint16 up to 65 536).
P_i never exceeds the value bound W_i = digits.digit_sum_bound(p_i, N),
because S_i(n) < W_i.
Two folds read it:

- sum_fold gives the theorem's sum_{n<N} e(theta*S_1(n) + beta*S_2(n)) as
  sum_{a1,a2} H[a1,a2] e(theta*a1 + beta*a2), at moduli the denominators
  of theta and beta (joint_exp_series);
- count_fold gives the corollary's b1 x b2 residue counts, a read-only
  int64 array that is H in its top-left corner (JointCountReport,
  joint_counts).

The counts are exact integers, so both folds are the same for every chunk
size, and delta_scans takes the theorem's sums and the corollary's counts
from one pass.  Each report carries the coprimality flags gcd(b1,m1)=1 /
gcd(b2,m2)=1 that the equidistribution statement rests on (tests assert
decay only when both hold).  The error exponent delta is estimated by
ordinary least squares (expsum.fit_line) on log err(N) versus log N over a
log-spaced grid, with err the maximum relative cell deviation (counting
mode) or |S_N|/N (exponential-sum mode).

Each quantity has one route here.  The slow second routes (per-n joint
sums, per-n odometer mismatch counts, single-system counts from one sum
array, counts recovered from the b1*b2 character sums) live in
tests/oracles.py.
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


def _fold(hist: np.ndarray, P1: int, P2: int) -> np.ndarray:
    """A joint histogram summed down to residues mod P1 x P2.  Along each
    axis the histogram's length is a multiple of P_i or the value bound
    W_i >= P_i (its index is then S_i itself), so index mod P_i is S_i mod
    P_i either way.  Exact integers: a fold of a shared pass equals the
    histogram a pass at P1 x P2 would give."""
    h1, h2 = hist.shape
    padded = np.pad(hist, ((0, -h1 % P1), (0, -h2 % P2)))
    return padded.reshape(-1, P1, padded.shape[1] // P2, P2).sum(axis=(0, 2))


Fold = tuple[tuple[int, int], Callable[[int, np.ndarray], object]]


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
    p1: AlphaParams,
    p2: AlphaParams,
    folds: Sequence[Fold],
    *,
    _chunk: int = CHUNK,
) -> list[list]:
    """Several folds of the cumulative histogram H of (S_1(n) mod P1,
    S_2(n) mod P2) over n < N, at each grid point N, from one pass over
    [0, grid[-1]).  The grid must be strictly increasing positive N, the
    last within budget.

    A fold ((q1, q2), f) reads residues mod min(q_i, W_i), W_i the value
    bound of digit_sum_bound; the pass keys n by P_i = min(lcm of the
    folds' moduli, W_i), and f(N, H) receives H summed down to its own
    moduli, so its results do not depend on what shares the pass.  A fold
    at the pass's own moduli receives the pass's histogram itself, which
    the pass goes on adding to, so no fold may keep H.

    Each system's block runs (digits.block_runs) give S_i(n) = base +
    T_i[offset + t], so the key of n is R_1[base_1 mod P1][o_1] +
    R_2[base_2 mod P2][o_2], with R_1[r] = ((r + T_1) mod P1)*P2 and
    R_2[r] = (r + T_2) mod P2.  A row is built when a run first needs its
    residue and kept for the pass; the worst case, P1*q_K1 + P2*q_K2
    entries, and the P1*P2 bins are charged to the budget first.  Where
    neither run ends, the keys are one slice add into a reused buffer of
    max(_chunk, P1*P2) keys, so each np.bincount stays O(buffer); there is
    one per full buffer and one per grid point.  The counts are exact
    integers, so every fold is the same for every chunk size.
    """
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise budget.UsageError(f"grid must be strictly increasing positive integers, got {grid}")
    budget.check("joint scan N", grid[-1])
    W = [digit_sum_bound(p, grid[-1]) for p in (p1, p2)]
    mods = [tuple(min(q, w) for q, w in zip(qs, W)) for qs, _ in folds]
    P1, P2 = (min(math.lcm(*col), w) for col, w in zip(zip(*mods), W))
    bins = P1 * P2
    budget.check("joint histogram bins P1*P2", bins)
    (t1, runs1), (t2, runs2) = (block_runs(p, 0, grid[-1]) for p in (p1, p2))
    budget.check("joint residue rows P1*qK1+P2*qK2", P1 * len(t1) + P2 * len(t2))
    # keys < P1*P2 in the narrowest unsigned dtype (uint8 up to 256 bins,
    # uint16 up to 65 536): the rows and the key buffer take 1-2 bytes a key,
    # and np.bincount counts unsigned keys as fast as intp ones
    dtype = np.min_scalar_type(bins - 1)
    row1, row2 = _residue_rows(t1, P1, P2, dtype), _residue_rows(t2, P2, 1, dtype)
    size = min(max(_chunk, bins), grid[-1])
    keys = np.empty(size, dtype=dtype)
    hist = np.zeros(bins, dtype=np.int64)
    out: list[list] = [[] for _ in folds]
    # n is the next value to key, and keys[:n - b] hold the keys of [b, n);
    # the current runs of the two systems end at e1, e2, and start at
    # offset 0 of their rows at v1, v2
    n = b = e1 = e2 = 0
    for point in grid:
        while n < point:
            if n == e1:
                offset, base, length = next(runs1)
                v1, e1, r1 = n - offset, n + length, row1(base)
            if n == e2:
                offset, base, length = next(runs2)
                v2, e2, r2 = n - offset, n + length, row2(base)
            stop = min(e1, e2, point, b + size)
            np.add(r1[n - v1 : stop - v1], r2[n - v2 : stop - v2], out=keys[n - b : stop - b])
            n = stop
            if n == b + size:
                hist += np.bincount(keys, minlength=bins)
                b = n
        if n > b:
            hist += np.bincount(keys[: n - b], minlength=bins)
            b = n
        H = hist.reshape(P1, P2)
        for (_, f), P, values in zip(folds, mods, out):
            values.append(f(point, H if P == (P1, P2) else _fold(H, *P)))
    return out


def sum_fold(theta: Real, beta: Real) -> Fold:
    """The fold giving sum_{n<N} e(theta*S_1(n) + beta*S_2(n)), at moduli
    the denominators of the coefficients' exact values (a float at its
    exact binary value); see joint_exp_series."""
    steps = Fraction(theta) % 1, Fraction(beta) % 1
    tables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def fold(n: int, hist: np.ndarray) -> complex:
        # c*S mod 1 depends only on S mod P, reduced exactly, then rounded
        # once; built at the first grid point, as every point has the same P
        if hist.shape not in tables:
            tables[hist.shape] = tuple(np.array([float(c * a % 1) for a in range(P)])
                                       for c, P in zip(steps, hist.shape))
        r1, r2 = tables[hist.shape]
        a1, a2 = np.nonzero(hist)
        counts = hist[a1, a2].astype(np.float64)
        phase = TWO_PI * ((r1[a1] + r2[a2]) % 1.0)
        return complex(math.fsum(counts * np.cos(phase)), math.fsum(counts * np.sin(phase)))

    return (steps[0].denominator, steps[1].denominator), fold


@dataclass(frozen=True, slots=True)
class ExpSumSeries:
    """Joint sums along an N grid, with normalized moduli |S|/N."""

    grid: tuple[int, ...]
    values: tuple[complex, ...]

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(abs(s) / n for s, n in zip(self.values, self.grid))


def joint_exp_series(
    grid: Sequence[int],
    theta: Real,
    beta: Real,
    p1: AlphaParams,
    p2: AlphaParams,
) -> ExpSumSeries:
    """Cumulative joint sums at each grid point, folded from the histogram H
    of (S_1 mod P1, S_2 mod P2) with P_i = min(denominator of the
    coefficient, W_i), so the values are the same for every chunk size.

    Each nonzero bin's phase is (float(theta*a1 mod 1) + float(beta*a2 mod
    1)) mod 1, two exact reductions and one float add; the bins are summed
    as H*cos and H*sin with math.fsum.  With u = 2^-53 a phase errs by at
    most 2u, so each part of a bin errs by less than (6*pi + 2)*u*H[a1, a2],
    and each value is within 32*u*N (3.6e-15*N) of the exact sum, for
    rational and float phases alike.
    """
    (values,) = joint_folds(grid, p1, p2, [sum_fold(theta, beta)])
    return ExpSumSeries(grid=tuple(grid), values=tuple(values))


@dataclass(frozen=True, slots=True)
class JointCountReport:
    """Exact b1 x b2 count matrix of joint digit-sum residues below N, as a
    read-only int64 array."""

    N: int
    b1: int
    b2: int
    counts: np.ndarray
    gcd1_ok: bool
    gcd2_ok: bool

    def __eq__(self, other: object) -> bool:
        """Every field equal, the count matrices by value."""
        if not isinstance(other, JointCountReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__slots__)

    @property
    def expected(self) -> float:
        return self.N / (self.b1 * self.b2)

    def rel_dev(self) -> np.ndarray:
        """Relative deviation |C * b1*b2 / N - 1| per cell, as a b1 x b2 array."""
        return np.abs(self.counts * (self.b1 * self.b2 / self.N) - 1.0)

    def deviation_stats(self) -> tuple[float, float]:
        """(max_rel_dev, mean_rel_dev); the mean is summed in row-major order."""
        devs = self.rel_dev()
        return float(devs.max()), float(np.cumsum(devs)[-1] / devs.size)


def count_fold(p1: AlphaParams, b1: int, p2: AlphaParams, b2: int) -> Fold:
    """The fold giving the b1 x b2 count matrix, at moduli (b1, b2), with
    the b1*b2 cells charged to the budget first.  S_i < W_i, so residues
    from W_i up never occur and each matrix is the histogram in its
    top-left corner."""
    if b1 < 1 or b2 < 1:
        raise budget.UsageError(f"moduli must be >= 1, got {b1}, {b2}")
    budget.check("joint counts cells b1*b2", b1 * b2)

    def fold(n: int, hist: np.ndarray) -> JointCountReport:
        assert int(hist.sum()) == n
        counts = np.pad(hist, ((0, b1 - hist.shape[0]), (0, b2 - hist.shape[1])))
        counts.flags.writeable = False
        return JointCountReport(N=n, b1=b1, b2=b2, counts=counts,
                                gcd1_ok=math.gcd(b1, p1.m) == 1, gcd2_ok=math.gcd(b2, p2.m) == 1)

    return (b1, b2), fold


def joint_counts(
    N: int,
    p1: AlphaParams,
    b1: int,
    p2: AlphaParams,
    b2: int,
) -> JointCountReport:
    """Exact residue-pair counts over n < N; the matrix always sums to N."""
    ((report,),) = joint_folds((N,), p1, p2, [count_fold(p1, b1, p2, b2)])
    return report


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
    if min(ks) < 2 or min(rs) < 0 or min(Ns) < 0:
        raise budget.UsageError(f"need k >= 2 and N, r >= 0, got ks={ks}, rs={rs}, Ns={Ns}")
    max_n = max(Ns)
    max_r = max(rs)
    budget.check_index("mismatch_sweep index max(ks)^2", max(ks))
    budget.check("mismatch_sweep entries len(ks)*(max(Ns)+max(rs))", len(ks) * (max_n + max_r))
    qs = q_sequence(params.m, min_len=max(ks) + 1)
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


def _check_grid(grid: Sequence[int]) -> tuple[int, ...]:
    """At least 4 points; the joint engine checks they increase from 1 up."""
    pts = tuple(grid)
    if len(pts) < 4:
        raise budget.UsageError(f"grid needs at least 4 points, got {len(pts)}")
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
                    residual=residual, hypothesis_ok=reports[-1].gcd1_ok and reports[-1].gcd2_ok,
                    reports=tuple(reports))


def delta_scan_theorem(
    p1: AlphaParams,
    p2: AlphaParams,
    theta: Real,
    beta: Real,
    grid: Sequence[int],
) -> DeltaFit:
    """Fit the decay of |sum_{n<N} e(theta*S1 + beta*S2)| / N along the grid.

    The cancellation hypothesis is that m2*beta is not an integer (checked
    exactly for rational beta); a failing hypothesis is flagged rather than
    fatal, so degenerate baselines like theta = beta = 0 stay observable.
    """
    series = joint_exp_series(_check_grid(grid), theta, beta, p1, p2)
    return _theorem_fit(series, hypothesis_m_gamma(p2, beta))


def delta_scan_corollary(
    p1: AlphaParams,
    b1: int,
    p2: AlphaParams,
    b2: int,
    grid: Sequence[int],
) -> DeltaFit:
    """Fit the decay of the max relative cell deviation along the grid.

    One streaming pass produces the cumulative count matrix at every grid
    point; err(N) is the worst cell's relative deviation from N/(b1*b2).
    """
    pts = _check_grid(grid)
    (reports,) = joint_folds(pts, p1, p2, [count_fold(p1, b1, p2, b2)])
    return _corollary_fit(pts, reports)


def delta_scans(
    p1: AlphaParams,
    p2: AlphaParams,
    theta: Real,
    beta: Real,
    b1: int,
    b2: int,
    grid: Sequence[int],
    *,
    _chunk: int = CHUNK,
) -> tuple[DeltaFit, DeltaFit]:
    """delta_scan_theorem and delta_scan_corollary from one shared pass; each
    fit equals its own function's."""
    fold = count_fold(p1, b1, p2, b2)
    pts = _check_grid(grid)
    sums, reports = joint_folds(pts, p1, p2, [sum_fold(theta, beta), fold], _chunk=_chunk)
    series = ExpSumSeries(grid=pts, values=tuple(sums))
    return _theorem_fit(series, hypothesis_m_gamma(p2, beta)), _corollary_fit(series.grid, reports)
