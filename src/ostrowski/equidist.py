"""Exact joint residue counting and error-exponent estimation.

Counts, over n < N, the pairs (S_1(n) mod b1, S_2(n) mod b2) of digit sums
in two numeration systems by folding expsum.joint_histograms, the one
exact histogram of (S_1 mod P1, S_2 mod P2) behind every joint scan, here
with P_i = min(b_i, W_i) for the value bound W_i of digit_sum_bound.
Counts are exact integers; the expected cell size is N/(b1*b2) and the
report carries the coprimality flags gcd(b1,m1)=1 / gcd(b2,m2)=1 that the
equidistribution statement rests on (tests assert decay only when both
hold).  The error exponent delta is estimated by ordinary least squares on
log err(N) versus log N over a log-spaced grid, with err the maximum
relative cell deviation (counting mode) or |S_N|/N (exponential-sum mode).

Each quantity has one route here.  The slow second routes (per-n odometer
mismatch counts, single-system counts from one sum array, counts recovered
from the b1*b2 character sums) live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import budget
from .cf import AlphaParams, q_sequence
from .digits import CHUNK, digit_sum_array, digit_sum_bound
from .expsum import (
    ExpSumSeries,
    Real,
    _hypothesis_m_gamma,
    _joint_grid,
    joint_exp_series,
    joint_histograms,
)


@dataclass(frozen=True, slots=True)
class JointCountReport:
    """Exact b1 x b2 count matrix of joint digit-sum residues below N."""

    N: int
    m1: int
    b1: int
    m2: int
    b2: int
    counts: tuple[tuple[int, ...], ...]
    gcd1_ok: bool
    gcd2_ok: bool

    @property
    def expected(self) -> float:
        return self.N / (self.b1 * self.b2)

    def deviations(self) -> list[float]:
        """Relative deviation |C * b1*b2 / N - 1| per cell, row-major."""
        scale = self.b1 * self.b2 / self.N
        return [abs(c * scale - 1.0) for row in self.counts for c in row]

    @property
    def max_rel_dev(self) -> float:
        return max(self.deviations())

    @property
    def mean_rel_dev(self) -> float:
        devs = self.deviations()
        return sum(devs) / len(devs)

    def row_marginal(self) -> list[int]:
        return [sum(row) for row in self.counts]

    def col_marginal(self) -> list[int]:
        return [sum(row[j] for row in self.counts) for j in range(self.b2)]

    def to_json_dict(self) -> dict:
        return {
            "N": str(self.N),
            "m1": self.m1,
            "b1": self.b1,
            "m2": self.m2,
            "b2": self.b2,
            "counts": [[str(c) for c in row] for row in self.counts],
            "expected": self.expected,
            "max_rel_dev": self.max_rel_dev,
            "mean_rel_dev": self.mean_rel_dev,
            "gcd1_ok": self.gcd1_ok,
            "gcd2_ok": self.gcd2_ok,
        }

    def csv_rows(self) -> list[list[str]]:
        rows = [["a1", "a2", "count", "rel_dev"]]
        scale = self.b1 * self.b2 / self.N
        for a1, row in enumerate(self.counts):
            for a2, c in enumerate(row):
                rows.append([str(a1), str(a2), str(c), repr(abs(c * scale - 1.0))])
        return rows


def joint_count_series(
    grid: Sequence[int],
    p1: AlphaParams,
    b1: int,
    p2: AlphaParams,
    b2: int,
    *,
    _chunk: int = CHUNK,
) -> list[JointCountReport]:
    """Exact count matrices below each grid point, from one chunked pass.

    The b1*b2 cells are charged to the budget first.  The pass keys n by
    (S_1 mod P1, S_2 mod P2) with P_i = min(b_i, W_i), W_i the value bound
    of digit_sum_bound: S_i < W_i, so residues from W_i up never occur and
    each b1 x b2 matrix is the histogram in its top-left corner.
    """
    if b1 < 1 or b2 < 1:
        raise ValueError(f"moduli must be >= 1, got {b1}, {b2}")
    budget.check("joint counts cells b1*b2", b1 * b2)
    pts = _joint_grid(grid)
    P1, P2 = min(b1, digit_sum_bound(p1, pts[-1])), min(b2, digit_sum_bound(p2, pts[-1]))
    reports = []
    for n, hist in zip(pts, joint_histograms(pts, p1, p2, P1, P2, _chunk=_chunk)):
        assert int(hist.sum()) == n
        counts = np.zeros((b1, b2), dtype=np.int64)
        counts[:P1, :P2] = hist
        reports.append(JointCountReport(
            N=n, m1=p1.m, b1=b1, m2=p2.m, b2=b2,
            counts=tuple(map(tuple, counts.tolist())),
            gcd1_ok=math.gcd(b1, p1.m) == 1, gcd2_ok=math.gcd(b2, p2.m) == 1,
        ))
    return reports


def joint_counts(
    N: int,
    p1: AlphaParams,
    b1: int,
    p2: AlphaParams,
    b2: int,
) -> JointCountReport:
    """Exact residue-pair counts over n < N; the matrix always sums to N."""
    return joint_count_series((N,), p1, b1, p2, b2)[0]


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
    once per k and compared with its own shifts.
    """
    if min(ks) < 2 or min(rs) < 0 or min(Ns) < 0:
        raise ValueError(f"need k >= 2 and N, r >= 0, got ks={ks}, rs={rs}, Ns={Ns}")
    max_n = max(Ns)
    max_r = max(rs)
    qs = q_sequence(params.m, min_len=max(ks) + 1)
    full = digit_sum_array(params, max_n + max_r)
    out = []
    for k in ks:
        high = full - digit_sum_array(params, max_n + max_r, trunc=k)
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

    mode: str
    grid: tuple[int, ...]
    err: tuple[float, ...]
    delta_hat: float | None
    residual: float | None
    hypothesis_ok: bool
    series: ExpSumSeries | None = None
    reports: tuple[JointCountReport, ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "grid": [str(n) for n in self.grid],
            "err": list(self.err),
            "delta_hat": self.delta_hat,
            "residual": self.residual,
            "hypothesis_ok": self.hypothesis_ok,
        }
        if self.series is not None:
            out["series"] = self.series.json_records()
        if self.reports is not None:
            out["reports"] = [r.to_json_dict() for r in self.reports]
        return out

    def csv_rows(self) -> list[list[str]]:
        rows = [["N", "err"]]
        for n, e in zip(self.grid, self.err):
            rows.append([str(n), repr(e)])
        return rows


def _fit_delta(grid: Sequence[int], err: Sequence[float]) -> tuple[float | None, float | None]:
    pts = [(math.log(n), math.log(e)) for n, e in zip(grid, err) if e > 0.0]
    if len(pts) < 2:
        return None, None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    residual = float(np.sqrt(np.mean((fitted - ys) ** 2)))
    return float(-slope), residual


def _check_grid(grid: Sequence[int]) -> tuple[int, ...]:
    """At least 4 points; the joint engine checks they increase from 1 up."""
    pts = tuple(grid)
    if len(pts) < 4:
        raise ValueError(f"grid needs at least 4 points, got {len(pts)}")
    return pts


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
    pts = _check_grid(grid)
    series = joint_exp_series(pts, theta, beta, p1, p2)
    err = series.normalized
    delta_hat, residual = _fit_delta(pts, err)
    return DeltaFit(
        mode="theorem",
        grid=pts,
        err=err,
        delta_hat=delta_hat,
        residual=residual,
        hypothesis_ok=_hypothesis_m_gamma(p2, beta),
        series=series,
    )


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
    reports = joint_count_series(pts, p1, b1, p2, b2)
    err = tuple(r.max_rel_dev for r in reports)
    delta_hat, residual = _fit_delta(pts, err)
    return DeltaFit(
        mode="corollary",
        grid=pts,
        err=err,
        delta_hat=delta_hat,
        residual=residual,
        hypothesis_ok=reports[-1].gcd1_ok and reports[-1].gcd2_ok,
        reports=tuple(reports),
    )
