"""Exponential sums over Ostrowski digit sums.

Covers the joint sum sum_{n<N} e(theta*S_1(n) + beta*S_2(n)) streamed in
aligned chunks of the two digit-sum functions, the per-level window sums
twisted by h*phi, the window DFT whose coefficients reconstruct
e(theta*S_{alpha,k}) on a full block plus a q_{k-1} overhang, and numeric
checks of the classical inequalities used alongside them (Fejer weights,
Weyl-van der Corput, min(K, ||t+h*phi||^-2) sums, and
simultaneous-approximation margins for two quadratic constants).

Phase arguments are reduced mod 1 before exponentiation.  Multiples of phi
are reduced with exact integer arithmetic; rational theta/beta are reduced
exactly as integer residue classes (one exact histogram per joint scan);
float coefficients fall back to ordinary floating reduction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable, Sequence

import numpy as np

from . import budget
from .cf import AlphaParams, frac_mul, q_sequence
from .digits import CHUNK, Odometer, digit_sum_chunks, v_sequence
from .surd import Surd

TWO_PI = 2.0 * math.pi

# rational phases with a common denominator up to this size use an exact
# residue-class table instead of per-term floating reduction
_MAX_ROOT_TABLE = 4096

Real = float | int | Fraction


def unit_exp(x: float) -> complex:
    """e(x) = exp(2*pi*i*x)."""
    return cmath.exp(complex(0.0, TWO_PI * (x % 1.0)))


class CompensatedSum:
    """Neumaier-compensated accumulation of complex terms.

    Keeps the absolute error of a length-N unimodular sum near eps*|total|
    instead of growing with N, which is what lets streamed sums over 1e8
    terms stay inside a 1e-8 absolute budget.
    """

    __slots__ = ("re", "im", "cre", "cim")

    def __init__(self) -> None:
        self.re = 0.0
        self.im = 0.0
        self.cre = 0.0
        self.cim = 0.0

    def add(self, z: complex) -> None:
        x = z.real
        s = self.re
        t = s + x
        if abs(s) >= abs(x):
            self.cre += (s - t) + x
        else:
            self.cre += (x - t) + s
        self.re = t
        y = z.imag
        s = self.im
        t = s + y
        if abs(s) >= abs(y):
            self.cim += (s - t) + y
        else:
            self.cim += (y - t) + s
        self.im = t

    def value(self) -> complex:
        return complex(self.re + self.cre, self.im + self.cim)


def _as_fraction(x: Real) -> Fraction | None:
    """Exact rational view of x, or None when x is a float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


def _residue_form(c1: Real, c2: Real) -> tuple[int, int, int, tuple[complex, ...]] | None:
    """(L, u1, u2, roots) with c_i = u_i / L mod 1 and roots[r] = e(r/L), when
    both coefficients are rational with a common denominator L <=
    _MAX_ROOT_TABLE; None otherwise."""
    f1, f2 = _as_fraction(c1), _as_fraction(c2)
    if f1 is None or f2 is None:
        return None
    L = math.lcm(f1.denominator, f2.denominator)
    if L > _MAX_ROOT_TABLE:
        return None
    u1 = f1.numerator * (L // f1.denominator) % L
    u2 = f2.numerator * (L // f2.denominator) % L
    return L, u1, u2, tuple(cmath.exp(complex(0.0, TWO_PI * j / L)) for j in range(L))


def phase_term(c1: Real, c2: Real) -> Callable[[int, int], complex]:
    """Factory for (x1, x2) -> e(c1*x1 + c2*x2) over nonnegative integers.

    Exact residue-class reduction when both coefficients are rational with
    a small common denominator; floating reduction otherwise.
    """
    form = _residue_form(c1, c2)
    if form is not None:
        L, u1, u2, roots = form
        return lambda x1, x2: roots[(u1 * x1 + u2 * x2) % L]
    g1, g2 = float(c1), float(c2)
    return lambda x1, x2: cmath.exp(complex(0.0, TWO_PI * ((g1 * x1 + g2 * x2) % 1.0)))


def _joint_chunks(grid: Sequence[int], p1: AlphaParams, p2: AlphaParams, chunk: int):
    """Per grid point N, the aligned (S1, S2) chunk pairs covering [previous N, N)."""
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be strictly increasing positive integers, got {grid}")
    budget.check("joint scan N", grid[-1])
    prev = 0
    for n in grid:
        yield zip(*(digit_sum_chunks(p, prev, n, _chunk=chunk) for p in (p1, p2)))
        prev = n


def joint_histograms(
    grid: Sequence[int],
    p1: AlphaParams,
    p2: AlphaParams,
    key: Callable[[np.ndarray, np.ndarray], np.ndarray],
    size: int,
    *,
    _chunk: int = CHUNK,
) -> list[np.ndarray]:
    """Cumulative histograms of key(S1(n), S2(n)) over n < N, one per grid point.

    key maps two int64 digit-sum arrays to bins in [0, size).  The counts are
    exact integers, so the histograms are the same for every chunk size.
    """
    hist = np.zeros(size, dtype=np.int64)
    out = []
    for pairs in _joint_chunks(grid, p1, p2, _chunk):
        for s1, s2 in pairs:
            hist += np.bincount(key(s1, s2), minlength=size)
        out.append(hist.copy())
    return out


def joint_exp_sum(
    N: int,
    theta: Real,
    beta: Real,
    p1: AlphaParams,
    p2: AlphaParams,
) -> complex:
    """sum_{n<N} e(theta*S_1(n) + beta*S_2(n)); see joint_exp_series."""
    return joint_exp_series((N,), theta, beta, p1, p2).values[0]


@dataclass(frozen=True, slots=True)
class ExpSumSeries:
    """Joint sums along an N grid, with normalized moduli |S|/N."""

    m1: int
    m2: int
    theta: str
    beta: str
    grid: tuple[int, ...]
    values: tuple[complex, ...]

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(abs(s) / n for s, n in zip(self.values, self.grid))

    def csv_rows(self) -> list[list[str]]:
        rows = [["N", "re", "im", "modulus", "normalized"]]
        for n, s in zip(self.grid, self.values):
            rows.append([str(n), repr(s.real), repr(s.imag), repr(abs(s)), repr(abs(s) / n)])
        return rows

    def json_records(self) -> list[dict]:
        return [
            {"N": n, "re": s.real, "im": s.imag, "modulus": abs(s), "normalized": abs(s) / n}
            for n, s in zip(self.grid, self.values)
        ]


def joint_exp_series(
    grid: Sequence[int],
    theta: Real,
    beta: Real,
    p1: AlphaParams,
    p2: AlphaParams,
    *,
    _chunk: int = CHUNK,
) -> ExpSumSeries:
    """Cumulative joint sums at each grid point, in one chunked pass.

    Rational theta, beta with a common denominator L <= _MAX_ROOT_TABLE
    reduce to the exact histogram C_r of u1*S1 + u2*S2 mod L, and
    S_N = sum_r C_r e(r/L) is taken with math.fsum, so the values are
    bit-identical for every chunk size.  Other phases sum numpy exponentials
    per chunk and merge the partial sums with math.fsum.
    """
    pts = list(grid)
    form = _residue_form(theta, beta)
    values = []
    if form is not None:
        L, u1, u2, roots = form
        for hist in joint_histograms(
            pts, p1, p2, lambda s1, s2: (u1 * s1 + u2 * s2) % L, L, _chunk=_chunk
        ):
            counts = hist.tolist()
            values.append(complex(
                math.fsum(c * z.real for c, z in zip(counts, roots)),
                math.fsum(c * z.imag for c, z in zip(counts, roots)),
            ))
    else:
        g1, g2 = float(theta), float(beta)
        re, im = [], []
        for pairs in _joint_chunks(pts, p1, p2, _chunk):
            for s1, s2 in pairs:
                phase = TWO_PI * ((g1 * s1 + g2 * s2) % 1.0)
                re.append(float(np.cos(phase).sum()))
                im.append(float(np.sin(phase).sum()))
            values.append(complex(math.fsum(re), math.fsum(im)))
    return ExpSumSeries(
        m1=p1.m,
        m2=p2.m,
        theta=str(theta),
        beta=str(beta),
        grid=tuple(pts),
        values=tuple(values),
    )


@dataclass(frozen=True, slots=True)
class DecaySeries:
    """Normalized window sums D_k = |sum_{u<q_k} e(gamma*S(u) + theta*u)| / q_k."""

    m: int
    gamma: str
    theta: str
    ks: tuple[int, ...]
    qks: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    hypothesis_ok: bool

    def csv_rows(self) -> list[list[str]]:
        rows = [["k", "q_k", "D_k"]]
        for k, q, v in zip(self.ks, self.qks, self.values):
            rows.append([str(k), str(q), repr(v)])
        return rows


def _hypothesis_m_gamma(params: AlphaParams, gamma: Real) -> bool:
    """True when m*gamma is a noninteger, the condition behind the decay."""
    fr = _as_fraction(gamma)
    if fr is not None:
        return (params.m * fr).denominator != 1
    return (params.m * float(gamma)) % 1.0 != 0.0


def single_decay(
    params: AlphaParams,
    gamma: Real,
    theta: Real,
    kmax: int,
    kmin: int = 2,
) -> DecaySeries:
    """D_k for kmin <= k <= kmax with a log-linear fit of the decay rate.

    A noninteger m*gamma is what guarantees geometric decay; when it fails
    the series is still computed but flagged.
    """
    if kmin < 2 or kmax < kmin:
        raise ValueError(f"need 2 <= kmin <= kmax, got {kmin}..{kmax}")
    qs = q_sequence(params.m, min_len=kmax + 1)
    budget.check("single_decay window q_kmax", qs[kmax])
    hypothesis_ok = _hypothesis_m_gamma(params, gamma)
    term = phase_term(gamma, theta)
    od = Odometer(params)
    acc = CompensatedSum()
    values: dict[int, float] = {}
    k_at = {qs[k]: k for k in range(kmin, kmax + 1)}
    for u in range(qs[kmax]):
        acc.add(term(od.digit_sum, u))
        od.step()
        k = k_at.get(u + 1)
        if k is not None:
            values[k] = abs(acc.value()) / qs[k]
    ks = tuple(range(kmin, kmax + 1))
    dvals = tuple(values[k] for k in ks)
    fit_ks = [k for k, v in zip(ks, dvals) if v > 0.0]
    fit_ls = [math.log(v) for v in dvals if v > 0.0]
    if len(fit_ks) >= 2:
        slope, intercept = np.polyfit(fit_ks, fit_ls, 1)
    else:
        slope, intercept = float("nan"), float("nan")
    return DecaySeries(
        m=params.m,
        gamma=str(gamma),
        theta=str(theta),
        ks=ks,
        qks=tuple(qs[k] for k in ks),
        values=dvals,
        slope=float(slope),
        intercept=float(intercept),
        hypothesis_ok=hypothesis_ok,
    )


def m_sums(params: AlphaParams, k: int, h: int, theta: Real) -> tuple[complex, complex]:
    """Window sums over [0, q_{k-1}) and [q_{k-1}, q_k) twisted by h*phi.

    Each term is e(theta*S(u) - (-1)^k * h*u*phi); the h*u*phi fractional
    parts come from exact surd arithmetic.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    qs = q_sequence(params.m, min_len=k + 1)
    budget.check("m_sums q_k * |h|", qs[k] * max(1, abs(h)), budget.frequency_budget())
    sign = -1.0 if k % 2 == 0 else 1.0
    tf = float(theta)
    phi = params.phi
    od = Odometer(params)
    acc1 = CompensatedSum()
    acc2 = CompensatedSum()
    for u in range(qs[k]):
        fr = frac_mul(h * u, phi) if h else 0.0
        z = unit_exp(tf * od.digit_sum + sign * fr)
        (acc1 if u < qs[k - 1] else acc2).add(z)
        od.step()
    return acc1.value(), acc2.value()


def b_zero_surds(params: AlphaParams, k: int) -> tuple[Surd, Surd]:
    """Exact leading window coefficients, split by the parity of k.

    For k = 2*k0:   ( (2-m+sqrt(d)) / (2*phi^k0),  1 / phi^k0 )
    For k = 2*k0+1: ( 1 / phi^k0,  (-m+sqrt(d)) / (2*phi^k0) )

    They satisfy b1*q_{k-1} + b2*(q_k - q_{k-1}) = 1 exactly, which is the
    half-index identity q_{2k0} + alpha*q_{2k0-1} = phi^k0 in disguise.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    m, d = params.m, params.d
    k0 = k // 2
    phi_pow = params.phi ** k0
    one = Surd(1, 0, 1, d)
    if k % 2 == 0:
        b1 = Surd(2 - m, 1, 2, d) / phi_pow  # alpha + 1 over phi^k0
        b2 = one / phi_pow
    else:
        b1 = one / phi_pow
        b2 = Surd(-m, 1, 2, d) / phi_pow  # alpha over phi^k0
    return b1, b2


def b_zero(params: AlphaParams, k: int) -> tuple[float, float]:
    """Leading window coefficients as floats (one rounding from exact values)."""
    b1, b2 = b_zero_surds(params, k)
    return float(b1), float(b2)


def b_zero_normalization(params: AlphaParams, k: int) -> Surd:
    """Exact value of b1*q_{k-1} + b2*(q_k - q_{k-1}); equals 1 for every k."""
    b1, b2 = b_zero_surds(params, k)
    qs = q_sequence(params.m, min_len=k + 1)
    return b1 * qs[k - 1] + b2 * (qs[k] - qs[k - 1])


@dataclass(frozen=True, slots=True)
class SpectrumL:
    """DFT coefficients of u -> e(theta*S_{alpha,k}(u + start)) over one block.

    The inversion identity holds on [0, Q) by construction and extends to
    [0, Q + q_{k-1}) because the truncated digit sum repeats with period
    Q at offsets below q_{k-1}.
    """

    params: AlphaParams
    k: int
    v: int
    start: int
    Q: int
    theta: Real
    coeffs: np.ndarray = field(repr=False)

    def reconstruct(self, n: int) -> complex:
        phases = np.exp(2j * np.pi * np.arange(self.Q) * (n % self.Q) / self.Q)
        return complex(np.dot(self.coeffs, phases))

    def parseval_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def dft_window(params: AlphaParams, k: int, v: int, theta: Real) -> SpectrumL:
    """Spectrum of the v-th zero-low-digit block at truncation level k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    vs = v_sequence(params, k, v + 1)
    start = vs.values[v - 1]
    Q = vs.values[v] - start
    budget.check("dft_window block length Q(v)", Q)
    tf = float(theta)
    od = Odometer(params, start)
    samples = np.empty(Q, dtype=complex)
    for u in range(Q):
        samples[u] = unit_exp(tf * od.digit_sum_trunc(k))
        od.step()
    coeffs = np.fft.fft(samples) / Q
    return SpectrumL(
        params=params, k=k, v=v, start=start, Q=Q, theta=theta, coeffs=coeffs
    )


def reconstruction_error(spectrum: SpectrumL, extended: bool = True) -> float:
    """Max |reconstruction - direct signal| over the (extended) block range."""
    params = spectrum.params
    qs = q_sequence(params.m, min_len=spectrum.k + 1)
    upper = spectrum.Q + (qs[spectrum.k - 1] if extended else 0)
    tf = float(spectrum.theta)
    od = Odometer(params, spectrum.start)
    worst = 0.0
    for n in range(upper):
        direct = unit_exp(tf * od.digit_sum_trunc(spectrum.k))
        err = abs(spectrum.reconstruct(n) - direct)
        if err > worst:
            worst = err
        od.step()
    return worst


def fejer_check(x: float, R: int) -> tuple[float, float]:
    """Both sides of the Fejer weight identity
    sum_{|r|<R} (R-|r|) e(rx) = |sum_{0<=r<R} e(rx)|^2."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    lhs_c = complex(R, 0.0)
    for r in range(1, R):
        z = unit_exp(r * x)
        lhs_c += (R - r) * (z + z.conjugate())
    geo = sum(unit_exp(r * x) for r in range(R))
    if abs(lhs_c.imag) > 1e-9 * R * R:
        raise AssertionError(f"Fejer LHS has nonreal part {lhs_c.imag}")
    return lhs_c.real, abs(geo) ** 2


@dataclass(frozen=True, slots=True)
class MinNormResult:
    """Value and reference bound terms for sum_h min(K, ||t + h*phi||^-2)."""

    lhs: float
    sqrt_term: float  # sqrt(K) * |I|
    log_term: float  # K * log|I|

    @property
    def ratio(self) -> float:
        return self.lhs / (self.sqrt_term + self.log_term)


def min_norm_sum(
    params: AlphaParams, t: float, interval: tuple[int, int], K: float
) -> MinNormResult:
    """sum over h in [lo, hi] of min(K, ||t + h*phi||^-2), with exact h*phi parts."""
    lo, hi = interval
    size = hi - lo + 1
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if size < 2:
        raise ValueError(f"interval must contain at least 2 integers, got {size}")
    total = 0.0
    for h in range(lo, hi + 1):
        frac = frac_mul(h, params.phi)
        s = (frac + t) % 1.0
        dist = min(s, 1.0 - s)
        total += K if dist == 0.0 or 1.0 / (dist * dist) > K else 1.0 / (dist * dist)
    return MinNormResult(lhs=total, sqrt_term=math.sqrt(K) * size, log_term=K * math.log(size))


def schmidt_margin(
    p1: AlphaParams, p2: AlphaParams, H: int, eps: float = 0.1, bits: int = 256
) -> float:
    """min over 0 < max(|h2|,|h4|) <= H of ||h2*phi2 + h4*phi1|| * max(|h2|,|h4|)^(2+eps).

    phi1 and phi2 live over different radicands, so the combination is
    evaluated as a scaled integer at `bits` precision; the scaled square
    roots are each off by less than one unit, giving a certified error
    below (|h2|+|h4|) * 2^-(bits+1), negligible against the margins.
    """
    if p1.m == p2.m:
        raise ValueError("the two systems must have distinct m")
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    s1 = isqrt(p1.d << (2 * bits))  # floor(sqrt(d1) * 2^bits)
    s2 = isqrt(p2.d << (2 * bits))
    scale = 1 << (bits + 1)  # the /2 in phi = (m+2+sqrt(d))/2
    c1 = (p1.m + 2) << bits
    c2 = (p2.m + 2) << bits
    best = math.inf
    for h2 in range(0, H + 1):
        h4_range = range(-H, H + 1) if h2 > 0 else range(1, H + 1)
        base2 = h2 * (c2 + s2)
        for h4 in h4_range:
            scaled = base2 + h4 * (c1 + s1)
            rem = scaled % scale
            dist = min(rem, scale - rem) / scale
            weight = max(abs(h2), abs(h4)) ** (2.0 + eps)
            cand = dist * weight
            if cand < best:
                best = cand
    return best


def weyl_vdc_check(a: Sequence[complex], R: int) -> tuple[float, float]:
    """LHS and RHS of the shifted-correlation bound
    |sum a_n|^2 <= (N-1+R)/R * sum_{|r|<R} (1-|r|/R) sum_n a_{n+r} conj(a_n)."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    arr = np.asarray(a, dtype=complex)
    N = len(arr)
    if N == 0:
        return 0.0, 0.0
    lhs = abs(arr.sum()) ** 2
    corr = float(np.sum(np.abs(arr) ** 2))
    for r in range(1, min(R, N)):  # the shifted sum is empty once r >= N
        inner = np.vdot(arr[: N - r], arr[r:])  # sum_n conj(a_n) a_{n+r}
        corr += 2.0 * (1.0 - r / R) * inner.real
    rhs = (N - 1 + R) / R * corr
    return float(lhs), float(rhs)
