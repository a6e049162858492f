"""Exponential sums over one Ostrowski digit sum, and the classical
inequalities used alongside them.

The window sums twisted by h*phi reduce {h*n*phi} with exact surd
arithmetic and sum numpy exponentials per block run.  The decay series D_k is
an O(k*m) block recursion with exact phases.  Also here: the window DFT
whose coefficients reconstruct e(theta*S_{alpha,k}) on a full block plus a
q_{k-1} overhang, checked against the block's greedy digits at any start,
and numeric checks of the classical inequalities (batched Fejer weights and
Weyl-van der Corput bounds, min(K, ||t+h*phi||^-2) sums, and
simultaneous-approximation margins for two quadratic constants).  Float
phases are reduced mod 1 as x - floor(x).  The joint sums over two digit
sums live in equidist, next to the counts they share a histogram with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable

import numpy as np

from . import budget
from .cf import AlphaParams, frac_mul, hypothesis_m_gamma, q_sequence
from .digits import block_runs, block_start, digit_sum_array, digits_matrix
from .surd import Surd

TWO_PI = 2.0 * math.pi
_PIECE = 4096  # terms per numpy evaluation in m_sums
_SLICE = 1 << 16  # offsets per slice of reconstruction_error's direct signal

Real = float | int | Fraction


def _frac(x: np.ndarray) -> np.ndarray:
    """x mod 1, bit for bit x % 1.0 when |x| < 2^52, 6-20 times faster."""
    return x - np.floor(x)


def cis(phase: np.ndarray) -> np.ndarray:
    """exp(1j*phase) from one cos and one sin, faster than the complex exp."""
    out = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares line y = slope*x + intercept through at least two points
    with distinct x, from sums centred on the means.  Two parameters need no
    LAPACK least-squares solve, whose workspace costs about 1.2 MB."""
    x, y = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    return slope, float(y_mean - slope * x_mean)


# No library caller; kept for the benchmark's phase-sum replay.
class CompensatedSum:
    """Neumaier-compensated accumulation of complex terms: the absolute error
    of a length-N unimodular sum stays near eps*|total| instead of growing with N."""

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


# No library caller; kept for the benchmark's phase-sum replay.
def phase_term(c1: Real, c2: Real) -> Callable[[int, int], complex]:
    """Factory for (x1, x2) -> e(c1*x1 + c2*x2) over nonnegative integers.

    Exact residue-class reduction when both coefficients are rational with
    a common denominator L <= 4096 (a table of the L roots e(r/L));
    floating reduction otherwise.
    """
    if not isinstance(c1, float) and not isinstance(c2, float):
        f1, f2 = Fraction(c1), Fraction(c2)
        L = math.lcm(f1.denominator, f2.denominator)
        if L <= 4096:
            u1 = f1.numerator * (L // f1.denominator) % L
            u2 = f2.numerator * (L // f2.denominator) % L
            roots = tuple(cmath.exp(complex(0.0, TWO_PI * j / L)) for j in range(L))
            return lambda x1, x2: roots[(u1 * x1 + u2 * x2) % L]
    g1, g2 = float(c1), float(c2)
    return lambda x1, x2: cmath.exp(complex(0.0, TWO_PI * ((g1 * x1 + g2 * x2) % 1.0)))


@dataclass(frozen=True, slots=True)
class DecaySeries:
    """Normalized window sums D_k = |sum_{u<q_k} e(gamma*S(u) + theta*u)| / q_k."""

    ks: tuple[int, ...]
    qks: tuple[int, ...]
    values: tuple[float, ...]
    slope: float | None  # None when fewer than two k are fitted
    hypothesis_ok: bool
    left_out: tuple[int, ...] = ()  # the k whose D_k fell below the rounding floor


def single_decay(
    params: AlphaParams,
    gamma: Real,
    theta: Real,
    kmax: int,
    kmin: int = 2,
) -> DecaySeries:
    """D_k for kmin <= k <= kmax with a log-linear fit of the decay rate.

    [0, q_j) is a_j copies of [0, q_{j-1}) with digit c < a_j at position
    j-1, then [0, q_{j-2}) with digit a_j there (Allouche & Shallit,
    Automatic Sequences, ch. 3), so the window sums over q_j, G_j (D_j
    before the modulus), obey G_0 = G_1 = 1 and G_j = (q_{j-1}/q_j)
    sum_{c<a_j} e(c*x_j) G_{j-1} + (q_{j-2}/q_j) e(a_j*x_j) G_{j-2} with
    x_j = gamma + theta*q_{j-1}.  Phases are reduced mod 1 exactly (a
    float's Fraction is its exact value) and |G_j| <= 1.  Each step rounds
    relative to the two sums it combines, so a D_k at or below
    4*k*eps*max(D_{k-1}, D_{k-2}) is an exact zero seen through
    rounding (or an underflow) and is left out of the fit (left_out).
    A noninteger m*gamma is what guarantees geometric decay; when it fails
    the series is still computed but flagged.
    """
    if kmin < 2 or kmax < kmin:
        raise budget.UsageError(f"need 2 <= kmin <= kmax, got {kmin}..{kmax}")
    budget.check_index("single_decay index kmax*(kmax+m)", kmax, params.m)
    qs = q_sequence(params, min_len=kmax + 1)
    g, t = Fraction(gamma), Fraction(theta)
    G = [1 + 0j, 1 + 0j]
    for j in range(2, kmax + 1):
        a = params.digit_cap(j - 1)  # a_j
        x = (g + t * qs[j - 1]) % 1
        e = [cmath.exp(complex(0.0, TWO_PI * float(c * x % 1))) for c in range(a + 1)]
        # q_{j-2} = q_j - a_j*q_{j-1}: a constant phase keeps G_j = 1 exactly
        tail = e[a] * G[j - 2]
        G.append(tail + qs[j - 1] / qs[j] * (sum(e[:a]) * G[j - 1] - a * tail))
    ks = tuple(range(kmin, kmax + 1))
    qks = tuple(qs[k] for k in ks)
    D = [abs(z) for z in G]
    dvals = tuple(D[k] for k in ks)
    floor = 4 * np.finfo(float).eps  # per index k, times the larger of D_{k-1}, D_{k-2}
    left_out = tuple(k for k in ks if D[k] <= floor * k * max(D[k - 1], D[k - 2]))
    fit = [(k, math.log(D[k])) for k in ks if k not in left_out]
    slope = fit_line(*zip(*fit))[0] if len(fit) >= 2 else None
    return DecaySeries(ks=ks, qks=qks, values=dvals, slope=slope,
                       hypothesis_ok=hypothesis_m_gamma(params, gamma), left_out=left_out)


# No library caller; kept for the benchmark's window-sum replay.
def m_sums(params: AlphaParams, k: int, h: int, theta: Real) -> tuple[complex, complex]:
    """Window sums over [0, q_{k-1}) and [q_{k-1}, q_k) twisted by h*phi.

    Each term is e(theta*S(u) - (-1)^k * h*u*phi); the h*u*phi fractional
    parts come from exact surd arithmetic.  The twist is real-valued, so
    the terms take numpy exponentials per block run (digits.block_runs,
    S = base + T[offset:offset + length]) in pieces of at most _PIECE
    terms, so no array grows with q_k, merged with math.fsum.
    """
    if k < 2:
        raise budget.UsageError(f"k must be >= 2, got {k}")
    budget.check_index("m_sums index k^2", k)
    qs = q_sequence(params, min_len=k + 1)
    budget.check("m_sums q_k * |h|", qs[k] * max(1, abs(h)), budget.frequency_budget())
    g, sign = float(theta), -1.0 if k % 2 == 0 else 1.0
    re, im, cumulative = [], [], []
    for lo, hi in ((0, qs[k - 1]), (qs[k - 1], qs[k])):
        table, runs = block_runs(params, lo, hi)
        for offset, base, length in runs:
            for start in range(0, length, _PIECE):
                n = min(_PIECE, length - start)
                twist = np.fromiter((frac_mul(h * u, params.phi)
                                     for u in range(lo + start, lo + start + n)), np.float64, n)
                digit_sums = table[offset + start : offset + start + n]
                phase = TWO_PI * _frac(g * (base + digit_sums) + sign * twist)
                re.append(float(np.cos(phase).sum()))
                im.append(float(np.sin(phase).sum()))
            lo += length
        cumulative.append(complex(math.fsum(re), math.fsum(im)))
    return cumulative[0], cumulative[1] - cumulative[0]


def b_zero_surds(params: AlphaParams, k: int) -> tuple[Surd, Surd]:
    """Exact leading window coefficients, split by the parity of k.

    For k = 2*k0:   ( (alpha + 1) / phi^k0,  1 / phi^k0 )
    For k = 2*k0+1: ( 1 / phi^k0,  alpha / phi^k0 )

    They satisfy b1*q_{k-1} + b2*(q_k - q_{k-1}) = 1 exactly, which is the
    half-index identity q_{2k0} + alpha*q_{2k0-1} = phi^k0 in disguise.
    """
    if k < 2:
        raise budget.UsageError(f"k must be >= 2, got {k}")
    budget.check_index("b_zero index k^2", k)
    inv = (params.phi ** (k // 2)).inverse()
    if k % 2 == 0:
        return (params.alpha + 1) * inv, inv
    return inv, params.alpha * inv


def b_zero_normalization(params: AlphaParams, k: int) -> Surd:
    """Exact value of b1*q_{k-1} + b2*(q_k - q_{k-1}); equals 1 for every k."""
    b1, b2 = b_zero_surds(params, k)
    qs = q_sequence(params, min_len=k + 1)
    return b1 * qs[k - 1] + b2 * (qs[k] - qs[k - 1])


@dataclass(frozen=True, slots=True)
class SpectrumL:
    """DFT coefficients of u -> e(theta*S_{alpha,k}(u + start)) over one block.

    The inversion identity holds on [0, Q) by construction and extends to
    [0, Q + q_{k-1}) because the truncated digit sum repeats with period
    Q at offsets below q_{k-1}."""

    params: AlphaParams
    k: int
    v: int
    start: int
    Q: int
    theta: Real
    coeffs: np.ndarray = field(repr=False)

    def parseval_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def dft_window(params: AlphaParams, k: int, v: int, theta: Real) -> SpectrumL:
    """Spectrum of the v-th zero-low-digit block at truncation level k."""
    if v < 1:
        raise budget.UsageError(f"v must be >= 1, got {v}")
    budget.check_index("dft_window index k^2", k)
    start = block_start(params, k, v - 1)
    Q = block_start(params, k, v) - start
    budget.check("dft_window block length Q(v)", Q)
    # the digits of start below k vanish and u < Q <= q_k, so S_k(start + u) = S(u)
    phase = TWO_PI * _frac(float(theta) * digit_sum_array(params, Q))
    coeffs = np.fft.fft(cis(phase)) / Q
    return SpectrumL(params=params, k=k, v=v, start=start, Q=Q, theta=theta, coeffs=coeffs)


def reconstruction_error(spectrum: SpectrumL, extended: bool = True) -> float:
    """Max |reconstruction - direct signal| over the (extended) block range:
    one inverse FFT of a period, read at n mod Q, against the low k greedy
    digits of each n summed (digits_matrix), which do not rely on the block
    periodicity, compared _SLICE offsets at a time so only the period spans Q."""
    params, k, start, Q = spectrum.params, spectrum.k, spectrum.start, spectrum.Q
    upper = Q + (q_sequence(params, min_len=k + 1)[k - 1] if extended else 0)
    period = np.fft.ifft(spectrum.coeffs)
    period *= Q  # in place: Q * ifft(...) would hold a second period
    err = 0.0
    for lo in range(0, upper, _SLICE):
        hi = min(lo + _SLICE, upper)
        sums = digits_matrix(params, start + lo, start + hi)[:, :k].sum(axis=1)
        direct = cis(TWO_PI * _frac(float(spectrum.theta) * sums))
        err = np.maximum(err, np.max(np.abs(period[np.arange(lo, hi) % Q] - direct)))
    return float(err)


def fejer_checks(x: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the Fejer weight identity
    sum_{|r|<R} (R-|r|) e(rx) = |sum_{0<=r<R} e(rx)|^2 for a batch of trials
    (x[t], R[t]), on one grid |r| < max(R) where the weights vanish past R."""
    x, R = np.asarray(x, dtype=np.float64), np.asarray(R, dtype=np.int64)
    if R.min() < 1:
        raise budget.UsageError(f"R must be >= 1, got {R.min()}")
    r = np.arange(1 - R.max(), R.max())
    terms = cis(TWO_PI * _frac(r * x[:, None]))
    lhs = np.sum(np.maximum(R[:, None] - np.abs(r), 0) * terms, axis=1)
    if np.any(np.abs(lhs.imag) > 1e-9 * R * R):
        raise AssertionError(f"Fejer LHS has nonreal part {lhs.imag[np.argmax(np.abs(lhs.imag))]}")
    geo = np.sum(np.where((r >= 0) & (r < R[:, None]), terms, 0), axis=1)
    return lhs.real, np.abs(geo) ** 2


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
        raise budget.UsageError(f"K must be >= 1, got {K}")
    if size < 2:
        raise budget.UsageError(f"interval must contain at least 2 integers, got {size}")
    budget.check("min_norm_sum interval size", size)
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

    phi1 and phi2 live over different radicands, so a candidate is evaluated
    as a scaled integer at `bits` precision; the scaled square roots are
    each off by less than one unit, giving a certified error below
    (|h2|+|h4|) * 2^-(bits+1), negligible against the margins.  Each row h2
    is first scanned over all h4 in float64, and only the pairs whose float
    value minus a certified bound on its error (float rounding plus that
    scaled-integer error) lies below the best exact value so far are
    evaluated exactly, smallest first.  When d1*d2 is a square (both systems
    lie in one field Q(sqrt(D)), as for m = (2, 12)), a pair with
    h2*sqrt(d2) + h4*sqrt(d1) = 0 is the rational (h2(m2+2) + h4(m1+2))/2
    and is evaluated as that rational, not through the separately floored
    roots.  The result is the minimum of the evaluated values: exact for
    such a pair, within the certified error above for every other pair.
    """
    if p1.m == p2.m:
        raise budget.UsageError("the two systems must have distinct m")
    if H < 1:
        raise budget.UsageError(f"H must be >= 1, got {H}")
    budget.check("schmidt_margin pairs (2H+1)(H+1)", (2 * H + 1) * (H + 1))
    s1 = isqrt(p1.d << (2 * bits))  # floor(sqrt(d1) * 2^bits)
    s2 = isqrt(p2.d << (2 * bits))
    scale = 1 << (bits + 1)  # the /2 in phi = (m+2+sqrt(d))/2
    c1 = (p1.m + 2) << bits
    c2 = (p2.m + 2) << bits

    def exact(h2: int, h4: int) -> float:
        cancel = h2 * h4 < 0 and h2 * h2 * p2.d == h4 * h4 * p1.d  # the sqrt parts sum to 0
        rem = (h2 * c2 + h4 * c1 + (0 if cancel else h2 * s2 + h4 * s1)) % scale
        return min(rem, scale - rem) / scale * max(abs(h2), abs(h4)) ** (2.0 + eps)

    phi1 = (p1.m + 2 + math.sqrt(p1.d)) / 2
    phi2 = (p2.m + 2 + math.sqrt(p2.d)) / 2
    u = 2.0**-53  # unit roundoff; every float step below errs by a few u at most
    best = math.inf
    for h2 in range(H + 1):
        h4 = np.arange(-H, H + 1) if h2 > 0 else np.arange(1, H + 1)
        x = h2 * phi2 + h4 * phi1
        weight = np.maximum(h2, np.abs(h4)) ** (2.0 + eps)
        approx = np.abs(x - np.rint(x)) * weight
        # |x - x_true| < 4u(|h2|phi2 + |h4|phi1) and the scaled integer is
        # within (|h2|+|h4|) 2^-(bits+1) of x_true; weights and products add
        # a few u relative.  Each term is doubled.
        slack = weight * (8 * u * (h2 * phi2 + np.abs(h4) * phi1)
                          + (h2 + np.abs(h4)) * 2.0 ** -bits) + 8 * u * approx
        lower = approx - slack
        hits = np.flatnonzero(lower < best)
        for j in hits[np.argsort(lower[hits])]:
            if lower[j] >= best:
                break
            best = min(best, exact(h2, int(h4[j])))
    return best


def weyl_vdc_checks(
    a: np.ndarray, N: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """LHS and RHS of the shifted-correlation bound
    |sum a_n|^2 <= (N-1+R)/R * sum_{|r|<R} (1-|r|/R) sum_n a_{n+r} conj(a_n)
    for a batch of trials: row t of `a` holds trial t's N[t] values (the
    rest of the row is ignored) and R[t] is its lag bound.

    sum_{|r|<R} (R-|r|) sum_n a_{n+r} conj(a_n) = sum_h |W_h|^2, where W_h
    sums a over the window (h-R, h] (each pair n, n' shares R - |n-n'| of
    them), so the RHS costs one cumsum per row: O(N + R).  The windows of
    every row run to the batch's longest; past h = N + R - 2 they are empty."""
    N, R = np.asarray(N, dtype=np.int64), np.asarray(R, dtype=np.int64)
    if R.min() < 1:
        raise budget.UsageError(f"R must be >= 1, got {R.min()}")
    width = a.shape[1] + 1
    prefix = np.zeros((len(N), width), dtype=complex)  # prefix[t, j] = sum_{n<j} a[t, n]
    np.cumsum(a, axis=1, out=prefix[:, 1:])  # read only at j <= N[t]
    flat, rows = prefix.ravel(), np.arange(0, prefix.size, width)[:, None]
    lhs = np.abs(flat[rows[:, 0] + N]) ** 2
    ends = np.arange(1, N.max() + R.max())  # h + 1 for every window that can be nonempty
    index = np.minimum(ends, N[:, None])
    index += rows
    windows = flat[index]
    np.clip(ends - R[:, None], 0, N[:, None], out=index)
    index += rows
    windows -= flat[index]
    parts = windows.view(np.float64)
    corr = np.einsum("ij,ij->i", parts, parts) / R
    return lhs, (N - 1 + R) / R * corr
