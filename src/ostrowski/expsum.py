"""Exponential sums over Ostrowski digit sums.

The joint sum and the window sums twisted by h*phi are one reduction
sum_{n<N} e(c1*x1(n) + c2*x2(n)) at the points N of a grid, over two aligned
chunk streams ("sources"): (S_1, S_2) of two systems, or (S, {h*n*phi}).
Rational c1, c2 with a small common denominator L reduce to an exact
histogram of u1*x1 + u2*x2 mod L, summed with math.fsum, so those sums are
the same for every chunk size; other coefficients sum numpy exponentials
per chunk, merged with math.fsum.  Multiples of phi are reduced with exact
surd arithmetic.  The decay series D_k is an O(k*m) block recursion with
exact phases.  Also here: the window DFT whose coefficients reconstruct
e(theta*S_{alpha,k}) on a full block plus a q_{k-1} overhang, and numeric
checks of the classical inequalities used alongside them (Fejer weights,
Weyl-van der Corput, min(K, ||t+h*phi||^-2) sums, and
simultaneous-approximation margins for two quadratic constants).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import isqrt
from typing import Callable, Iterator, Sequence

import numpy as np

from . import budget
from .cf import AlphaParams, frac_mul, q_sequence
from .digits import CHUNK, Odometer, block_start, digit_sum_array, digit_sum_chunks, digits_of
from .surd import Surd

TWO_PI = 2.0 * math.pi

# rational phases with a common denominator up to this size use an exact
# residue-class table instead of per-term floating reduction
_MAX_ROOT_TABLE = 4096

Real = float | int | Fraction

# (lo, hi, *, _chunk) -> x(n) for lo <= n < hi, in chunks of _chunk values
Source = Callable[..., Iterator[np.ndarray]]


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


# No library caller; kept for the benchmark's phase-sum replay.
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


def _twists(h: int, phi: Surd, lo: int, hi: int, *, _chunk=CHUNK) -> Iterator[np.ndarray]:
    """{h*n*phi} from exact surd fractional parts; partial(_twists, h, phi) is a source."""
    for start in range(lo, hi, _chunk):
        end = min(start + _chunk, hi)
        yield np.fromiter((frac_mul(h * u, phi) for u in range(start, end)), np.float64, end - start)


def _joint_grid(grid: Sequence[int]) -> list[int]:
    """A joint scan's grid: strictly increasing positive N, the last within budget."""
    pts = list(grid)
    if not pts or pts[0] < 1 or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError(f"grid must be strictly increasing positive integers, got {grid}")
    budget.check("joint scan N", pts[-1])
    return pts


def _joint_chunks(grid: Sequence[int], src1: Source, src2: Source, chunk: int):
    """Per grid point N, the aligned chunk pairs of two sources covering [previous N, N)."""
    prev = 0
    for n in grid:
        yield zip(src1(prev, n, _chunk=chunk), src2(prev, n, _chunk=chunk))
        prev = n


def joint_histograms(
    grid: Sequence[int],
    src1: Source,
    src2: Source,
    key: Callable[[np.ndarray, np.ndarray], np.ndarray],
    size: int,
    *,
    _chunk: int = CHUNK,
) -> list[np.ndarray]:
    """Cumulative histograms of key(x1(n), x2(n)) over n < N, one per grid point.

    key maps two aligned int64 chunks to bins in [0, size).  The counts are
    exact integers, so the histograms are the same for every chunk size.
    """
    hist = np.zeros(size, dtype=np.int64)
    out = []
    for pairs in _joint_chunks(grid, src1, src2, _chunk):
        for x1, x2 in pairs:
            hist += np.bincount(key(x1, x2), minlength=size)
        out.append(hist.copy())
    return out


def _phase_sums(
    grid: Sequence[int], c1: Real, c2: Real, src1: Source, src2: Source, *, _chunk: int = CHUNK
) -> list[complex]:
    """sum_{n<N} e(c1*x1(n) + c2*x2(n)) at each grid point N, in one chunked pass.

    Rational c1, c2 with a common denominator L <= _MAX_ROOT_TABLE (integer
    sources only) give sum_r C_r e(r/L) over the exact histogram C_r of
    u1*x1 + u2*x2 mod L; other phases sum numpy exponentials per chunk.
    """
    form = _residue_form(c1, c2)
    if form is not None:
        L, u1, u2, roots = form
        values = []
        for hist in joint_histograms(
            grid, src1, src2, lambda x1, x2: (u1 * x1 + u2 * x2) % L, L, _chunk=_chunk
        ):
            counts = hist.tolist()
            values.append(complex(
                math.fsum(c * z.real for c, z in zip(counts, roots)),
                math.fsum(c * z.imag for c, z in zip(counts, roots)),
            ))
        return values
    g1, g2 = float(c1), float(c2)
    re, im, values = [], [], []
    for pairs in _joint_chunks(grid, src1, src2, _chunk):
        for x1, x2 in pairs:
            phase = TWO_PI * ((g1 * x1 + g2 * x2) % 1.0)
            re.append(float(np.cos(phase).sum()))
            im.append(float(np.sin(phase).sum()))
        values.append(complex(math.fsum(re), math.fsum(im)))
    return values


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
    """Cumulative joint sums at each grid point, in one chunked pass over
    (S_1, S_2); rational theta, beta give chunk-size-invariant values."""
    pts = _joint_grid(grid)
    S1, S2 = (partial(digit_sum_chunks, p) for p in (p1, p2))
    values = _phase_sums(pts, theta, beta, S1, S2, _chunk=_chunk)
    return ExpSumSeries(m1=p1.m, m2=p2.m, theta=str(theta), beta=str(beta),
                        grid=tuple(pts), values=tuple(values))


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

    [0, q_j) is a_j copies of [0, q_{j-1}) with digit c < a_j at position
    j-1, then [0, q_{j-2}) with digit a_j there (Allouche & Shallit,
    Automatic Sequences, ch. 3), so the window sums over q_j, G_j (D_j
    before the modulus), obey G_0 = G_1 = 1 and G_j = (q_{j-1}/q_j)
    sum_{c<a_j} e(c*x_j) G_{j-1} + (q_{j-2}/q_j) e(a_j*x_j) G_{j-2} with
    x_j = gamma + theta*q_{j-1}.  Phases are reduced mod 1 exactly (a
    float's Fraction is its exact value) and |G_j| <= 1; a D_k that
    underflows to 0 is left out of the fit.
    A noninteger m*gamma is what guarantees geometric decay; when it fails
    the series is still computed but flagged.
    """
    if kmin < 2 or kmax < kmin:
        raise ValueError(f"need 2 <= kmin <= kmax, got {kmin}..{kmax}")
    budget.check_index("single_decay index kmax*(kmax+m)", kmax, params.m)
    qs = q_sequence(params.m, min_len=kmax + 1)
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
    dvals = tuple(abs(G[k]) for k in ks)
    fit = [(k, math.log(v)) for k, v in zip(ks, dvals) if v > 0.0]
    slope, intercept = np.polyfit(*zip(*fit), 1) if len(fit) >= 2 else (math.nan, math.nan)
    return DecaySeries(
        m=params.m, gamma=str(gamma), theta=str(theta), ks=ks, qks=qks, values=dvals,
        slope=float(slope), intercept=float(intercept),
        hypothesis_ok=_hypothesis_m_gamma(params, gamma),
    )


def m_sums(params: AlphaParams, k: int, h: int, theta: Real) -> tuple[complex, complex]:
    """Window sums over [0, q_{k-1}) and [q_{k-1}, q_k) twisted by h*phi.

    Each term is e(theta*S(u) - (-1)^k * h*u*phi); the h*u*phi fractional
    parts come from exact surd arithmetic.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    budget.check_index("m_sums index k^2", k)
    qs = q_sequence(params.m, min_len=k + 1)
    budget.check("m_sums q_k * |h|", qs[k] * max(1, abs(h)), budget.frequency_budget())
    sign = -1.0 if k % 2 == 0 else 1.0
    # float coefficients: the twist source is real-valued, so no residue histogram
    S, twist = partial(digit_sum_chunks, params), partial(_twists, h, params.phi)
    lo, total = _phase_sums((qs[k - 1], qs[k]), float(theta), sign, S, twist)
    return lo, total - lo


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

    def reconstruct_range(self, upper: int) -> np.ndarray:
        """sum_l coeffs[l] e(l*n/Q) for n = 0 .. upper - 1, from one inverse FFT
        of a period."""
        period = self.Q * np.fft.ifft(self.coeffs)
        return period[np.arange(upper) % self.Q]

    def parseval_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def dft_window(params: AlphaParams, k: int, v: int, theta: Real) -> SpectrumL:
    """Spectrum of the v-th zero-low-digit block at truncation level k."""
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    budget.check_index("dft_window index k^2", k)
    start = block_start(params, k, v - 1)
    Q = block_start(params, k, v) - start
    budget.check("dft_window block length Q(v)", Q)
    # the digits of start below k vanish and u < Q <= q_k, so S_k(start + u) = S(u)
    phase = TWO_PI * ((float(theta) * digit_sum_array(params, Q)) % 1.0)
    coeffs = np.fft.fft(np.exp(1j * phase)) / Q
    return SpectrumL(
        params=params, k=k, v=v, start=start, Q=Q, theta=theta, coeffs=coeffs
    )


def reconstruction_error(spectrum: SpectrumL, extended: bool = True) -> float:
    """Max |reconstruction - direct signal| over the (extended) block range;
    the direct signal walks an odometer from the block start, in rows of
    CHUNK values so that memory does not grow with the width of start."""
    params = spectrum.params
    k = spectrum.k
    qs = q_sequence(params.m, min_len=k + 1)
    upper = spectrum.Q + (qs[k - 1] if extended else 0)
    width = len(digits_of(spectrum.start + upper - 1, params).eps)
    od = Odometer(params, spectrum.start)
    sums = np.concatenate([od.digit_rows(min(CHUNK, upper - lo), width)[:, :k].sum(axis=1)
                           for lo in range(0, upper, CHUNK)])
    direct = np.exp(1j * TWO_PI * ((float(spectrum.theta) * sums) % 1.0))
    return float(np.max(np.abs(spectrum.reconstruct_range(upper) - direct)))


def fejer_check(x: float, R: int) -> tuple[float, float]:
    """Both sides of the Fejer weight identity
    sum_{|r|<R} (R-|r|) e(rx) = |sum_{0<=r<R} e(rx)|^2."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    r = np.arange(1 - R, R)
    terms = np.exp(1j * TWO_PI * ((r * x) % 1.0))
    lhs = complex(np.sum((R - np.abs(r)) * terms))
    if abs(lhs.imag) > 1e-9 * R * R:
        raise AssertionError(f"Fejer LHS has nonreal part {lhs.imag}")
    return lhs.real, abs(complex(np.sum(terms[R - 1:]))) ** 2


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

    phi1 and phi2 live over different radicands, so a candidate is evaluated
    as a scaled integer at `bits` precision; the scaled square roots are
    each off by less than one unit, giving a certified error below
    (|h2|+|h4|) * 2^-(bits+1), negligible against the margins.  Each row h2
    is first scanned over all h4 in float64, and only the pairs whose float
    value minus a certified bound on its error (float rounding plus that
    scaled-integer error) lies below the best exact value so far are
    evaluated exactly, smallest first; the result is the exact minimum.
    """
    if p1.m == p2.m:
        raise ValueError("the two systems must have distinct m")
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    budget.check("schmidt_margin pairs (2H+1)(H+1)", (2 * H + 1) * (H + 1))
    s1 = isqrt(p1.d << (2 * bits))  # floor(sqrt(d1) * 2^bits)
    s2 = isqrt(p2.d << (2 * bits))
    scale = 1 << (bits + 1)  # the /2 in phi = (m+2+sqrt(d))/2
    c1 = (p1.m + 2) << bits
    c2 = (p2.m + 2) << bits

    def exact(h2: int, h4: int) -> float:
        rem = (h2 * (c2 + s2) + h4 * (c1 + s1)) % scale
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


def weyl_vdc_check(a: Sequence[complex], R: int) -> tuple[float, float]:
    """LHS and RHS of the shifted-correlation bound
    |sum a_n|^2 <= (N-1+R)/R * sum_{|r|<R} (1-|r|/R) sum_n a_{n+r} conj(a_n).

    sum_{|r|<R} (R-|r|) sum_n a_{n+r} conj(a_n) = sum_h |W_h|^2, where W_h
    sums a over the window (h-R, h] (each pair n, n' shares R - |n-n'| of
    them), so the RHS costs one cumsum: O(N + R)."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    arr = np.asarray(a, dtype=complex)
    N = len(arr)
    if N == 0:
        return 0.0, 0.0
    lhs = abs(complex(arr.sum())) ** 2
    prefix = np.concatenate(([0j], np.cumsum(arr)))  # prefix[j] = sum_{n<j} a_n
    ends = np.arange(1, N + R)  # h + 1 for h = 0 .. N+R-2, every nonempty window
    windows = prefix[np.minimum(ends, N)] - prefix[np.maximum(ends - R, 0)]
    corr = float(np.sum(windows.real**2 + windows.imag**2)) / R
    return lhs, (N - 1 + R) / R * corr
