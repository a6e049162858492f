"""Independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: admissible strings are enumerated directly from
the admissibility rule (never via the greedy expansion), sums are evaluated
per-n without the odometer, the representation checks of acceptance
criterion 1 run one n at a time, and fractional parts are recomputed with
256-bit mpmath floats.

The library keeps one route per quantity; its former second routes live
here as oracles: the per-n odometer mismatch count (against
mismatch_sweep), single-system counts from one sum array, the joint
histogram from full-length sum arrays and counts recovered from the character
sums (against joint_folds and count_fold), the per-n window
reconstruction (against the direct signal it inverts), the
per-term Fejer and van der Corput loops (against fejer_checks and
weyl_vdc_checks), the per-n truncated digit sum (against
digit_sum_array with trunc=k), the exhaustive 256-bit Schmidt loop, with
exact Surd values where two radicands share a field (against
schmidt_margin), the enumerated decay series with exactly
reduced phases (against single_decay's block recursion) and the probe
walk over the zero-low-digit set (against digits.block_start), the
recursive enumeration of admissible strings (against
acceptance.admissible_rows), the level-list block build (against
digit_sum_array's in-place one), the odometer walk and one
whole-range gather behind a window's reconstruction error (against
reconstruction_error's greedy rows, compared slice by slice) and
the sequential scalar SplitMix64 (against acceptance.SplitMix64's
counter-based vectors).
"""

from __future__ import annotations

import cmath
import math
from math import isqrt
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath as mp
import numpy as np

from ostrowski import (
    AlphaParams,
    SpectrumL,
    digit_sum_array,
    digits_of,
    joint_exp_series,
    q_sequence,
)
from ostrowski.digits import Odometer
from ostrowski.expsum import e_turns
from ostrowski.surd import Surd


def unit_exp(x: float) -> complex:
    """e(x) = exp(2*pi*i*x)."""
    return cmath.exp(complex(0.0, 2 * math.pi * (x % 1.0)))


def digit_sum_trunc(n: int, params: AlphaParams, k: int) -> int:
    """Sum of the digits of n below index k, from digits_of."""
    return sum(digits_of(n, params).eps[:k])


def admissible_strings(params: AlphaParams, length: int) -> Iterator[tuple[int, ...]]:
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


def value_table(params: AlphaParams, length: int) -> dict[int, tuple[int, ...]]:
    """Map value -> admissible string over all strings of the given length."""
    qs = q_sequence(params, min_len=length)
    table: dict[int, tuple[int, ...]] = {}
    for eps in admissible_strings(params, length):
        v = sum(e * q for e, q in zip(eps, qs))
        assert v not in table, f"value {v} has two admissible strings"
        table[v] = eps
    return table


def naive_check_representations(params: AlphaParams, n_max: int) -> str | None:
    """Criterion 1 per n: one digits_of call and one Python digit loop each,
    checking odometer = greedy, admissibility, the prefix-sum condition and
    the round trip; returns a message for the first failure."""
    m = params.m
    qs = q_sequence(params, above=n_max)
    od = Odometer(params)
    for n in range(n_max):
        eps = digits_of(n, params).eps
        if od.digits() != eps:
            return f"m={m} n={n}: odometer {od.digits()} != greedy {eps}"
        acc = 0
        prev = 0
        for i, e in enumerate(eps):
            if i == 0:
                if e != 0:
                    return f"m={m} n={n}: eps_0={e}"
            else:
                cap = m if i & 1 else 1
                if e > cap or e < 0 or (e == cap and prev):
                    return f"m={m} n={n}: admissibility broken at index {i}"
            if acc >= qs[i]:
                return f"m={m} n={n}: prefix sum {acc} >= q_{i}={qs[i]}"
            acc += e * qs[i]
            prev = e
        if acc >= qs[len(eps)]:
            return f"m={m} n={n}: full sum {acc} >= q_{len(eps)}"
        if acc != n:
            return f"m={m} n={n}: round-trip value {acc}"
        od.step()
    return None


def naive_joint_sum(N: int, theta, beta, p1: AlphaParams, p2: AlphaParams) -> complex:
    """Per-n evaluation through digits_of, no odometer: each phase reduced
    mod 1 exactly (a float at its exact binary value) before one rounding,
    the terms summed with math.fsum."""
    t, b = Fraction(theta), Fraction(beta)
    re, im = [], []
    for n in range(N):
        s1, s2 = digits_of(n, p1).digit_sum(), digits_of(n, p2).digit_sum()
        phase = 2 * math.pi * float((t * s1 + b * s2) % 1)
        re.append(math.cos(phase))
        im.append(math.sin(phase))
    return complex(math.fsum(re), math.fsum(im))


def naive_window_sum(params: AlphaParams, q: int, gamma, theta) -> complex:
    """sum_{u<q} e(gamma*S(u) + theta*u), per u through digits_of, no odometer.

    Rational gamma, theta (Fractions) are reduced mod 1 exactly before the
    single rounding; floats are reduced in floating point.
    """
    re, im = [], []
    for u in range(q):
        phase = float((gamma * digits_of(u, params).digit_sum() + theta * u) % 1)
        re.append(math.cos(2 * math.pi * phase))
        im.append(math.sin(2 * math.pi * phase))
    return complex(math.fsum(re), math.fsum(im))


def exact_residues(c, x: np.ndarray) -> np.ndarray:
    """float(c*x mod 1) for an array of nonnegative integers x below 2^31,
    reduced exactly (a float c at its exact binary value) before one
    rounding; on Python ints when the denominator of c is 2^31 or more."""
    f = Fraction(c) % 1
    p, q = f.numerator, f.denominator
    if q < 2**31:
        return (p * x.astype(np.int64) % q) / q
    return (p * x.astype(object) % q / q).astype(np.float64)


def enumerated_decay(params: AlphaParams, gamma, theta, kmax: int, kmin: int = 2) -> tuple[float, ...]:
    """D_k = |sum_{u<q_k} e(gamma*S(u) + theta*u)| / q_k for kmin <= k <= kmax,
    enumerated over u < q_kmax: S from digit_sum_array, both phases reduced
    exactly by exact_residues and added once in floats, the blocks
    [q_{k-1}, q_k) merged with math.fsum.  This is the enumeration that
    single_decay's block recursion replaced."""
    qs = q_sequence(params, min_len=kmax + 1)
    S = digit_sum_array(params, qs[kmax])
    on_S = exact_residues(gamma, np.arange(int(S.max()) + 1))[S]
    phase = 2 * math.pi * ((on_S + exact_residues(theta, np.arange(qs[kmax]))) % 1.0)
    re, im, out, prev = [], [], [], 0
    for k in range(kmin, kmax + 1):
        re.append(float(np.cos(phase[prev : qs[k]]).sum()))
        im.append(float(np.sin(phase[prev : qs[k]]).sum()))
        out.append(abs(complex(math.fsum(re), math.fsum(im))) / qs[k])
        prev = qs[k]
    return tuple(out)


def level_list_digit_sum_array(params: AlphaParams, N: int, trunc: int | None = None) -> np.ndarray:
    """digit_sum_array with one array per level: [0, q_j) as the a_j copies
    of level j - 1 shifted by c < a_j, then level j - 2 shifted by a_j, as
    far as the copies reach N; the levels are concatenated and the first N
    values of the top one copied out."""
    qs = q_sequence(params, above=N)
    blocks = [np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)]
    j = 1
    while qs[j] < N:
        j += 1
        a_j = params.digit_cap(j - 1)
        counted = trunc is None or (j - 1) < trunc
        need = min(qs[j], N)
        copies = min(a_j, -(-need // qs[j - 1]))
        shifts = np.arange(copies, dtype=np.int32)[:, None] * counted
        parts = [(blocks[j - 1] + shifts).ravel()]
        if copies * qs[j - 1] < need:
            parts.append(blocks[j - 2] + (a_j if counted else 0))
        blocks.append(np.concatenate(parts))
    return blocks[j][:N].copy()


def walked_reconstruction_error(spectrum: SpectrumL, extended: bool = True) -> float:
    """reconstruction_error in one piece: the direct signal from one odometer
    walk from the block start, the low k digits summed at each offset, and
    the library's e_turns of their phases (what this checks independently
    is the walk and the gather, not the exponential), against its own
    inverse FFT of a period read by one modular gather over the whole range."""
    params, k, Q = spectrum.params, spectrum.k, spectrum.Q
    upper = Q + (q_sequence(params, min_len=k + 1)[k - 1] if extended else 0)
    od = Odometer(params, spectrum.start)
    sums = np.empty(upper, dtype=np.int64)
    for i in range(upper):
        sums[i] = sum(od.digits()[:k])
        od.step()
    direct = e_turns(float(spectrum.theta) * sums)
    reconstruction = (Q * np.fft.ifft(spectrum.coeffs))[np.arange(upper) % Q]
    return float(np.max(np.abs(reconstruction - direct)))


def probe_zero_low_digits(params: AlphaParams, k: int, count: int, start: int = 0) -> list[int]:
    """`count` consecutive integers whose digits below index k all vanish,
    from `start` (one of them) on: each step tries the gaps q_{k-1}, then
    q_k, and keeps the first whose digits_of has no nonzero digit below k."""
    qs = q_sequence(params, min_len=k + 1)
    values = [start]
    while len(values) < count:
        for g in (qs[k - 1], qs[k]):
            if not any(digits_of(values[-1] + g, params).eps[:k]):
                values.append(values[-1] + g)
                break
        else:
            raise AssertionError(f"no successor of {values[-1]} at gap q_{k-1} or q_k")
    return values


def naive_counts(N: int, p1: AlphaParams, b1: int, p2: AlphaParams, b2: int) -> list[list[int]]:
    """Per-n double expansion via digits_of, no odometer."""
    counts = [[0] * b2 for _ in range(b1)]
    for n in range(N):
        counts[digits_of(n, p1).digit_sum() % b1][digits_of(n, p2).digit_sum() % b2] += 1
    return counts


def naive_m_sums(params: AlphaParams, k: int, h: int, theta: float) -> tuple[complex, complex]:
    """Window sums recomputed per-u with mpmath fractional parts."""
    qs = q_sequence(params, min_len=k + 1)
    sign = 1.0 if k % 2 else -1.0
    lo = 0j
    hi = 0j
    for u in range(qs[k]):
        frac = mp_frac_mul(h * u, params.phi) if h else 0.0
        s = digits_of(u, params).digit_sum()
        z = cmath.exp(2j * math.pi * ((theta * s + sign * frac) % 1.0))
        if u < qs[k - 1]:
            lo += z
        else:
            hi += z
    return lo, hi


def mp_value(s: Surd, prec: int = 256) -> mp.mpf:
    """The surd as a 256-bit float."""
    with mp.workprec(prec):
        return (s.a + s.b * mp.sqrt(s.d)) / s.c


def mp_frac_mul(h: int, s: Surd, prec: int = 256) -> float:
    """{h*s} recomputed at 256-bit precision."""
    with mp.workprec(prec):
        return float(mp.frac(h * mp_value(s, prec)))


def shared_radicand(d1: int, d2: int) -> tuple[int, int, int] | None:
    """(D, c1, c2) with d_i = c_i^2 * D and D squarefree, by trial division,
    when d1 and d2 lie in one quadratic field; None otherwise."""

    def split(d: int) -> tuple[int, int]:
        c, f = 1, 2
        while f * f <= d:
            while d % (f * f) == 0:
                d, c = d // (f * f), c * f
            f += 1
        return d, c

    (D1, c1), (D2, c2) = split(d1), split(d2)
    return (D1, c1, c2) if D1 == D2 else None


def naive_schmidt_margin(
    p1: AlphaParams, p2: AlphaParams, H: int, eps: float = 0.1, bits: int = 256
) -> float:
    """schmidt_margin by evaluating every pair (h2, h4): exactly, as a Surd
    over the shared radicand D, where its sqrt(D) parts cancel; otherwise as
    a scaled integer at `bits` precision."""
    shared = shared_radicand(p1.d, p2.d)
    if shared:
        D, r1, r2 = shared
        phi1, phi2 = Surd(p1.m + 2, r1, 2, D), Surd(p2.m + 2, r2, 2, D)
    s1 = isqrt(p1.d << (2 * bits))
    s2 = isqrt(p2.d << (2 * bits))
    scale = 1 << (bits + 1)
    c1 = (p1.m + 2) << bits
    c2 = (p2.m + 2) << bits
    best = math.inf
    for h2 in range(0, H + 1):
        h4_range = range(-H, H + 1) if h2 > 0 else range(1, H + 1)
        base2 = h2 * (c2 + s2)
        for h4 in h4_range:
            weight = max(abs(h2), abs(h4)) ** (2.0 + eps)
            if shared and (x := h2 * phi2 + h4 * phi1).b == 0:
                f = Fraction(x.a, x.c) % 1
                best = min(best, float(min(f, 1 - f)) * weight)
                continue
            rem = (base2 + h4 * (c1 + s1)) % scale
            dist = min(rem, scale - rem) / scale
            best = min(best, dist * weight)
    return best


def single_counts(N: int, params: AlphaParams, b: int) -> list[int]:
    """Residue counts of one digit-sum function from one full-length
    digit_sum_array: no chunks and no greedy block starts, so it checks the
    marginals of count_fold by another path for N > q_K."""
    return np.bincount(digit_sum_array(params, N) % b, minlength=b).tolist()


def residue_histogram(N: int, systems: Sequence[AlphaParams], moduli: Sequence[int]) -> np.ndarray:
    """H[a] = #{n < N : S_i(n) mod P_i = a_i for every i}, as an int64
    array of shape moduli: one np.bincount over np.ravel_multi_index keys
    from full-length digit_sum_array vectors, so no block run, residue row
    or key buffer of the joint pass is involved."""
    residues = [digit_sum_array(p, N) % P for p, P in zip(systems, moduli)]
    keys = np.ravel_multi_index(residues, tuple(moduli))
    return np.bincount(keys, minlength=math.prod(moduli)).reshape(moduli)


def counts_via_orthogonality(
    N: int, p1: AlphaParams, b1: int, p2: AlphaParams, b2: int
) -> list[list[float]]:
    """Count matrix recovered from the b1*b2 joint exponential sums.

    Averaging e(j1*(S1-a1)/b1 + j2*(S2-a2)/b2) over the residue characters
    (j1, j2) isolates each cell, so the result must match count_fold up to
    floating rounding; this ties the counting route to the sum route.
    """
    sums = np.array([
        [joint_exp_series((N,), (p1, p2), (Fraction(j1, b1), Fraction(j2, b2))).values[0]
         for j2 in range(b2)]
        for j1 in range(b1)
    ])
    # the character average is the 2-D DFT of the sums, over b1*b2 cells
    return (np.fft.fft2(sums).real / (b1 * b2)).tolist()


def mismatch_count(params: AlphaParams, N: int, k: int, r: int) -> tuple[int, Fraction]:
    """mismatch_sweep's record for one (N, k, r), from two odometers r apart:
    the count of n < N with S(n+r) - S(n) != S_k(n+r) - S_k(n), and the
    ceiling N*r/q_{k-1}."""
    bound = Fraction(N * r, q_sequence(params, min_len=k + 1)[k - 1])
    od_lo, od_hi = Odometer(params, 0), Odometer(params, r)
    count = 0
    for _ in range(N):
        full = od_hi.digit_sum - od_lo.digit_sum
        trunc = sum(od_hi.digits()[:k]) - sum(od_lo.digits()[:k])
        if full != trunc:
            count += 1
        od_lo.step()
        od_hi.step()
    return count, bound


def naive_reconstruct(spectrum: SpectrumL, n: int) -> complex:
    """sum_l coeffs[l] e(l*n/Q) for one n, as an O(Q) dot product."""
    Q = spectrum.Q
    phases = np.exp(2j * np.pi * np.arange(Q) * (n % Q) / Q)
    return complex(np.dot(spectrum.coeffs, phases))


def naive_fejer(x: float, R: int) -> tuple[float, float]:
    """Both sides of the Fejer identity, term by term, pairing r with -r."""
    lhs = complex(R, 0.0)
    for r in range(1, R):
        z = unit_exp(r * x)
        lhs += (R - r) * (z + z.conjugate())
    geo = sum(unit_exp(r * x) for r in range(R))
    return lhs.real, abs(geo) ** 2


def naive_weyl_vdc(a: Sequence[complex], R: int) -> tuple[float, float]:
    """Both sides of the van der Corput bound, one shifted inner product per lag."""
    arr = np.asarray(a, dtype=complex)
    N = len(arr)
    if N == 0:
        return 0.0, 0.0
    lhs = abs(arr.sum()) ** 2
    corr = float(np.sum(np.abs(arr) ** 2))
    for r in range(1, min(R, N)):  # the shifted sum is empty once r >= N
        inner = np.vdot(arr[: N - r], arr[r:])  # sum_n conj(a_n) a_{n+r}
        corr += 2.0 * (1.0 - r / R) * inner.real
    return float(lhs), float((N - 1 + R) / R * corr)


MASK64 = 2**64 - 1


def splitmix64_mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(seed: int) -> Iterator[int]:
    """SplitMix64 as the usual sequential generator on Python ints: add
    GAMMA to the state, mix, yield.  A seed of 2^64 or more is folded limb
    by limb, highest first, as state = mix(state) ^ limb."""
    limbs = []
    while True:
        limbs.append(seed & MASK64)
        seed >>= 64
        if not seed:
            break
    state = 0
    for limb in reversed(limbs):
        state = splitmix64_mix(state) ^ limb
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        yield splitmix64_mix(state)


def uniform_draws(stream: Iterator[int], n: int) -> list[float]:
    """n floats in [0, 1) from the top 53 bits of each draw."""
    return [(next(stream) >> 11) * 2.0**-53 for _ in range(n)]
