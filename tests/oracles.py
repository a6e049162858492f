"""Independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: admissible strings are enumerated directly from
the admissibility rule (never via the greedy expansion), sums are evaluated
per-n without the odometer, the representation checks of acceptance
criterion 1 run one n at a time, and fractional parts are recomputed with
256-bit mpmath floats.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator

import mpmath as mp

from ostrowski import AlphaParams, Odometer, digits_of, digit_sum, q_sequence
from ostrowski.surd import Surd


def enumerate_admissible(params: AlphaParams, length: int) -> Iterator[tuple[int, ...]]:
    """All digit vectors of the given length satisfying the admissibility rule."""
    m = params.m

    def rec(i: int, prev: int) -> Iterator[tuple[int, ...]]:
        if i == length:
            yield ()
            return
        cap = 0 if i == 0 else (m if i % 2 == 1 else 1)
        for e in range(cap + 1):
            if i > 0 and e == cap and prev != 0:
                continue
            for tail in rec(i + 1, e):
                yield (e,) + tail

    return rec(0, 0)


def value_table(params: AlphaParams, length: int) -> dict[int, tuple[int, ...]]:
    """Map value -> admissible string over all strings of the given length."""
    qs = q_sequence(params.m, min_len=length)
    table: dict[int, tuple[int, ...]] = {}
    for eps in enumerate_admissible(params, length):
        v = sum(e * q for e, q in zip(eps, qs))
        assert v not in table, f"value {v} has two admissible strings"
        table[v] = eps
    return table


def naive_check_representations(params: AlphaParams, n_max: int) -> str | None:
    """Criterion 1 per n: one digits_of call and one Python digit loop each,
    checking odometer = greedy, admissibility, the prefix-sum condition and
    the round trip; returns a message for the first failure."""
    m = params.m
    qs = q_sequence(m, above=n_max)
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


def naive_joint_sum(N: int, theta: float, beta: float, p1: AlphaParams, p2: AlphaParams) -> complex:
    """Per-n evaluation through digits_of, no odometer, plain summation."""
    total = 0j
    for n in range(N):
        phase = (theta * digit_sum(n, p1) + beta * digit_sum(n, p2)) % 1.0
        total += cmath.exp(2j * math.pi * phase)
    return total


def naive_window_sum(params: AlphaParams, q: int, gamma, theta) -> complex:
    """sum_{u<q} e(gamma*S(u) + theta*u), per u through digits_of, no odometer.

    Rational gamma, theta (Fractions) are reduced mod 1 exactly before the
    single rounding; floats are reduced in floating point.
    """
    re, im = [], []
    for u in range(q):
        phase = float((gamma * digit_sum(u, params) + theta * u) % 1)
        re.append(math.cos(2 * math.pi * phase))
        im.append(math.sin(2 * math.pi * phase))
    return complex(math.fsum(re), math.fsum(im))


def naive_counts(N: int, p1: AlphaParams, b1: int, p2: AlphaParams, b2: int) -> list[list[int]]:
    """Per-n double expansion via digits_of, no odometer."""
    counts = [[0] * b2 for _ in range(b1)]
    for n in range(N):
        counts[digit_sum(n, p1) % b1][digit_sum(n, p2) % b2] += 1
    return counts


def naive_m_sums(params: AlphaParams, k: int, h: int, theta: float) -> tuple[complex, complex]:
    """Window sums recomputed per-u with mpmath fractional parts."""
    qs = q_sequence(params.m, min_len=k + 1)
    sign = 1.0 if k % 2 else -1.0
    lo = 0j
    hi = 0j
    for u in range(qs[k]):
        frac = mp_frac_mul(h * u, params.phi) if h else 0.0
        z = cmath.exp(2j * math.pi * ((theta * digit_sum(u, params) + sign * frac) % 1.0))
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


def mp_dist_nearest(h: int, s: Surd, prec: int = 256) -> float:
    """||h*s|| recomputed at 256-bit precision."""
    with mp.workprec(prec):
        f = mp.frac(h * mp_value(s, prec))
        return float(min(f, 1 - f))
