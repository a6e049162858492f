"""Continued-fraction data for the family alpha(m) = [0; 1, m, 1, m, ...].

alpha(m) is the root in (0,1) of x^2 + m*x - m.  The companion constant
phi(m) = alpha + m + 1 = (m + 2 + sqrt(m^2 + 4m))/2 satisfies
phi^2 = (m+2)*phi - 1 and is the growth factor of the two-step convergent
recurrence: the denominators obey q_i = m*q_{i-1} + q_{i-2} at even i and
q_i = q_{i-1} + q_{i-2} at odd i, so q_{k+2}/q_k -> phi.  m = 1 collapses
to the Fibonacci / Zeckendorf case.

Everything here is exact: convergents are arbitrary-precision integers and
alpha, phi live in Q(sqrt(d)) with d = m^2 + 4m (never a perfect square,
since (m+1)^2 < d < (m+2)^2 for m >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .surd import Surd

_q_cache: dict[int, list[int]] = {}


@dataclass(frozen=True, slots=True)
class AlphaParams:
    """The numeration system for one m: radicand and the two exact constants."""

    m: int
    d: int
    alpha: Surd
    phi: Surd

    def digit_cap(self, i: int) -> int:
        """Largest digit allowed at position i (a_{i+1}); position 0 is forced to 0."""
        if i == 0:
            return 0
        return self.m if i % 2 == 1 else 1


def make_alpha(m: int) -> AlphaParams:
    """Build the exact numeration constants for alpha = [0; 1, m, 1, m, ...]."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    d = m * m + 4 * m
    alpha = Surd(-m, 1, 2, d)
    phi = Surd(m + 2, 1, 2, d)
    return AlphaParams(m=m, d=d, alpha=alpha, phi=phi)


def q_sequence(m: int, *, min_len: int = 0, above: int | None = None) -> list[int]:
    """Shared append-only list of convergent denominators q_0, q_1, ... for alpha(m).

    Grows until it has min_len entries and its last entry exceeds `above`.
    Callers must treat the returned list as read-only.
    """
    qs = _q_cache.setdefault(m, [1, 1])
    while len(qs) < min_len or (above is not None and qs[-1] <= above):
        i = len(qs)
        qs.append((m if i % 2 == 0 else 1) * qs[-1] + qs[-2])
    return qs


@dataclass(frozen=True, slots=True)
class ConvergentTable:
    """Numerators and denominators of [0; a_1, ..., a_i] for i = 0..K."""

    params: AlphaParams
    K: int
    q: tuple[int, ...] = field(repr=False)
    p: tuple[int, ...] = field(repr=False)


def convergents(params: AlphaParams, K: int) -> ConvergentTable:
    """Convergent table up to index K (inclusive), exact at any K."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    m = params.m
    q = [1, 1]
    p = [0, 1]
    for i in range(2, K + 1):
        a = m if i % 2 == 0 else 1
        q.append(a * q[-1] + q[-2])
        p.append(a * p[-1] + p[-2])
    return ConvergentTable(params=params, K=K, q=tuple(q), p=tuple(p))


def frac_mul(h: int, s: Surd) -> float:
    """Fractional part {h*s}, exact until a single final rounding to float."""
    hs = s * h
    return float(hs.frac())


def dist_nearest(h: int, s: Surd) -> float:
    """Distance from h*s to the nearest integer, exact up to one final rounding."""
    hs = s * h
    return float(hs.dist_to_nearest())
