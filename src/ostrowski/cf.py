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
from fractions import Fraction

from . import budget
from .surd import Surd, floor_sqrt_mul

_q_cache: dict[int, list[int]] = {}


@dataclass(frozen=True, slots=True)
class AlphaParams:
    """One numeration system: its partial quotients, radicand and two exact constants."""

    m: int
    d: int
    alpha: Surd
    phi: Surd

    def partial_quotient(self, i: int) -> int:
        """a_i for i >= 1: m at even i, 1 at odd i."""
        return self.m if i % 2 == 0 else 1

    def digit_cap(self, i: int) -> int:
        """Largest digit allowed at position i (a_{i+1}); position 0 is forced to 0."""
        return self.partial_quotient(i + 1) if i else 0


def make_alpha(m: int) -> AlphaParams:
    """Build the exact numeration constants for alpha = [0; 1, m, 1, m, ...]."""
    if m < 1:
        raise budget.UsageError(f"m must be a positive integer, got {m}")
    d = m * m + 4 * m
    alpha = Surd(-m, 1, 2, d)
    phi = Surd(m + 2, 1, 2, d)
    return AlphaParams(m=m, d=d, alpha=alpha, phi=phi)


def hypothesis_m_gamma(params: AlphaParams, gamma: float | int | Fraction) -> bool:
    """True when m*gamma is a noninteger, the condition behind the decay of
    sums in e(gamma*S); exact unless gamma is a float."""
    if isinstance(gamma, float):
        return (params.m * gamma) % 1.0 != 0.0
    return (params.m * Fraction(gamma)).denominator != 1


def q_sequence(params: AlphaParams, *, min_len: int = 0, above: int | None = None) -> list[int]:
    """Shared append-only list of convergent denominators q_0, q_1, ... of the system.

    Grows until it has min_len entries and its last entry exceeds `above`.
    Callers must treat the returned list as read-only.
    """
    qs = _q_cache.setdefault(params.m, [1, 1])
    while len(qs) < min_len or (above is not None and qs[-1] <= above):
        qs.append(params.partial_quotient(len(qs)) * qs[-1] + qs[-2])
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
        raise budget.UsageError(f"K must be >= 1, got {K}")
    budget.check_index("convergents index K*(K+m)", K, params.m)
    q = q_sequence(params, min_len=K + 1)[: K + 1]
    p = [0, 1]
    for i in range(2, K + 1):
        p.append(params.partial_quotient(i) * p[-1] + p[-2])
    return ConvergentTable(params=params, K=K, q=tuple(q), p=tuple(p))


def frac_mul(h: int, s: Surd) -> float:
    """Fractional part {h*s}, exact until a single final rounding to float.

    floor(h*s) comes straight from (h*a, h*b) by floor_sqrt_mul, and the one
    triple built is the fractional part's, (h*a - floor(h*s)*c, h*b, c):
    subtracting a multiple of c keeps gcd(h*a, h*b, c), so it reduces to the
    triple of (s*h).frac(), which Surd.__float__ rounds once."""
    a, b, c = h * s.a, h * s.b, s.c
    return float(Surd(a - (a + floor_sqrt_mul(b, s.d)) // c * c, b, c, s.d))
