"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Elements are integer triples (a, b, c) standing for (a + b*sqrt(d))/c with
a shared integer radicand d >= 0.  Every Surd is kept in one canonical
form: c > 0, gcd(|a|, |b|, c) = 1, and b = 0 when d = 0.  For a non-square
d that form is unique, and == and hash compare fields on the strength of
it, so the constructor reduces every triple it is given; a triple that is
already canonical (c = 1, d > 0) passes through untouched.  Sums, products,
quotients, powers, equality, floors and fractional parts are all computed
with integer arithmetic only (integer square roots bracket b*sqrt(d)), so
quantities like the fractional part of h*phi stay exact even when h is
large enough that a 64-bit float evaluation of h*phi would cancel
catastrophically.  The fractional part of x = (a + b*sqrt(d))/c is the one
triple (a - floor(x)*c, b, c): subtracting a multiple of c from a keeps
gcd(a, b, c), so it is the canonical triple of x - floor(x).  A product
with an int n (not a bool) is the triple (n*a, n*b, c), reduced: the one
that multiplying by the Surd (n, 0, 1) gives, built without that Surd.  A
value leaves the exact domain only at the final conversion to float, which
rounds once to the nearest float, from an integer square-root bracket
refined until its ends round alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .budget import UsageError

FLOAT_BITS = 192  # first scaled-integer precision of the single final rounding


def floor_sqrt_mul(b: int, d: int) -> int:
    """floor(b*sqrt(d)) via integer square roots, correct for either sign of b."""
    if b == 0 or d == 0:
        return 0
    t = b * b * d
    s = isqrt(t)
    if b > 0:
        return s
    # -sqrt(t) lies in (-(s+1), -s]; it hits -s exactly only for perfect squares.
    return -s if s * s == t else -(s + 1)


@dataclass(frozen=True, slots=True)
class Surd:
    """(a + b*sqrt(d))/c, reduced, with c > 0.  Immutable and hashable."""

    a: int
    b: int
    c: int = 1
    d: int = 0

    def __post_init__(self) -> None:
        a, b, c, d = self.a, self.b, self.c, self.d
        if c == 1 and d > 0:
            return  # already canonical: gcd(|a|, |b|, 1) = 1
        if c == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d < 0:
            raise UsageError("radicand must be nonnegative")
        if d == 0:
            b = 0  # b*sqrt(0) contributes nothing; keep the rational form canonical
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        # a sign flip or a common factor changes c, and d = 0 changes only b
        if c != self.c or b != self.b:
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "c", c)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rational(x: int | Fraction, d: int = 0) -> "Surd":
        fr = Fraction(x)
        return Surd(fr.numerator, 0, fr.denominator, d)

    def _align(self, other) -> tuple["Surd", "Surd"] | None:
        """Bring both operands onto one radicand; None if other is unsupported.
        An int n becomes (n, 0, 1) directly, without a Fraction."""
        if isinstance(other, int):
            return self, Surd(other, 0, 1, self.d)
        if isinstance(other, Fraction):
            return self, Surd.from_rational(other, self.d)
        if not isinstance(other, Surd):
            return None
        if self.d == other.d:
            return self, other
        if self.b == 0:
            return Surd(self.a, 0, self.c, other.d), other
        if other.b == 0:
            return self, Surd(other.a, 0, other.c, self.d)
        raise UsageError(f"mixed radicands {self.d} and {other.d}")

    # -- ring / field operations ----------------------------------------------

    def __add__(self, other) -> "Surd":
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        return Surd(s.a * o.c + o.a * s.c, s.b * o.c + o.b * s.c,
                    s.c * o.c, s.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "Surd":
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        return s + (-o)

    def __rsub__(self, other) -> "Surd":
        return (-self) + other

    def __mul__(self, other) -> "Surd":
        if type(other) is int:  # the triple _align's (n, 0, 1) gives, without building it
            return Surd(self.a * other, self.b * other, self.c, self.d)
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        a = s.a * o.a + s.b * o.b * s.d
        b = s.a * o.b + s.b * o.a
        return Surd(a, b, s.c * o.c, s.d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # 1/((a+b*sqrt(d))/c) = c*(a-b*sqrt(d))/(a^2 - b^2 d)
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("surd has no inverse (value is zero)")
        return Surd(self.c * self.a, -self.c * self.b, norm, self.d)

    def __truediv__(self, other) -> "Surd":
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        s, o = pair
        return s * o.inverse()

    def __pow__(self, k: int) -> "Surd":
        if k < 0:
            return self.inverse() ** (-k)
        out = Surd(1, 0, 1, self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- equality and integer parts ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.b == 0 and self.a == other * self.c
        if isinstance(other, Fraction):
            return self.b == 0 and self.a * other.denominator == other.numerator * self.c
        if not isinstance(other, Surd):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a * other.c == other.a * self.c
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def floor(self) -> int:
        # floor(t/c) = floor(floor(t)/c) for real t and integer c > 0
        return (self.a + floor_sqrt_mul(self.b, self.d)) // self.c

    def frac(self) -> "Surd":
        """Fractional part, still exact: self - floor(self) in [0, 1)."""
        return Surd(self.a - self.floor() * self.c, self.b, self.c, self.d)

    # -- the one rounding step -------------------------------------------------

    def __float__(self) -> float:
        """The float nearest to self: an integer square root brackets
        self * c * 2^bits by lo and lo + 1, and bits double until both ends
        round alike (int / int rounds correctly), however small self is."""
        bits, t = FLOAT_BITS, self.b * self.b * self.d
        while True:
            s = isqrt(t << 2 * bits)
            if s * s == t << 2 * bits:  # b*sqrt(d) is rational
                return ((self.a << bits) + (s if self.b > 0 else -s)) / (self.c << bits)
            lo = (self.a << bits) + (s if self.b > 0 else -s - 1)
            den = self.c << bits
            x = lo / den
            if x == (lo + 1) / den:
                return x
            bits *= 2

    def __repr__(self) -> str:
        return f"Surd(({self.a}{self.b:+d}*sqrt({self.d}))/{self.c})"
