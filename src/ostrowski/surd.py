"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Elements are integer triples (a, b, c) standing for (a + b*sqrt(d))/c with
c > 0 and a shared integer radicand d.  Sums, products, quotients, powers,
comparisons, floors and fractional parts are all computed with integer
arithmetic only (integer square roots bracket b*sqrt(d)), so quantities
like the distance from h*phi to the nearest integer stay exact even when h
is large enough that a 64-bit float evaluation of h*phi would cancel
catastrophically.  A value leaves the exact domain only at the final
conversion to float, which rounds once from a 192-bit scaled integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

FLOAT_BITS = 192  # scaled-integer precision backing the single final rounding


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
        if c == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if d == 0:
            b = 0  # b*sqrt(0) contributes nothing; keep the rational form canonical
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rational(x: int | Fraction, d: int = 0) -> "Surd":
        fr = Fraction(x)
        return Surd(fr.numerator, 0, fr.denominator, d)

    def _align(self, other) -> tuple["Surd", "Surd"] | None:
        """Bring both operands onto one radicand; None if other is unsupported."""
        if isinstance(other, (int, Fraction)):
            return self, Surd.from_rational(other, self.d)
        if not isinstance(other, Surd):
            return None
        if self.d == other.d:
            return self, other
        if self.b == 0:
            return Surd(self.a, 0, self.c, other.d), other
        if other.b == 0:
            return self, Surd(other.a, 0, other.c, self.d)
        raise ValueError(f"mixed radicands {self.d} and {other.d}")

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

    # -- exact order and integer parts ----------------------------------------

    def sign(self) -> int:
        """Sign of the value, decided entirely over the integers."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d on the side of a
        diff = a * a - b * b * d
        if a > 0:
            return (diff > 0) - (diff < 0)
        return (diff < 0) - (diff > 0)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and Fraction(self.a, self.c) == other
        if not isinstance(other, Surd):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a * other.c == other.a * self.c
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def floor(self) -> int:
        # floor(t/c) = floor(floor(t)/c) for real t and integer c > 0
        return (self.a + floor_sqrt_mul(self.b, self.d)) // self.c

    def frac(self) -> "Surd":
        """Fractional part, still exact: self - floor(self) in [0, 1)."""
        return self - self.floor()

    def round_nearest(self) -> int:
        """Nearest integer (half rounds up; halves only occur for rational values)."""
        doubled = Surd(2 * self.a + self.c, 2 * self.b, 2 * self.c, self.d)
        return doubled.floor()

    def abs(self) -> "Surd":
        return -self if self.sign() < 0 else self

    def dist_to_nearest(self) -> "Surd":
        """Exact distance to the nearest integer, in [0, 1/2]."""
        return (self - self.round_nearest()).abs()

    # -- the one rounding step -------------------------------------------------

    def to_fraction(self, bits: int = FLOAT_BITS) -> Fraction:
        """Rational approximation with absolute error below 2**-bits / c."""
        if self.b == 0:
            return Fraction(self.a, self.c)
        s = isqrt((self.b * self.b * self.d) << (2 * bits))
        if self.b < 0:
            s = -s
        return Fraction((self.a << bits) + s, self.c << bits)

    def __float__(self) -> float:
        return float(self.to_fraction())

    def __repr__(self) -> str:
        return f"Surd(({self.a}{self.b:+d}*sqrt({self.d}))/{self.c})"
