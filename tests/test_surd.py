"""Exact quadratic-surd arithmetic against a 256-bit floating oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostrowski.surd import Surd, floor_sqrt_mul

from oracles import mp_value

ints = st.integers(min_value=-10**9, max_value=10**9)
small_ints = st.integers(min_value=-50, max_value=50)
radicands = st.sampled_from([2, 3, 5, 12, 13, 21, 45])
denoms = st.integers(min_value=1, max_value=1000)


def surds(a=ints, b=ints, c=denoms, d=radicands):
    return st.builds(Surd, a, b, c, d)


def test_normalization():
    s = Surd(4, -6, -8, 12)
    assert (s.a, s.b, s.c) == (-2, 3, 4)
    assert s.c > 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Surd(1, 1, 0, 5)


def test_zero_radicand_collapses_to_rational():
    s = Surd(3, 7, 2, 0)
    assert s.b == 0
    assert s.floor() == 1
    assert s == Fraction(3, 2)


def test_rational_equality_across_radicands():
    assert Surd(3, 0, 2, 12) == Surd(3, 0, 2, 5) == Fraction(3, 2)
    assert Surd(1, 1, 1, 5) != Surd(1, 1, 1, 12)


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError):
        Surd(1, 1, 1, 5) + Surd(1, 1, 1, 12)


def test_rational_operand_adopts_radicand():
    s = Surd(1, 1, 2, 12) + Fraction(1, 3)
    assert s.d == 12
    assert s == Surd(5, 3, 6, 12)


def test_floor_sqrt_mul_signs():
    assert floor_sqrt_mul(3, 2) == 4  # 3*sqrt(2) = 4.24..
    assert floor_sqrt_mul(-3, 2) == -5
    assert floor_sqrt_mul(0, 7) == 0
    assert floor_sqrt_mul(-2, 4) == -4  # perfect square: exactly -4


@given(surds())
@settings(max_examples=300, deadline=None)
def test_floor_matches_oracle(s):
    import mpmath as mp

    assert s.floor() == int(mp.floor(mp_value(s)))


@given(surds())
@settings(max_examples=300, deadline=None)
def test_float_matches_oracle(s):
    got = float(s)
    want = float(mp_value(s))
    assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


@given(surds(), surds())
@settings(max_examples=200, deadline=None)
def test_ring_ops_match_oracle(s, t):
    t = Surd(t.a, t.b, t.c, s.d)  # align radicands
    for op in ("add", "sub", "mul"):
        got = {"add": s + t, "sub": s - t, "mul": s * t}[op]
        want = {
            "add": mp_value(s) + mp_value(t),
            "sub": mp_value(s) - mp_value(t),
            "mul": mp_value(s) * mp_value(t),
        }[op]
        assert float(got) == pytest.approx(float(want), rel=1e-12, abs=1e-12)


@given(surds())
@settings(max_examples=200, deadline=None)
def test_frac_in_unit_interval(s):
    f = s.frac()
    assert f.floor() == 0  # 0 <= f < 1
    assert f + s.floor() == s


def test_inverse_and_pow():
    s = Surd(1, 1, 2, 5)  # golden ratio
    assert s * s.inverse() == Surd(1, 0, 1, 5)
    assert s**5 == s * s * s * s * s
    assert s**0 == Surd(1, 0, 1, 5)
    assert (s**-2) * (s**2) == Surd(1, 0, 1, 5)
    with pytest.raises(ZeroDivisionError):
        Surd(0, 0, 1, 5).inverse()


def test_golden_ratio_identity():
    # x^2 = x + 1 for x = (1+sqrt(5))/2
    x = Surd(1, 1, 2, 5)
    assert x * x == x + 1


def test_floor_is_exact_near_ties():
    # 2*sqrt(6) vs 5: 24 < 25, so 2*sqrt(6) - 5 lies in [-1, 0)
    assert Surd(0, 2, 1, 6).floor() == 4
    assert Surd(0, 5, 1, 6).floor() == 12  # 5*sqrt(6)=12.247
    assert (Surd(0, 2, 1, 6) - Surd(5, 0, 1, 6)).floor() == -1
    assert Surd(-1, 0, 1, 6).floor() == -1 and Surd(0, -2, 1, 6).floor() == -5


# -- the canonical form ------------------------------------------------------------


@st.composite
def raw_triples(draw):
    """(a, b, c, d) with either sign of c, d = 0 or a non-square d, and a
    common factor g; g = 1 and c = 1 give triples that are already reduced."""
    g = draw(st.integers(min_value=1, max_value=12))
    a, b = draw(small_ints), draw(small_ints)
    c = draw(st.integers(min_value=-20, max_value=20).filter(bool))
    return a * g, b * g, c * g, draw(st.sampled_from([0, 2, 3, 5, 12, 21, 45]))


def pair(a, b, c, d):
    """The value as rational coordinates (x, y) of x + y*sqrt(d)."""
    return Fraction(a, c), Fraction(b, c) if d else Fraction(0)


def canonical(x, y, d):
    """Fields (a, b, c, d) of x + y*sqrt(d) over the least common denominator;
    gcd(|a|, |b|, c) = 1 follows because x and y are reduced Fractions."""
    if d == 0:
        y = Fraction(0)
    c = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return x.numerator * (c // x.denominator), y.numerator * (c // y.denominator), c, d


def fields(s):
    return s.a, s.b, s.c, s.d


def at_least(y, d, r):
    """y*sqrt(d) >= r for rationals y, r, by comparing squares."""
    if y >= 0:
        return r <= 0 or y * y * d >= r * r
    return r < 0 and y * y * d <= r * r


def floor_of(x, y, d):
    """floor(x + y*sqrt(d)) from a float guess moved by exact comparisons."""
    k = int(float(x) + float(y) * d ** 0.5)
    while not at_least(y, d, k - x):
        k -= 1
    while at_least(y, d, k + 1 - x):
        k += 1
    return k


@given(raw_triples(), raw_triples(), small_ints,
       st.fractions(min_value=-50, max_value=50, max_denominator=30))
@example((2, 4, 2, 5), (6, -3, -3, 5), 2, Fraction(1, 2))  # (1, 2, 1, 5), not (2, 4, 2, 5)
@example((3, 7, 1, 0), (1, 1, 1, 0), 0, Fraction(0))  # d = 0 with c = 1 still drops b
@example((4, 6, -1, 12), (0, 0, -7, 12), -1, Fraction(-3, 4))
@settings(max_examples=300, deadline=None)
def test_results_keep_the_canonical_form(st_s, st_t, n, f):
    d = st_s[3]
    s, t = Surd(*st_s), Surd(*st_t[:3], d)
    x, y = pair(*st_s)
    assert fields(s) == canonical(x, y, d)
    tx, ty = pair(*st_t[:3], d)
    assert fields(t) == canonical(tx, ty, d)
    for v, (vx, vy) in ((s, (x, y)), (t, (tx, ty))):
        k = floor_of(vx, vy, d)
        assert v.floor() == k
        assert fields(v.frac()) == canonical(vx - k, vy, d)
    for other, (ox, oy) in ((t, (tx, ty)), (n, (Fraction(n), Fraction(0))), (f, (f, Fraction(0)))):
        add = (x + ox, y + oy)
        sub = (x - ox, y - oy)
        mul = (x * ox + y * oy * d, x * oy + y * ox)
        for got, (wx, wy) in ((s + other, add), (other + s, add), (s - other, sub),
                              (other - s, (-sub[0], -sub[1])), (s * other, mul),
                              (other * s, mul)):
            assert fields(got) == canonical(wx, wy, d)
        equal = (x, y) == (ox, oy)
        assert (s == other) is equal and (other == s) is equal and (s != other) is not equal
    assert hash(Surd(n, 0, 1, d)) == hash(n)
    assert hash(Surd(f.numerator, 0, f.denominator, d)) == hash(f)


@given(surds(a=st.integers(-10**40, 10**40), b=st.integers(-10**40, 10**40),
             d=st.sampled_from([0, 2, 3, 5, 12, 13, 21, 45])),
       st.sampled_from([0, 1, -1, 2, -2, 10**40, -10**40]))
@settings(max_examples=300, deadline=None)
def test_int_product_is_the_aligned_triple(s, n):
    # s * n skips building Surd(n, 0, 1, d); the triple must be the one it gives
    want = fields(s * Surd(n, 0, 1, s.d))
    assert fields(s * n) == want
    assert fields(n * s) == want


def test_bool_product_takes_the_general_route():
    s = Surd(3, -2, 7, 5)
    assert fields(True * s) == fields(s * True) == fields(s)
    assert fields(s * False) == (0, 0, 1, 5)
