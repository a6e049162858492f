"""Continued-fraction constants, convergents, and exact fractional parts."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostrowski import convergents, frac_mul, make_alpha, q_sequence
from ostrowski.surd import Surd

from oracles import mp_frac_mul


def dist_nearest(h, s):
    """||h*s||, the distance to the nearest integer, from frac_mul."""
    f = frac_mul(h, s)
    return min(f, 1.0 - f)


def test_make_alpha_m2():
    p = make_alpha(2)
    assert p.d == 12
    assert float(p.alpha) == pytest.approx(0.7320508, abs=1e-7)
    assert float(p.phi) == pytest.approx(3.7320508, abs=1e-7)


def test_make_alpha_m1_is_golden_ratio_squared():
    p = make_alpha(1)
    assert float(p.phi) == pytest.approx(2.6180339, abs=1e-7)
    assert p.phi == Surd(3, 1, 2, 5)


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_make_alpha_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        make_alpha(bad)


def test_radicand_never_a_perfect_square():
    from math import isqrt

    for m in range(1, 51):
        d = m * m + 4 * m
        assert isqrt(d) ** 2 != d


@pytest.mark.parametrize("m", range(1, 11))
def test_alpha_phi_minimal_polynomials(m):
    p = make_alpha(m)
    zero = Surd(0, 0, 1, p.d)
    one = Surd(1, 0, 1, p.d)
    assert p.alpha * p.alpha + m * p.alpha - m == zero
    assert p.phi == p.alpha + (m + 1)
    assert p.phi * p.phi - (m + 2) * p.phi + one == zero
    assert p.alpha.floor() == 0 and p.alpha != zero  # 0 < alpha < 1
    assert p.phi.floor() == m + 1


@pytest.mark.parametrize(
    "m,K,expected",
    [
        (2, 9, (1, 1, 3, 4, 11, 15, 41, 56, 153, 209)),
        (1, 7, (1, 1, 2, 3, 5, 8, 13, 21)),
        (3, 4, (1, 1, 4, 5, 19)),
    ],
)
def test_convergent_tables(m, K, expected):
    assert convergents(make_alpha(m), K).q == expected


@pytest.mark.parametrize("m", range(1, 11))
def test_determinant_identity(m):
    t = convergents(make_alpha(m), 200)
    for i in range(200):
        assert t.p[i + 1] * t.q[i] - t.p[i] * t.q[i + 1] == (-1) ** i


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
def test_q_strictly_increasing_from_index_1(m):
    q = convergents(make_alpha(m), 60).q
    assert all(q[i + 1] > q[i] for i in range(1, 60))


@pytest.mark.parametrize("m", [1, 2, 3, 1000])
def test_partial_quotients_feed_caps_and_denominators(m):
    # a_1, a_2, ... = 1, m, 1, m, ...; the digit at position i is capped by
    # a_{i+1} (position 0 by 0); q_i = a_i q_{i-1} + q_{i-2}, one list per m
    p = make_alpha(m)
    assert [p.partial_quotient(i) for i in range(1, 7)] == [1, m, 1, m, 1, m]
    assert [p.digit_cap(i) for i in range(6)] == [0, m, 1, m, 1, m]
    qs = q_sequence(p, min_len=12)
    assert qs[:2] == [1, 1]
    assert all(qs[i] == p.partial_quotient(i) * qs[i - 1] + qs[i - 2] for i in range(2, 12))
    assert q_sequence(make_alpha(m)) is qs


def test_convergents_rejects_small_K():
    with pytest.raises(ValueError):
        convergents(make_alpha(2), 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_half_index_surd_identities(m):
    p = make_alpha(m)
    qs = q_sequence(p, min_len=43)
    for k0 in range(1, 21):
        phi_pow = p.phi**k0
        assert qs[2 * k0] + p.alpha * qs[2 * k0 - 1] == phi_pow
        assert qs[2 * k0] + p.alpha * (qs[2 * k0 + 1] - qs[2 * k0]) == phi_pow


def test_two_step_growth_ratio_approaches_phi():
    p = make_alpha(2)
    qs = q_sequence(p, min_len=62)
    ratio = qs[60] / qs[58]
    assert ratio == pytest.approx(float(p.phi), rel=1e-12)


def test_frac_mul_zero():
    assert frac_mul(0, make_alpha(2).phi) == 0.0


def test_frac_mul_phi_m2():
    assert frac_mul(1, make_alpha(2).phi) == pytest.approx(0.7320508, abs=1e-7)


def test_frac_mul_large_h_against_256bit_oracle():
    p = make_alpha(2)
    got = frac_mul(10**6, p.phi)
    want = mp_frac_mul(10**6, p.phi)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.8075688772935274, rel=1e-12)


@given(st.integers(min_value=-(10**9), max_value=10**9), st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=200, deadline=None)
def test_frac_mul_matches_oracle(h, m):
    p = make_alpha(m)
    got = frac_mul(h, p.phi)
    want = mp_frac_mul(h, p.phi)
    # >= 12 significant digits; both values live in [0, 1)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _rounding_cases(m):
    # 0, +-1, +-10^40, random h of 1 to 40 digits of either sign, and the
    # denominators q_k <= 10^40, whose {q_k * phi} lie within about 1/q_k of
    # 0 or 1, far below the first 192-bit bracket
    rng = random.Random(m)
    hs = [0, 1, -1, 10**40, -(10**40)]
    hs += [rng.choice((1, -1)) * rng.randrange(10 ** rng.randrange(1, 41)) for _ in range(200)]
    qs = [q for q in q_sequence(make_alpha(m), above=10**40) if q <= 10**40]
    return hs + qs + [-q for q in qs]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 1000])
def test_frac_mul_rounds_once_from_the_exact_value(m):
    # bit for bit the 400-bit mpmath value rounded to a float
    phi = make_alpha(m).phi
    assert [h for h in _rounding_cases(m) if frac_mul(h, phi) != mp_frac_mul(h, phi, prec=400)] == []


@given(st.integers(min_value=-(10**60), max_value=10**60), st.sampled_from([1, 2, 3, 5, 12, 1000]),
       st.sampled_from(["phi", "alpha", "other"]))
@example(0, 1, "phi")
@example(10**60, 1000, "other")
@example(-(10**60), 12, "alpha")
@settings(max_examples=500, deadline=None)
def test_frac_mul_is_the_product_then_frac_route(h, m, which):
    # bit for bit the float of the triple that s * h and then .frac() build
    p = make_alpha(m)
    s = {"phi": p.phi, "alpha": p.alpha, "other": Surd(3, -5, 7, p.d)}[which]
    assert frac_mul(h, s).hex() == float((s * h).frac()).hex()


def test_frac_mul_builds_one_surd(p2, surds_built):
    for s in (p2.phi, Surd(3, -5, 7, 12)):
        for h in (0, 1, -7, 10**40):
            surds_built.clear()
            frac_mul(h, s)
            assert len(surds_built) == 1, (s, h, surds_built)


def test_dist_nearest_zero_and_alpha():
    p = make_alpha(2)
    assert dist_nearest(0, p.alpha) == 0.0
    assert dist_nearest(1, p.alpha) == pytest.approx(0.2679491, abs=1e-7)


def test_convergent_denominator_is_best_approximation():
    # ||q_8 * alpha|| beats ||h * alpha|| for every smaller positive h (m=2, q_8=153)
    p = make_alpha(2)
    best = dist_nearest(153, p.alpha)
    assert all(dist_nearest(h, p.alpha) > best for h in range(1, 153))


@given(st.integers(min_value=-(10**4), max_value=10**4))
@settings(max_examples=300, deadline=None)
def test_dist_phi_equals_dist_alpha(h):
    # phi - alpha = m + 1 is an integer, so the distances agree exactly
    p = make_alpha(3)
    assert dist_nearest(h, p.phi) == dist_nearest(h, p.alpha)


def test_dist_phi_equals_dist_alpha_exact_surd():
    # equal exact fractional parts, so equal distances to the nearest integer
    p = make_alpha(2)
    for h in (1, 7, 153, 10**6):
        assert (p.phi * h).frac() == (p.alpha * h).frac()
