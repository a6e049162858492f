"""Exponential sums: streamed joint sums, window sums, DFT windows, and the
numeric forms of the classical inequalities."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    BudgetError,
    UsageError,
    b_zero_normalization,
    b_zero_surds,
    convergents,
    dft_window,
    digit_sum_array,
    digits_of,
    frac_mul,
    joint_exp_series,
    make_alpha,
    min_norm_sum,
    mismatch_sweep,
    q_sequence,
    reconstruction_error,
    schmidt_margin,
    single_decay,
)
from ostrowski import expsum
from ostrowski.digits import block_start, digit_sum_bound, truncate, v_sequence
from ostrowski.equidist import joint_folds, sum_fold
from ostrowski.expsum import CompensatedSum, e_turns, fejer_checks, m_sums, weyl_vdc_checks
from ostrowski.surd import Surd

from oracles import (
    digit_sum_trunc,
    enumerated_decay,
    exact_histogram_sum,
    naive_fejer,
    naive_joint_sum,
    naive_m_sums,
    naive_reconstruct,
    naive_schmidt_margin,
    naive_weyl_vdc,
    naive_window_sum,
    residue_histogram,
    shared_radicand,
    splitmix64,
    uniform_draws,
    unit_exp,
    walked_reconstruction_error,
)

# frozen from verified oracle runs
JOINT_N1000 = complex(-22.499999999999996, 32.042939940024304)
MSUM_K4_H1 = (
    complex(1.1403667161328963, 1.1207300425805355),
    complex(-1.05596761551232, -0.608298392031276),
)
MIN_NORM_LHS = 392493.04423369595
SCHMIDT_H1000 = 0.0232832186530321
DECAY_D6 = 0.06755779406938923


def test_compensated_sum_matches_fsum():
    values = [1e16, 1.0, -1e16, 3.14, 1e-8, -2.71] * 100
    acc = CompensatedSum()
    for v in values:
        acc.add(complex(v, -v))
    want = math.fsum(values)
    assert acc.value().real == pytest.approx(want, abs=1e-9)
    assert acc.value().imag == pytest.approx(-want, abs=1e-9)


# -- joint sums -----------------------------------------------------------------


def test_joint_sum_trivial_phases(p2, p3):
    assert joint_exp_series((100,), (p2, p3), (0, 0)).values[0] == 100 + 0j
    assert joint_exp_series((1,), (p2, p3), (Fraction(1, 3), Fraction(1, 2))).values[0] == 1 + 0j


def test_joint_sum_against_naive_oracle(p2, p3):
    got = joint_exp_series((1000,), (p2, p3), (Fraction(1, 3), Fraction(1, 2))).values[0]
    want = naive_joint_sum(1000, 1 / 3, 1 / 2, p2, p3)
    assert abs(got - want) < 1e-10
    assert abs(got - JOINT_N1000) < 1e-9


def test_joint_sum_float_path_matches_rational_path(p2, p3):
    exact = joint_exp_series((500,), (p2, p3), (Fraction(1, 3), Fraction(1, 2))).values[0]
    floats = joint_exp_series((500,), (p2, p3), (1 / 3, 1 / 2)).values[0]
    assert abs(exact - floats) < 1e-9


def test_joint_sum_chunk_size_invariant(p2, p3):
    # 17000 crosses the default chunk, so the chunk sizes cut the streams differently
    grid = (700, 2000, 4321, 17000)
    base = joint_exp_series(grid, (p2, p3), (Fraction(1, 3), Fraction(1, 2))).values
    fold = sum_fold((Fraction(1, 3), Fraction(1, 2)))
    for chunk in (1, 7, 997, 1 << 16):
        (alt,) = joint_folds(grid, (p2, p3), [fold], _chunk=chunk)
        assert tuple(alt) == base  # exact histograms: bit-identical, not merely close


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=1500),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([(2, 3), (1, 5), (3, 2), (2, 2)]),
    st.integers(min_value=1, max_value=2000),
)
def test_float_phase_sum_matches_naive_oracle(N, theta, beta, ms, chunk):
    p1, p2 = make_alpha(ms[0]), make_alpha(ms[1])
    ((got,),) = joint_folds((N,), (p1, p2), [sum_fold((theta, beta))], _chunk=chunk)
    assert abs(got - naive_joint_sum(N, theta, beta, p1, p2)) < 1e-9


def test_float_phase_sums_chunk_size_invariant(p2, p3):
    grid = (5000, 16384, 17000)
    sums = [joint_folds(grid, (p2, p3), [sum_fold((0.37, -1.3))], _chunk=c)
            for c in (997, 1 << 14, 1 << 16)]
    assert sums[0] == sums[1] == sums[2]


@pytest.mark.parametrize("m1, m2", [(40, 7), (1000, 3)])
def test_float_phases_large_m_within_stated_bound(m1, m2):
    # 32*u*N for the histogram fold, the same again for the per-n oracle
    p1, p2 = make_alpha(m1), make_alpha(m2)
    N = 3000
    got = joint_exp_series((N,), (p1, p2), (0.3137, -0.71)).values[0]
    assert abs(got - naive_joint_sum(N, 0.3137, -0.71, p1, p2)) <= 2 * 32 * 2.0**-53 * N


# each part of a two-system joint sum is within (9*pi/2 + 3.01)*u*N of the
# exact sum (the analysis in joint_exp_series); derived, not fitted to what is seen
JOINT_PART_BOUND = (9 * math.pi / 2 + 3.01) * 2.0**-53


@pytest.mark.parametrize("m1, m2, N", [(2, 3, 20000), (1, 5, 20000), (7, 12, 20000),
                                        (40, 2, 20000), (1000, 3, 4000), (1000, 999, 4000)])
@pytest.mark.parametrize("floats", [(False, False), (True, True), (False, True)],
                         ids=["rational", "float", "mixed"])
def test_joint_sum_within_its_derived_bound(m1, m2, N, floats):
    # against 200 bits of the exact histogram of (S1, S2) below N, at seeded
    # random phases: rationals p/q with q <= 12, or floats in [-3, 3)
    rng = random.Random(f"{m1} {m2} {N} {floats}")
    phases = [rng.uniform(-3, 3) if f else Fraction(rng.randrange(-60, 60), rng.randrange(2, 13))
              for f in floats]
    systems = (make_alpha(m1), make_alpha(m2))
    got = joint_exp_series((N,), systems, phases).values[0]
    hist = residue_histogram(N, systems, [digit_sum_bound(p, N) for p in systems])
    want = exact_histogram_sum(hist, phases)
    assert JOINT_PART_BOUND * math.sqrt(2) < 32 * 2.0**-53  # the documented 32*u*N
    assert abs(got.real - want.real) <= JOINT_PART_BOUND * N
    assert abs(got.imag - want.imag) <= JOINT_PART_BOUND * N


def test_joint_series_cumulative(p2, p3):
    series = joint_exp_series((100, 400, 1000), (p2, p3), (Fraction(1, 3), Fraction(1, 2)))
    for n, s in zip(series.grid, series.values):
        alone = joint_exp_series((n,), (p2, p3), (Fraction(1, 3), Fraction(1, 2))).values[0]
        assert abs(s - alone) < 1e-9
    assert series.normalized == tuple(abs(s) / n for n, s in zip(series.grid, series.values))


def test_joint_series_rejects_bad_grid(p2, p3):
    with pytest.raises(ValueError):
        joint_exp_series((100, 100), (p2, p3), (0, 0))
    with pytest.raises(ValueError):
        joint_exp_series((), (p2, p3), (0, 0))


def test_phase_with_phi_equals_phase_with_alpha(p2):
    # phi - alpha is an integer, so both reduce to the same fractional part
    for h in (1, 5, 153, 987654):
        assert frac_mul(h, p2.phi) == frac_mul(h, p2.alpha)


# -- single-system decay -----------------------------------------------------------


def test_decay_trivial_gamma(p2):
    series = single_decay(p2, 0, 0, kmax=6)
    assert series.values == (1.0,) * 5
    assert series.hypothesis_ok is False  # m*0 is an integer


def test_decay_flags_integer_m_gamma(p2):
    assert single_decay(p2, Fraction(1, 2), 0, kmax=4).hypothesis_ok is False
    assert single_decay(p2, Fraction(1, 3), 0, kmax=4).hypothesis_ok is True


def test_decay_anchor_and_slope(p2):
    series = single_decay(p2, Fraction(1, 3), Fraction(3, 10), kmax=12, kmin=6)
    assert series.values[0] == pytest.approx(DECAY_D6, rel=1e-9)
    assert series.slope < 0


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("gamma, theta", [
    (Fraction(1, 3), Fraction(3, 10)),
    (Fraction(2, 5), Fraction(0)),
    (0.31, 0.123),
    (Fraction(1, 3), 0.7),
])
def test_decay_against_naive_window_sums(m, gamma, theta):
    params = make_alpha(m)
    series = single_decay(params, gamma, theta, kmax=10)
    for q, d in zip(series.qks, series.values):
        assert abs(d - abs(naive_window_sum(params, q, gamma, theta)) / q) < 1e-12


def test_decay_budget_rejected(p2, monkeypatch):
    # 40 * (40 + 2) = 1680 > 1000
    monkeypatch.setenv("OSTROWSKI_BUDGET", "1000")
    with pytest.raises(BudgetError, match=r"kmax\*\(kmax\+m\)"):
        single_decay(p2, Fraction(1, 3), 0, kmax=40)


@pytest.mark.parametrize("m, kmax", [(1, 20), (2, 20), (3, 18), (5, 14)])
@pytest.mark.parametrize("gamma, theta", [
    (Fraction(1, 3), Fraction(3, 10)),
    (Fraction(2, 7), Fraction(5, 9)),
    (0.31, 0.123),
    (Fraction(1, 3), 0.7),
    (0.45, Fraction(1, 4)),
])
def test_decay_recursion_matches_enumeration_oracle(m, kmax, gamma, theta):
    params = make_alpha(m)
    got = single_decay(params, gamma, theta, kmax=kmax).values
    want = enumerated_decay(params, gamma, theta, kmax)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_decay_constant_phase_stays_one(m):
    assert single_decay(make_alpha(m), 0, 0, kmax=1000).values == (1.0,) * 999


def test_decay_rate_at_large_k(p2):
    # the periodic-product prediction for m = 2, gamma = 1/3, theta = 3/10
    series = single_decay(p2, Fraction(1, 3), Fraction(3, 10), kmax=600, kmin=400)
    assert abs(series.slope - -0.4277) < 0.01


@pytest.mark.parametrize("call, cap, charge", [
    (lambda p, k: convergents(p, k), "convergents index K*(K+m)", lambda k: k * (k + 2)),
    (lambda p, k: single_decay(p, Fraction(1, 3), 0, kmax=k), "single_decay index kmax*(kmax+m)",
     lambda k: k * (k + 2)),
    (lambda p, k: m_sums(p, k, 1, 0.5), "m_sums index k^2", lambda k: k * k),
    (lambda p, k: dft_window(p, k, 1, 0.5), "dft_window index k^2", lambda k: k * k),
])
def test_convergent_index_caps_fire_before_growth(p2, call, cap, charge):
    before = len(q_sequence(p2))
    with pytest.raises(BudgetError) as exc:
        call(p2, 10**8)
    assert (exc.value.cap_name, exc.value.requested) == (cap, charge(10**8))
    assert len(q_sequence(p2)) == before


K = 10**5  # far past any q cache the other tests grow


@pytest.mark.parametrize("call, cap, requested", [
    (lambda p: truncate(5, p, K), "truncate index k^2", K * K),
    (lambda p: block_start(p, K, 3), "block_start index k^2", K * K),
    (lambda p: v_sequence(p, 3, 2000), "v_sequence count", 2000),
    (lambda p: v_sequence(p, K, 5), "block_start index k^2", K * K),
    (lambda p: b_zero_surds(p, K), "b_zero index k^2", K * K),
    (lambda p: b_zero_normalization(p, K), "b_zero index k^2", K * K),
    (lambda p: min_norm_sum(p, 0.0, (1, 2000), 1e4), "min_norm_sum interval size", 2000),
    (lambda p: digit_sum_array(p, 10**4000), "digit_sum_array N", 10**4000),
    (lambda p: mismatch_sweep(p, (100,), (3, K), (1,)), "mismatch_sweep index max(ks)^2", K * K),
    (lambda p: mismatch_sweep(p, (2000,), (3, 4), (1, 5)),
     "mismatch_sweep entries len(ks)*(max(Ns)+max(rs))", 2 * 2005),
], ids=["truncate", "block_start", "v_sequence-count", "v_sequence-k", "b_zero_surds",
        "b_zero_normalization", "min_norm_sum", "digit_sum_array", "mismatch_sweep-k",
        "mismatch_sweep-entries"])
def test_argument_grown_loops_are_capped_before_growth(p2, monkeypatch, call, cap, requested):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "1000")
    before = len(q_sequence(p2))
    with pytest.raises(BudgetError) as exc:
        call(p2)
    assert (exc.value.cap_name, exc.value.requested, exc.value.cap) == (cap, requested, 1000)
    assert len(q_sequence(p2)) == before


def test_m_sums_sources_stay_aligned(p3, monkeypatch):
    # a 64-entry table cuts the windows [0, 2640) and [2640, 10009) into 436
    # runs, each of whose digit sums must meet the twist of its own u
    from ostrowski import digits

    want = m_sums(p3, 12, 5, 0.37)
    monkeypatch.setattr(digits, "_TABLE_LIMIT", 64)
    windows = ((0, 2640), (2640, 10009))
    assert sum(len(list(digits.block_runs(p3, lo, hi)[1])) for lo, hi in windows) == 436
    for got, w in zip(m_sums(p3, 12, 5, 0.37), want):
        assert abs(got - w) < 1e-9


def test_m_sums_pieces_stay_aligned(p2, monkeypatch):
    # 7-term pieces cut the runs of [0, 15) and [15, 41) with remainders; each
    # piece must meet the twist of its own u, and the merged sums the oracle
    from ostrowski import expsum

    want = naive_m_sums(p2, 6, 3, 0.37)
    whole = m_sums(p2, 6, 3, 0.37)
    monkeypatch.setattr(expsum, "_PIECE", 7)
    for got, w, u in zip(m_sums(p2, 6, 3, 0.37), want, whole):
        assert abs(got - w) < 1e-10 and abs(got - u) < 1e-12


def test_decay_fit_leaves_out_rounding_zeros():
    # sum_{c<5} e(2c/5) = 0 makes D_9 an exact zero; both routes see only rounding
    params = make_alpha(5)
    series = single_decay(params, Fraction(2, 5), 0, kmax=10)
    assert series.left_out == (9,)
    oracle = enumerated_decay(params, Fraction(2, 5), 0, 10)
    assert series.values[7] < 1e-15 and oracle[7] < 1e-15
    kept = [(k, math.log(d)) for k, d in zip(series.ks, oracle) if k not in series.left_out]
    assert abs(series.slope - np.polyfit(*zip(*kept), 1)[0]) < 1e-9


def test_decay_half_turn_cancellation_is_an_exact_zero():
    # m = 3, gamma = 1/2, theta = 0: e(1/2) = -1 exactly, and D_2, D_5 and D_8
    # cancel to 0.0, not to the residue of a rounded cos(pi)
    series = single_decay(make_alpha(3), Fraction(1, 2), 0, kmax=8)
    assert [series.values[k - 2] for k in (2, 5, 8)] == [0.0, 0.0, 0.0]


def test_fit_line_matches_polyfit():
    # slope and intercept within 1e-12 relative of np.polyfit's, on the pinned
    # decay and delta fits and on noisy random lines
    from ostrowski import acceptance
    from ostrowski.expsum import fit_line

    decay = acceptance.pinned_run("decay")
    cases = [(decay.ks, np.log(decay.values))]
    for fit in acceptance.pinned_run("theorem"):
        kept = [(math.log(n), math.log(e)) for n, e in zip(fit.grid, fit.err) if e > 0.0]
        cases.append(tuple(zip(*kept)))
    rng = np.random.default_rng(23)
    for n in (2, 3, 10, 1000):
        x = rng.uniform(-4.0, 10.0, n)
        cases.append((x, 2.5 * x - 7.0 + rng.normal(0.0, 0.5, n)))
    for xs, ys in cases:
        want_slope, want_intercept = np.polyfit(xs, ys, 1)
        slope, intercept = fit_line(xs, ys)
        assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
        assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=0.0)


# -- window sums and coefficients ----------------------------------------------------


def test_m_sums_all_ones(p2):
    qs = q_sequence(p2, min_len=5)
    lo, hi = m_sums(p2, 4, 0, 0)
    assert lo == pytest.approx(qs[3])
    assert hi == pytest.approx(qs[4] - qs[3])


def test_m_sums_triangle_bound(p2):
    qs = q_sequence(p2, min_len=6)
    for h, theta in ((1, 0.37), (3, 0.5), (-2, 0.1)):
        lo, hi = m_sums(p2, 5, h, theta)
        assert abs(lo) <= qs[4] + 1e-9
        assert abs(hi) <= qs[5] - qs[4] + 1e-9


def test_m_sums_against_naive_oracle(p2):
    got = m_sums(p2, 4, 1, Fraction(1, 3))
    want = naive_m_sums(p2, 4, 1, 1 / 3)
    assert abs(got[0] - want[0]) < 1e-10
    assert abs(got[1] - want[1]) < 1e-10
    assert abs(got[0] - MSUM_K4_H1[0]) < 1e-9
    assert abs(got[1] - MSUM_K4_H1[1]) < 1e-9


def test_m_sums_budget_rejected(p2, monkeypatch):
    # k^2 = 16 passes the index cap of 20; q_4 * 50 = 550 exceeds 10 * 20
    monkeypatch.setenv("OSTROWSKI_BUDGET", "20")
    with pytest.raises(BudgetError, match=r"q_k \* \|h\|"):
        m_sums(p2, 4, 50, 0)


def test_m_sums_parity_sign(p3):
    # odd k flips the twist sign; compare against a hand-rolled sum
    k, h = 3, 2
    qs = q_sequence(p3, min_len=k + 1)
    want_lo = sum(
        unit_exp(0.2 * digits_of(u, p3).digit_sum() + frac_mul(h * u, p3.phi))
        for u in range(qs[k - 1])
    )
    lo, _ = m_sums(p3, k, h, 0.2)
    assert abs(lo - want_lo) < 1e-9


def test_b_zero_examples_m2():
    p = make_alpha(2)
    b1, b2 = map(float, b_zero_surds(p, 4))
    assert b1 == pytest.approx(0.124355, abs=1e-6)
    assert b2 == pytest.approx(0.0717968, abs=1e-7)
    b1, b2 = map(float, b_zero_surds(p, 3))
    assert b1 == pytest.approx(0.2679492, abs=1e-7)
    assert b2 == pytest.approx(0.1961524, abs=1e-7)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 1000])
def test_b_zero_normalization_exact(m):
    params = make_alpha(m)
    one = Surd(1, 0, 1, params.d)
    for k in range(2, 42):
        assert b_zero_normalization(params, k) == one


@pytest.mark.parametrize("m", [2, 3])
def test_b_zero_geometric_decay(m):
    # stepping k by 2 divides both coefficients by phi, exactly
    params = make_alpha(m)
    for k in range(2, 16):
        b1a, b2a = b_zero_surds(params, k)
        b1b, b2b = b_zero_surds(params, k + 2)
        assert b1b * params.phi == b1a
        assert b2b * params.phi == b2a
        assert float(b1a) > 0 and float(b2a) > 0


# -- DFT windows -----------------------------------------------------------------------


def test_dft_window_constant_signal(p2):
    spectrum = dft_window(p2, 4, 2, 0)
    assert spectrum.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(spectrum.coeffs[1:])) < 1e-12


def test_dft_window_reconstruction(p2):
    spectrum = dft_window(p2, 4, 1, Fraction(1, 3))
    assert reconstruction_error(spectrum, extended=True) < 1e-9
    assert spectrum.parseval_sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", range(3, 11))
def test_reconstruct_range_matches_per_n(p2, k):
    # the inversion identity on the extended range [0, Q + q_{k-1}): one O(Q)
    # dot product of the coefficients per n against e(theta*S_k(start + n))
    spectrum = dft_window(p2, k, 2, 0.37)
    upper = spectrum.Q + q_sequence(p2, min_len=k)[k - 1]
    assert max(abs(naive_reconstruct(spectrum, n)
                   - unit_exp(0.37 * digit_sum_trunc(spectrum.start + n, p2, k)))
               for n in range(upper)) < 1e-12


@pytest.mark.parametrize("m, k, v, theta", [
    (2, 8, 3, 0.37), (3, 6, 7, Fraction(1, 3)), (1, 9, 2, 0.1), (2, 5, 10**20, Fraction(1, 3)),
])
def test_reconstruction_error_matches_odometer_walk(monkeypatch, m, k, v, theta):
    # the greedy rows summed below k against one odometer walk, bit for bit;
    # at v = 10^20 the block starts past the int64 range.  Slices of 7
    # offsets straddle Q where 7 does not divide it (all but the m = 3 case),
    # and read the period across its wrap.
    spectrum = dft_window(make_alpha(m), k, v, theta)
    for size in (expsum._SLICE, 7):
        monkeypatch.setattr(expsum, "_SLICE", size)
        for extended in (True, False):
            assert reconstruction_error(spectrum, extended) == walked_reconstruction_error(
                spectrum, extended)


def test_reconstruction_error_memory_is_period_plus_slices(monkeypatch):
    # Q = 10403 and the extended range about 2Q: beyond the period (16 bytes
    # per coefficient) the check holds at most 128 bytes per offset of a slice
    monkeypatch.setattr(expsum, "_SLICE", 1024)
    spectrum = dft_window(make_alpha(100), 5, 3, Fraction(1, 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reconstruction_error(spectrum, extended=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * spectrum.Q + 128 * 1024


U = 2.0**-53
# e_turns' docstring: TWO_PI and TWO_PI*t round by u each on |2*pi*t| <= pi/4,
# and libm's cos and sin add at most u; derived, not fitted to what is seen
E_TURNS_BOUND = U + math.pi / 4 * (2 * U + U * U)
BELOW_2_51 = np.nextafter(2.0**51, 0)  # 2^51 - 1/4: above it no float is an odd quarter
EDGE = np.nextafter(2.0**1021, 0)  # the largest float of the domain: 4x is still finite


def test_e_turns_within_its_proved_bound():
    rng = np.random.default_rng(34)
    x = np.concatenate([
        rng.uniform(-2.0**20, 2.0**20, 600), rng.uniform(-1, 1, 600), np.arange(-80, 81) / 8,
        [0.0, -0.0, 1 - U, -(1 - U), 2.0**-1074, 0.125 - U, 0.125 + 2 * U, 0.375 - 2 * U],
        BELOW_2_51 - 0.25 * rng.integers(0, 1 << 20, 40), -BELOW_2_51 + 0.25 * np.arange(40),
        [2.0**52 + 1, 1e19, -1e300, EDGE, -EDGE],
    ])
    z = e_turns(x)
    with mp.workprec(120):
        for xi, zi in zip(x.tolist(), z.tolist()):
            turns = 2 * mp.mpf(xi)  # exact
            assert abs(zi.real - mp.cospi(turns)) <= E_TURNS_BOUND, xi
            assert abs(zi.imag - mp.sinpi(turns)) <= E_TURNS_BOUND, xi


def test_e_turns_quarter_turns_are_exact():
    k = np.arange(-41, 42)
    assert e_turns(k / 4).tolist() == [(1, 1j, -1, -1j)[j % 4] for j in k.tolist()]
    # the last odd quarters, and past 2^63 quarter turns, where casting q
    # to int64 unclipped would warn (an error under pytest's filterwarnings)
    edge = [BELOW_2_51, -BELOW_2_51, BELOW_2_51 - 0.25, BELOW_2_51 - 0.5, 2.0**51 + 0.5,
            2.0**61 + 2.0**9, -(2.0**61), 2.0**62 + 2**10, 1e19, -1e300, EDGE, -EDGE]
    assert e_turns(edge).tolist() == [-1j, 1j, -1, 1j, -1, 1, 1, 1, 1, 1, 1, 1]
    assert e_turns(np.array([[0.0, -0.0]])).tolist() == [[1, 1]]


@pytest.mark.parametrize("n", [-7, 10**19, 10**400], ids=["-7", "10^19", "10^400"])
@pytest.mark.parametrize("theta", [Fraction(1, 3), Fraction(2, 7), 0.37], ids=str)
def test_window_sums_read_theta_mod_1(p2, theta, n):
    # e(theta*S) depends on theta mod 1 only, and theta is reduced exactly
    # before its one rounding, so theta + n gives theta's results bit for bit
    shifted = Fraction(theta) + n
    base, moved = dft_window(p2, 6, 2, theta), dft_window(p2, 6, 2, shifted)
    assert moved.coeffs.tobytes() == base.coeffs.tobytes()
    assert reconstruction_error(moved) == reconstruction_error(base)
    assert m_sums(p2, 6, 3, shifted) == m_sums(p2, 6, 3, theta)


def test_dft_window_lengths_follow_gaps(p2):
    qs = q_sequence(p2, min_len=6)
    for v in range(1, 7):
        spectrum = dft_window(p2, 5, v, 0.37)
        assert spectrum.Q in (qs[4], qs[5])


def test_dft_window_budget(p2, monkeypatch):
    # k^2 = 64 passes the index cap of 100; Q(1) = q_8 = 153 does not
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100")
    with pytest.raises(BudgetError, match="block length"):
        dft_window(p2, 8, 1, Fraction(1, 3))


NON_FINITE_CALLS = {
    "single_decay gamma": lambda p, x: single_decay(p, x, 0, 5),
    "single_decay theta": lambda p, x: single_decay(p, Fraction(1, 3), x, 5),
    "m_sums theta": lambda p, x: m_sums(p, 3, 1, x),
    "dft_window theta": lambda p, x: dft_window(p, 5, 1, x),
    "sum_fold phase": lambda p, x: sum_fold((Fraction(1, 3), x)),
    "joint_exp_series phase": lambda p, x: joint_exp_series((10, 100), (p, make_alpha(3)), (x, 0.5)),
    "min_norm_sum t": lambda p, x: min_norm_sum(p, x, (1, 10), 4.0),
    "min_norm_sum K": lambda p, x: min_norm_sum(p, 0.0, (1, 10), x),
}


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_CALLS))
def test_a_non_finite_float_phase_or_bound_is_a_usage_error(p2, entry, x):
    # refused where the float enters, not as a raw error from Fraction() or a NaN result
    with pytest.raises(UsageError, match="must be finite"):
        NON_FINITE_CALLS[entry](p2, x)


# -- inequality checks -------------------------------------------------------------------


def fejer_batch_of_one(x, R):
    """fejer_checks on a batch of one trial."""
    lhs, rhs = fejer_checks(np.array([x]), np.array([R]))
    return lhs[0], rhs[0]


def weyl_vdc_batch_of_one(a, R):
    """weyl_vdc_checks on a batch of one trial: one row of len(a) values."""
    a = np.asarray(a, dtype=complex)
    lhs, rhs = weyl_vdc_checks(a[None, :], np.array([len(a)]), np.array([R]))
    return lhs[0], rhs[0]


def test_fejer_at_zero():
    for R in (1, 2, 7, 50):
        lhs, rhs = fejer_batch_of_one(0.0, R)
        assert lhs == pytest.approx(R * R)
        assert rhs == pytest.approx(R * R)


def test_fejer_half_R2():
    lhs, rhs = fejer_batch_of_one(0.5, 2)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_fejer_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = float(rng.random())
        R = int(rng.integers(1, 101))
        lhs, rhs = fejer_batch_of_one(x, R)
        assert abs(lhs - rhs) <= 1e-8 * R * R


def test_min_norm_capped_by_interval(p2):
    res = min_norm_sum(p2, 0.25, (1, 50), 1.0)
    assert res.lhs <= 50.0 + 1e-9


def test_min_norm_near_integer_hits_cap(p2):
    # choose t so that t + 7*phi is an integer: the h=7 term contributes K
    t = -frac_mul(7, p2.phi)
    res = min_norm_sum(p2, t, (1, 20), 1e6)
    assert res.lhs >= 1e6


def test_min_norm_pinned_value(p2):
    res = min_norm_sum(p2, 0.0, (1, 1000), 1e4)
    assert res.lhs == pytest.approx(MIN_NORM_LHS, rel=1e-9)
    assert res.sqrt_term == pytest.approx(100.0 * 1000)
    assert res.log_term == pytest.approx(1e4 * math.log(1000))
    assert res.ratio == pytest.approx(MIN_NORM_LHS / (1e5 + 1e4 * math.log(1000)), rel=1e-12)


def test_schmidt_margin_basics(p2, p3):
    m1 = schmidt_margin(p2, p3, 1)
    assert m1 > 0
    values = [schmidt_margin(p2, p3, H) for H in (1, 10, 100)]
    assert values[0] >= values[1] >= values[2] > 0


def test_schmidt_margin_pinned(p2, p3):
    assert schmidt_margin(p2, p3, 1000) == pytest.approx(SCHMIDT_H1000, rel=1e-9)


@pytest.mark.parametrize(
    "m1, m2, H, eps, bits",
    [(2, 3, 1, 0.1, 256), (2, 3, 5, 0.1, 256), (2, 3, 40, 0.1, 256), (3, 2, 40, 0.1, 256),
     (1, 5, 30, 0.0, 256), (5, 40, 30, 0.5, 64), (2, 3, 30, 0.1, 8)],
)
def test_schmidt_margin_equals_exact_loop(m1, m2, H, eps, bits, monkeypatch):
    # eps and bits are module constants; the other values probe the certified
    # float prefilter at other weights and at coarse precision
    monkeypatch.setattr(expsum, "_SCHMIDT_EPS", eps)
    monkeypatch.setattr(expsum, "_SCHMIDT_BITS", bits)
    p1, p2 = make_alpha(m1), make_alpha(m2)
    assert schmidt_margin(p1, p2, H) == naive_schmidt_margin(p1, p2, H, eps, bits)


# the pairs m1 < m2 <= 30 whose radicands m^2 + 4m share one squarefree part D,
# each with its smallest pair (h2, h4) for which h2*phi2 + h4*phi1 is rational
SAME_FIELD = [(1, 5, 1, -3), (1, 16, 1, -8), (2, 12, 1, -4), (3, 21, 1, -5), (5, 16, 3, -8)]


def test_same_field_pairs_up_to_30():
    found = [(m1, m2) for m1 in range(1, 31) for m2 in range(m1 + 1, 31)
             if shared_radicand(m1 * (m1 + 4), m2 * (m2 + 4))]
    assert found == [(m1, m2) for m1, m2, _, _ in SAME_FIELD]


@pytest.mark.parametrize("m1, m2, h2, h4", SAME_FIELD)
def test_schmidt_margin_is_exactly_zero_on_a_cancelling_pair(m1, m2, h2, h4):
    p1, p2 = make_alpha(m1), make_alpha(m2)
    D, c1, c2 = shared_radicand(p1.d, p2.d)
    g = math.gcd(c1, c2)
    assert (h2, h4) == (c1 // g, -c2 // g)  # the smallest pair with h2*c2 + h4*c1 = 0
    x = h2 * Surd(m2 + 2, c2, 2, D) + h4 * Surd(m1 + 2, c1, 2, D)
    assert x.b == 0 and x.c == 1  # an integer, at distance 0 from Z
    H = max(abs(h2), abs(h4))
    # below H every pair is independent: the scaled-integer loop, and a positive margin
    assert schmidt_margin(p1, p2, H - 1) == naive_schmidt_margin(p1, p2, H - 1) > 0
    for big in (H, H + 5):
        assert schmidt_margin(p1, p2, big) == naive_schmidt_margin(p1, p2, big) == 0.0


def test_schmidt_margin_rejects_equal_m(p2):
    with pytest.raises(ValueError):
        schmidt_margin(p2, make_alpha(2), 10)


def test_schmidt_margin_against_mpmath(p2, p3):
    # the H=1 minimum is over {(0,1),(1,0),(1,-1),(1,1)}; recompute at 256 bits
    import mpmath as mp

    with mp.workprec(256):
        phi1 = (2 + 2 + mp.sqrt(12)) / 2
        phi2 = (3 + 2 + mp.sqrt(21)) / 2

        def dist(x):
            f = mp.frac(x)
            return float(min(f, 1 - f))

        want = min(
            dist(phi1), dist(phi2), dist(phi2 - phi1), dist(phi2 + phi1)
        )
    assert schmidt_margin(p2, p3, 1) == pytest.approx(want, rel=1e-12)


def test_weyl_vdc_constant_sequence():
    lhs, rhs = weyl_vdc_batch_of_one(np.ones(50), 7)
    assert lhs == pytest.approx(2500.0)
    assert rhs >= lhs


def test_weyl_vdc_R1_is_cauchy_schwarz():
    rng = np.random.default_rng(11)
    a = np.exp(2j * np.pi * rng.random(200))
    lhs, rhs = weyl_vdc_batch_of_one(a, 1)
    assert rhs == pytest.approx(200 * float(np.sum(np.abs(a) ** 2)), rel=1e-12)
    assert lhs <= rhs + 1e-9


def test_weyl_vdc_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        N = int(rng.integers(1, 501))
        R = int(rng.integers(1, 51))
        a = np.exp(2j * np.pi * rng.random(N))
        lhs, rhs = weyl_vdc_batch_of_one(a, R)
        assert lhs <= rhs + 1e-6 * N * N


def _lemma_draws(seed, trials):
    """The (x, R) and (a, R) draws of acceptance.lemma_trials, in its order,
    from the scalar SplitMix64 oracle: one vector per quantity, then the
    phases of every trial's unit vectors."""
    stream = splitmix64(seed)

    def integers(lo, hi):
        return [lo + math.floor(u * (hi - lo)) for u in uniform_draws(stream, trials)]

    x, R = uniform_draws(stream, trials), integers(1, 101)
    N, vdc_R = integers(1, 501), integers(1, 51)
    phases = np.array(uniform_draws(stream, sum(N)))
    a = np.split(np.exp(2j * np.pi * phases), np.cumsum(N)[:-1])
    return list(zip(x, R)), list(zip(a, vdc_R))


def test_closed_forms_match_per_term_loops():
    from ostrowski.acceptance import RANDOM_SEED

    fejer, vdc = _lemma_draws(RANDOM_SEED, 1000)
    fejer += [(0.0, R) for R in (1, 2, 7, 50)] + [(0.5, R) for R in (1, 2, 3, 100)]
    fejer += [(x, 1) for x in (0.1, 0.37, 0.999)]
    for x, R in fejer:
        got, want = fejer_batch_of_one(x, R), naive_fejer(x, R)
        assert abs(got[0] - want[0]) <= 1e-12 * R * R
        assert abs(got[1] - want[1]) <= 1e-12 * R * R
    rng = np.random.default_rng(3)
    for N, R in ((1, 1), (1, 5), (10, 10), (10, 50), (37, 1), (200, 200)):
        vdc.append((np.exp(2j * np.pi * rng.random(N)), R))
    vdc.append((np.ones(50), 7))
    for a, R in vdc:
        got, want = weyl_vdc_batch_of_one(a, R), naive_weyl_vdc(a, R)
        assert got == pytest.approx(want, rel=1e-12)


def test_batched_battery_matches_per_trial_oracles():
    from ostrowski.acceptance import RANDOM_SEED

    fejer, vdc = _lemma_draws(RANDOM_SEED, 300)
    for lo in range(0, 300, 128):
        x, R = map(np.array, zip(*fejer[lo : lo + 128]))
        lhs, rhs = fejer_checks(x, R)
        for t, (xt, Rt) in enumerate(fejer[lo : lo + 128]):
            want = naive_fejer(xt, Rt)
            assert abs(lhs[t] - want[0]) <= 1e-12 * Rt * Rt
            assert abs(rhs[t] - want[1]) <= 1e-12 * Rt * Rt
        rows, R = zip(*vdc[lo : lo + 128])
        N = np.array([len(a) for a in rows])
        padded = np.zeros((len(rows), N.max()), dtype=complex)
        padded[np.arange(N.max()) < N[:, None]] = np.concatenate(rows)
        lhs, rhs = weyl_vdc_checks(padded, N, np.array(R))
        for t, (a, Rt) in enumerate(vdc[lo : lo + 128]):
            assert (lhs[t], rhs[t]) == pytest.approx(naive_weyl_vdc(a, Rt), rel=1e-12)


@pytest.mark.parametrize("trials", [1, 129, 1000])
def test_lemma_trials_batches_cover_every_draw(trials, monkeypatch):
    from ostrowski import acceptance

    seen_fejer, seen_vdc = [], []

    def fejer_spy(x, R):
        assert len(x) <= acceptance.LEMMA_BATCH
        seen_fejer.extend(zip(x.tolist(), R.tolist()))
        return fejer_checks(x, R)

    def vdc_spy(a, N, R):
        assert len(N) <= acceptance.LEMMA_BATCH
        seen_vdc.extend((row[:n], r) for row, n, r in zip(a, N, R.tolist()))
        return weyl_vdc_checks(a, N, R)

    monkeypatch.setattr(acceptance, "fejer_checks", fejer_spy)
    monkeypatch.setattr(acceptance, "weyl_vdc_checks", vdc_spy)
    worst, violations = acceptance.lemma_trials(7, trials)
    fejer, vdc = _lemma_draws(7, trials)
    assert sorted(seen_fejer) == sorted(fejer)
    # batches hold trials of like N, so the van der Corput draws come as a
    # multiset too: pair them up by length, R and leading value
    def key(draw):
        a, R = draw
        return len(a), R, a[0].real
    assert len(seen_vdc) == len(vdc)
    for (got, R), (want, R_want) in zip(sorted(seen_vdc, key=key), sorted(vdc, key=key)):
        assert R == R_want and got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-15)
    gaps = [abs(lhs - rhs) / (R * R) for (x, R) in fejer for lhs, rhs in [naive_fejer(x, R)]]
    assert abs(worst - max(gaps)) <= 1e-12 and violations == 0


def test_lemma_trials_bounded_draws_reach_both_ends(monkeypatch):
    # 5000 trials: an end of 1..500 is missed with probability about 5e-5
    # (1000 trials at RANDOM_SEED never draw N = 500)
    from ostrowski import acceptance

    fejer_R, vdc_N, vdc_R = [], [], []

    def fejer_spy(x, R):
        fejer_R.extend(R.tolist())
        return fejer_checks(x, R)

    def vdc_spy(a, N, R):
        vdc_N.extend(N.tolist())
        vdc_R.extend(R.tolist())
        return weyl_vdc_checks(a, N, R)

    monkeypatch.setattr(acceptance, "fejer_checks", fejer_spy)
    monkeypatch.setattr(acceptance, "weyl_vdc_checks", vdc_spy)
    acceptance.lemma_trials(acceptance.RANDOM_SEED, 5000)
    assert (min(fejer_R), max(fejer_R)) == (1, 100)
    assert (min(vdc_N), max(vdc_N)) == (1, 500)
    assert (min(vdc_R), max(vdc_R)) == (1, 50)


def test_lemma_trials_memory_does_not_grow_with_trials(capsys):
    import tracemalloc

    from ostrowski.cli import run

    tracemalloc.start()
    try:
        code = run(["lemmas", "--trials", "20000", "--H", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "[PASS] weyl_van_der_corput" in capsys.readouterr().out
    # the unit vectors of 20000 trials alone would take about 80 MB
    assert peak < 8e6
