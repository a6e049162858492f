"""Digit expansion, odometer, truncations and the zero-low-digit sequence."""

import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostrowski import DigitString, digit_sum_array, digits_of, make_alpha, q_sequence
from ostrowski.digits import (
    Odometer, block_runs, block_start, digit_sum_bound, digits_matrix, step_rows, truncate,
    v_sequence, validate, value_of,
)

from oracles import (
    digit_sum_trunc, level_list_digit_sum_array, probe_zero_low_digits, value_table,
)


def trim(eps):
    eps = list(eps)
    while len(eps) > 1 and eps[-1] == 0:
        eps.pop()
    return tuple(eps)


# -- expansion ------------------------------------------------------------------


def test_digits_of_zero(p2):
    assert digits_of(0, p2).eps == (0,)
    assert digits_of(0, p2).digit_sum() == 0


def test_digits_of_example_m2(p2):
    ds = digits_of(10, p2)
    assert ds.eps == (0, 2, 0, 2)  # 10 = 2*1 + 0*3 + 2*4
    assert ds.digit_sum() == 4


def test_digits_of_example_m1(p1):
    # Zeckendorf: 10 = 2 + 8 = q_2 + q_5
    ds = digits_of(10, p1)
    assert ds.eps == (0, 0, 1, 0, 0, 1)
    assert ds.digit_sum() == 2


def test_digits_of_rejects_negative(p2):
    with pytest.raises(ValueError):
        digits_of(-1, p2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exhaustive_uniqueness_oracle(m):
    """Every value below q_L is hit by exactly one admissible string, and the
    greedy expansion returns that string."""
    params = make_alpha(m)
    qs = q_sequence(params, above=2000)
    length = next(i for i in range(1, len(qs)) if qs[i] > 2000)
    table = value_table(params, length)
    assert sorted(table) == list(range(qs[length]))
    for n in range(2000):
        assert trim(table[n]) == digits_of(n, params).eps


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_round_trip(m):
    params = make_alpha(m)
    for n in range(20_000):
        assert value_of(digits_of(n, params)) == n


@given(st.integers(min_value=0, max_value=10**15), st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_round_trip_large(n, m):
    params = make_alpha(m)
    ds = digits_of(n, params)
    assert validate(ds, params).ok
    assert value_of(ds) == n


def test_value_of_rejects_inadmissible(p2):
    with pytest.raises(ValueError):
        value_of(DigitString(p2, (1, 0)))
    with pytest.raises(ValueError):
        value_of(DigitString(p2, (0, 2, 1)))


# -- validation -----------------------------------------------------------------


def test_validate_examples(p2):
    rep = validate((0, 2, 1), p2)
    assert not rep.ok and rep.index == 2
    assert validate((0, 2, 0, 2), p2).ok
    rep = validate((0, 3), p2)
    assert not rep.ok and rep.index == 1
    rep = validate((1, 0), p2)
    assert not rep.ok and rep.index == 0
    rep = validate((0, -1), p2)
    assert not rep.ok and rep.index == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_prefix_sum_condition(m):
    params = make_alpha(m)
    qs = q_sequence(params, above=5000)
    for n in range(5000):
        eps = digits_of(n, params).eps
        acc = 0
        for i, e in enumerate(eps):
            assert acc < qs[i]
            acc += e * qs[i]
        assert acc < qs[len(eps)]


# -- digit sums and truncation ----------------------------------------------------


def test_digit_sums_example(p2, p1):
    assert digits_of(10, p2).digit_sum() == 4
    assert digit_sum_trunc(10, p2, 2) == 2
    assert digits_of(10, p1).digit_sum() == 2
    assert all(digit_sum_trunc(0, p2, k) == 0 for k in range(6))


def test_truncate_examples(p2):
    assert truncate(10, p2, 2) == 2
    assert truncate(12345, p2, 0) == 0
    qs = q_sequence(p2, min_len=8)
    for k in range(1, 8):
        for n in range(qs[k]):
            assert truncate(n, p2, k) == n
    # t(n,k) < q_k always
    for n in range(500):
        for k in range(1, 7):
            assert truncate(n, p2, k) < qs[k]


def test_trunc_sum_equals_sum_of_truncation(p2):
    for n in range(2000):
        for k in (0, 1, 2, 3, 5):
            assert digit_sum_trunc(n, p2, k) == digits_of(truncate(n, p2, k), p2).digit_sum()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5, 40]),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=2**62)),
    st.integers(min_value=1, max_value=3000),
)
@example(m=2, lo=0, length=3000)
def test_digits_matrix_rows_match_digits_of(m, lo, length):
    params = make_alpha(m)
    qs = q_sequence(params, above=lo + length)
    # half the draws move to straddle the largest q_k <= lo + length
    if length % 2:
        q = qs[bisect_right(qs, lo + length) - 1]
        lo = max(q - length // 2, 0)
    mat = digits_matrix(params, lo, lo + length)
    assert mat.shape[0] == length
    for n, row in zip(range(lo, lo + length), mat.tolist()):
        eps = digits_of(n, params).eps
        assert row == list(eps) + [0] * (len(row) - len(eps))
    assert mat[-1, -1] > 0 or lo + length == 1


@pytest.mark.parametrize("m", [1, 2, 3, 40])
def test_digits_matrix_rows_match_digits_of_at_int64_top(m):
    # the descent's product digit * q_i must stay exact just below 2**31 on
    # int32 and just below 2**63 on int64; past it the same descent runs on
    # Python ints
    params = make_alpha(m)
    for lo, hi in ((2**31 - 10, 2**31), (2**31 - 5, 2**31 + 5),
                   (2**63 - 10, 2**63), (2**63 - 5, 2**63 + 5), (10**20, 10**20 + 20)):
        for n, row in zip(range(lo, hi), digits_matrix(params, lo, hi).tolist()):
            assert trim(row) == trim(digits_of(n, params).eps)


def test_digits_matrix_rejects_out_of_range(p2):
    for lo, hi in ((-1, 5), (5, 5)):
        with pytest.raises(ValueError):
            digits_matrix(p2, lo, hi)


# -- odometer ---------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_odometer_equals_greedy(m):
    params = make_alpha(m)
    od = Odometer(params)
    for n in range(100_000):
        assert od.n == n
        ds = digits_of(n, params)
        assert od.digits() == ds.eps
        assert od.digit_sum == ds.digit_sum()
        od.step()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5, 40, 255, 256, 300]),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
def test_step_rows_matches_odometer_step(m, width, data):
    # every n < q_width fits in width columns; n = q_width - 1 steps to
    # q_width, whose digit lands past the width
    params = make_alpha(m)
    top = q_sequence(params, min_len=width + 1)[width]
    ns = data.draw(st.lists(st.integers(0, top - 1), max_size=20)) + [top - 1]
    rows = np.zeros((len(ns), width), dtype=np.min_scalar_type(m))
    for r, n in enumerate(ns):
        eps = digits_of(n, params).eps
        rows[r, : len(eps)] = eps
    got = step_rows(params, rows)
    assert got.shape == (len(ns), width + 2)
    for r, n in enumerate(ns):
        od = Odometer(params, n)
        od.step()
        assert trim(got[r].tolist()) == od.digits()
    assert got[-1, width] == 1


@pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 255, 256])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 7])
def test_step_rows_matches_odometer_on_whole_blocks(m, width):
    # every n < q_width (at most 3000) in one block, which holds each case of
    # column 1 its width allows: overflow at eps_1 = m (width >= 2), the
    # neighbour eps_2 at its cap 1 (width >= 3), and a plain raise
    params = make_alpha(m)
    ns = range(min(q_sequence(params, min_len=width + 1)[width], 3000))
    rows = np.zeros((len(ns), width), dtype=np.min_scalar_type(m))
    for n in ns:
        eps = digits_of(n, params).eps
        rows[n, : len(eps)] = eps
    padded = np.pad(rows, ((0, 0), (0, 2)))
    over = padded[:, 1] == m
    at_cap = ~over & (padded[:, 2] == 1)
    assert [over.any(), at_cap.any(), (~over & ~at_cap).any()] == [width >= 2, width >= 3, True]
    got = step_rows(params, rows)
    assert got.shape == (len(ns), width + 2)
    od = Odometer(params)
    for n in ns:
        od.step()
        assert trim(got[n].tolist()) == od.digits()


def test_odometer_first_digit_sums(p2):
    od = Odometer(p2)
    sums = []
    for _ in range(11):
        sums.append(od.digit_sum)
        od.step()
    # 3 = q_2 and 4 = q_3 are single digits; computed by the exhaustive oracle
    assert sums == [0, 1, 2, 1, 1, 2, 3, 2, 2, 3, 4]


def test_odometer_value_invariant(p2):
    od = Odometer(p2)
    for n in range(100_000):
        assert value_of(DigitString(p2, od.digits())) == n
        od.step()


def test_odometer_seeded_start(p3):
    for start in (0, 1, 17, 4_000, 123_456):
        od = Odometer(p3, start)
        for n in range(start, start + 50):
            assert od.digits() == digits_of(n, p3).eps
            od.step()


def test_odometer_reaches_q_k_minus_1(p2):
    qs = q_sequence(p2, min_len=8)
    od = Odometer(p2)
    for _ in range(qs[7] - 1):
        od.step()
    assert od.digits() == digits_of(qs[7] - 1, p2).eps


# -- V sequence -------------------------------------------------------------------


def test_v_sequence_m2_k2(p2):
    vs = v_sequence(p2, 2, 6)
    assert vs.values == (0, 3, 4, 7, 8, 11)
    assert set(vs.gaps) == {1, 3}  # {q_1, q_2}


def test_v_sequence_starts_at_zero(p2, p3):
    for params, k in ((p2, 2), (p2, 5), (p3, 3)):
        assert v_sequence(params, k, 3).values[0] == 0


def test_v_sequence_gap_membership(p2):
    qs = q_sequence(p2, min_len=7)
    for k in (2, 3, 4, 5, 6):
        vs = v_sequence(p2, k, 12)
        assert set(vs.gaps) <= {qs[k - 1], qs[k]}
    assert set(v_sequence(p2, 4, 12).gaps) == {4, 11}


def test_v_sequence_brute_force(p2):
    want = [n for n in range(300) if not any(digits_of(n, p2).eps[:3])]
    got = list(v_sequence(p2, 3, len(want)).values)
    assert got == want


def test_v_sequence_rejects_small_k(p2):
    with pytest.raises(ValueError):
        v_sequence(p2, 1, 5)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 40]), st.integers(2, 12), st.integers(0, 10_000))
@example(2, 2, 0)
@example(40, 12, 10_000)
def test_block_start_matches_probe_oracle(m, k, v):
    params = make_alpha(m)
    assert block_start(params, k, v) == probe_zero_low_digits(params, k, v + 1)[-1]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 40])
@pytest.mark.parametrize("k", [2, 3, 8, 12])
def test_block_start_near_2_62_steps_like_probe(m, k):
    params = make_alpha(m)
    got = [block_start(params, k, 2**62 - 3 + i) for i in range(6)]
    assert not any(digits_of(got[0], params).eps[:k])
    assert got == probe_zero_low_digits(params, k, 6, start=got[0])


def test_block_start_rejects_bad_arguments(p2):
    with pytest.raises(ValueError):
        block_start(p2, 1, 0)
    with pytest.raises(ValueError):
        block_start(p2, 3, -1)


def test_truncated_sum_periodicity(p2):
    """S_{alpha,k} repeats with period Q(v) for offsets below q_{k-1}."""
    qs = q_sequence(p2, min_len=6)
    for k in (3, 4, 5):
        vs = v_sequence(p2, k, 11)
        for v in range(1, 11):
            n_prev = vs.values[v - 1]
            Q = vs.values[v] - n_prev
            for n in range(qs[k - 1]):
                assert digit_sum_trunc(n + n_prev, p2, k) == digit_sum_trunc(
                    n + n_prev + Q, p2, k
                )


# -- bulk digit-sum arrays ---------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_digit_sum_array_matches_direct(m):
    params = make_alpha(m)
    arr = digit_sum_array(params, 4000)
    direct = np.array([digits_of(n, params).digit_sum() for n in range(4000)])
    assert np.array_equal(arr, direct)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 40, 1000]), st.integers(min_value=1, max_value=200_000))
@example(2, 1)
@example(1000, 1002)
def test_digit_sum_bound_exceeds_every_value(m, N):
    params = make_alpha(m)
    assert digit_sum_bound(params, N) > digit_sum_array(params, N).max()


def test_digit_sum_bound_examples():
    got = [digit_sum_bound(make_alpha(m), 10**e) for m in (2, 40) for e in (6, 8, 10)]
    assert got == [33, 43, 54, 164, 205, 287]


def test_digit_sum_array_truncated(p2):
    arr = digit_sum_array(p2, 1500, trunc=4)
    direct = np.array([digit_sum_trunc(n, p2, 4) for n in range(1500)])
    assert np.array_equal(arr, direct)


def test_digit_sum_array_large_m_stays_small():
    # q_3 = 2002 < N <= q_4 ~ 4*10^6: only two shifted copies of [0, q_3) reach N
    params = make_alpha(2000)
    tracemalloc.start()
    try:
        arr = digit_sum_array(params, 2003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert arr.tolist() == [digits_of(n, params).digit_sum() for n in range(2003)]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 1000])
def test_digit_sum_array_matches_level_list_oracle(m):
    # every N next to a block boundary q_j up to 3*10^6: the broadcast
    # copies, a cut last copy, and the [0, q_{j-2}) tail, at each trunc
    params = make_alpha(m)
    bounds = q_sequence(params, above=3 * 10**6)
    Ns = sorted({1, 2, 3} | {N for q in bounds for N in (q - 1, q, q + 1) if 1 <= N <= 3 * 10**6})
    for N in Ns:
        for trunc in (None, 1, 2, 3, 7):
            got = digit_sum_array(params, N, trunc=trunc)
            want = level_list_digit_sum_array(params, N, trunc)
            assert got.dtype == want.dtype and np.array_equal(got, want), (N, trunc)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 7, 40]),
    st.integers(min_value=1, max_value=3000),
    st.sampled_from([None, 2, 3, 4]),
)
def test_digit_sum_array_any_length(m, N, trunc):
    params = make_alpha(m)
    arr = digit_sum_array(params, N, trunc=trunc)
    assert arr.tolist() == [sum(digits_of(n, params).eps[:trunc]) for n in range(N)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=10**14),
    st.integers(min_value=0, max_value=3000),
)
def test_block_runs_match_greedy(m, lo, length):
    params = make_alpha(m)
    table, runs = block_runs(params, lo, lo + length)
    got = [int(base + t) for offset, base, n in runs for t in table[offset : offset + n]]
    assert got == [digits_of(n, params).digit_sum() for n in range(lo, lo + length)]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 40, 1000])
@pytest.mark.parametrize("lo, hi", [(0, 300_000), (12_345, 200_001), (70_000, 70_001), (5, 5),
                                    (12_345, 1 << 20)])
def test_block_runs_tile_the_range(m, lo, hi):
    # every run is one block of the table clipped to [lo, hi): only the first
    # may start inside its block, and the values are base + T[offset:...];
    # 2^20 spans many blocks, including the short one after eps_K reaches its cap
    params = make_alpha(m)
    want = digit_sum_array(params, max(hi, 1))
    table, runs = block_runs(params, lo, hi)
    n = lo
    for i, (offset, base, length) in enumerate(runs):
        assert length > 0 and offset + length <= len(table)
        assert offset == 0 or i == 0
        assert np.array_equal(base + table[offset : offset + length], want[n : n + length])
        n += length
    assert n == max(lo, hi)


# -- serialization ------------------------------------------------------------------


def test_serialization_round_trip(p2):
    ds = digits_of(10, p2)
    assert ds.serialize() == str(ds) == "0,2,0,2"
    for n in (0, 1, 97, 12345):
        eps = tuple(map(int, digits_of(n, p2).serialize().split(",")))
        assert value_of(DigitString(p2, eps)) == n
