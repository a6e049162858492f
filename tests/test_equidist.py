"""Joint residue counting, shift-mismatch bounds, and delta fits."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    delta_scan_corollary,
    delta_scan_theorem,
    joint_counts,
    joint_exp_series,
    make_alpha,
    mismatch_sweep,
    q_sequence,
)
from ostrowski.equidist import count_fold, delta_scans, joint_count_series, joint_folds, sum_fold

from oracles import counts_via_orthogonality, mismatch_count, naive_counts, single_counts

# frozen from the verified naive-oracle run (m1=2, m2=3, b1=3, b2=2, N=1000)
COUNTS_N1000 = [[156, 171], [182, 156], [162, 173]]
MISMATCH_N1E4_K6_R3 = 690


# -- joint counts -----------------------------------------------------------------


def test_single_class(p2, p3):
    rep = joint_counts(500, p2, 1, p3, 1)
    assert rep.counts.tolist() == [[500]]
    assert rep.max_rel_dev == 0.0


def test_n_equals_one(p2, p3):
    rep = joint_counts(1, p2, 3, p3, 2)
    assert rep.counts[0, 0] == 1
    assert rep.counts.sum() == 1


def test_counts_against_naive_oracle(p2, p3):
    rep = joint_counts(1000, p2, 3, p3, 2)
    assert rep.counts.tolist() == naive_counts(1000, p2, 3, p3, 2)
    assert rep.counts.tolist() == COUNTS_N1000
    assert rep.gcd1_ok and rep.gcd2_ok


def test_counts_matrix_sums_to_N(p2, p3):
    for n in (1, 7, 100, 4321):
        rep = joint_counts(n, p2, 3, p3, 2)
        assert rep.counts.sum() == n


@pytest.mark.parametrize("b1, b2", [(3, 2), (40, 7)])  # (40, 7): b1 above W_1, padded
def test_counts_are_a_read_only_int64_array(p2, p3, b1, b2):
    for rep in joint_count_series((1, 700, 5000), p2, b1, p3, b2):
        assert isinstance(rep.counts, np.ndarray)
        assert rep.counts.shape == (b1, b2) and rep.counts.dtype == np.int64
        assert not rep.counts.flags.writeable
        assert rep.counts.sum() == rep.N
        with pytest.raises(ValueError):
            rep.counts[0, 0] += 1
        changed = rep.counts.copy()
        changed[-1, -1] += 1
        assert replace(rep, counts=changed) != rep
        assert replace(rep, counts=changed.copy()) == replace(rep, counts=changed)


def test_deviation_stats_keep_the_per_cell_sums():
    # the Python-list route the array replaced: max and a left-to-right sum
    for N, m1, b1, m2, b2 in [(1000, 2, 3, 3, 2), (54321, 2, 30, 3, 70), (12345, 1, 7, 5, 64)]:
        rep = joint_counts(N, make_alpha(m1), b1, make_alpha(m2), b2)
        scale = b1 * b2 / N
        devs = [abs(c * scale - 1.0) for row in rep.counts.tolist() for c in row]
        assert rep.deviation_stats() == (max(devs), sum(devs) / len(devs))
        assert rep.max_rel_dev == rep.deviation_stats()[0]
        assert rep.rel_dev().ravel().tolist() == devs


def test_gcd_flags(p2, p3):
    rep = joint_counts(100, p2, 4, p3, 3)
    assert rep.gcd1_ok is False  # gcd(4, 2) = 2
    assert rep.gcd2_ok is False  # gcd(3, 3) = 3
    rep = joint_counts(100, p2, 3, p3, 2)
    assert rep.gcd1_ok and rep.gcd2_ok


def test_marginals_match_independent_counter(p2, p3):
    # past the engine's table (q_K <= 2^16), where greedy block starts take over
    rep = joint_counts(200_000, p2, 3, p3, 4)
    assert rep.counts.sum(axis=1).tolist() == single_counts(200_000, p2, 3)
    assert rep.counts.sum(axis=0).tolist() == single_counts(200_000, p3, 4)


def test_counts_chunk_size_invariant(p2, p3):
    grid = (1000, 2345, 5000)
    base = np.array([r.counts for r in joint_count_series(grid, p2, 3, p3, 2)])
    for chunk in (1, 7, 997, 1 << 16):
        reports = joint_count_series(grid, p2, 3, p3, 2, _chunk=chunk)
        assert np.array_equal([r.counts for r in reports], base)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=1500),
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=2000),
)
def test_counts_match_naive_oracle_any_chunk(N, m1, m2, b1, b2, chunk):
    p1, p2 = make_alpha(m1), make_alpha(m2)
    (rep,) = joint_count_series((N,), p1, b1, p2, b2, _chunk=chunk)
    assert rep.counts.tolist() == naive_counts(N, p1, b1, p2, b2)


@pytest.mark.parametrize("m1, b1, m2, b2", [(2, 40, 3, 7), (1, 7, 5, 64), (40, 3, 2, 100)])
def test_counts_moduli_above_value_bound(m1, b1, m2, b2):
    # a b_i above W_i leaves the residues from W_i up empty
    from ostrowski.digits import digit_sum_bound

    p1, p2 = make_alpha(m1), make_alpha(m2)
    assert max(b1 - digit_sum_bound(p1, 700), b2 - digit_sum_bound(p2, 700)) > 0
    rep = joint_counts(700, p1, b1, p2, b2)
    assert rep.counts.tolist() == naive_counts(700, p1, b1, p2, b2)


def test_counts_via_orthogonality(p2, p3):
    rep = joint_counts(400, p2, 3, p3, 2)
    recovered = counts_via_orthogonality(400, p2, 3, p3, 2)
    for i in range(3):
        for j in range(2):
            assert recovered[i][j] == pytest.approx(rep.counts[i][j], abs=1e-6)


def test_report_json_round_trips(p2, p3):
    import json

    rep = joint_counts(1000, p2, 3, p3, 2)
    blob = rep.to_json_dict()
    assert json.loads(json.dumps(blob)) == blob
    assert blob["counts"][0][0] == "156"


@pytest.mark.parametrize("m1, b1, m2, b2, theta, beta", [
    (2, 3, 3, 2, Fraction(1, 3), Fraction(1, 2)),
    (1, 4, 5, 6, Fraction(3, 10), Fraction(2, 9)),
    (2, 7, 3, 5, Fraction(1, 11), Fraction(5, 13)),  # lcm(11, 7) = 77 > W_1
    (40, 3, 2, 100, 0.37, Fraction(1, 4)),  # a float phase: modulus W_1
])
def test_shared_pass_equals_each_scan(m1, b1, m2, b2, theta, beta):
    from ostrowski.digits import digit_sum_bound

    p1, p2 = make_alpha(m1), make_alpha(m2)
    grid = (1000, 5432, 20000)
    if (m1, b1) == (2, 7):
        assert 77 > digit_sum_bound(p1, grid[-1])
    sums, reports = joint_folds(grid, p1, p2, [sum_fold(theta, beta), count_fold(p1, b1, p2, b2)])
    assert np.array_equal(sums, joint_exp_series(grid, theta, beta, p1, p2).values)
    alone = joint_count_series(grid, p1, b1, p2, b2)
    assert np.array_equal([r.counts for r in reports], [r.counts for r in alone])
    theorem, corollary = delta_scans(p1, p2, theta, beta, b1, b2, grid + (40000,))
    assert theorem == delta_scan_theorem(p1, p2, theta, beta, grid + (40000,))
    assert corollary == delta_scan_corollary(p1, b1, p2, b2, grid + (40000,))


def test_scan_builds_each_block_table_once(p2, p3, monkeypatch):
    from ostrowski import digits

    built = []
    table = digits._block_table
    monkeypatch.setattr(digits, "_block_table", lambda params: built.append(params.m) or table(params))
    joint_count_series((1000, 70000, 200000, 300001), p2, 3, p3, 2, _chunk=997)
    assert sorted(built) == [2, 3]


# -- shift mismatch ------------------------------------------------------------------


def test_mismatch_r_zero(p2):
    count, bound = mismatch_count(p2, 1000, 4, 0)
    assert count == 0 and bound == 0


def test_mismatch_large_k_forces_zero(p2):
    # q_{k-1} > N*r makes the bound < 1, so the count must vanish
    count, bound = mismatch_count(p2, 50, 16, 2)
    assert bound < 1
    assert count == 0


def test_mismatch_pinned_example(p2):
    count, bound = mismatch_count(p2, 10_000, 6, 3)
    assert bound == Fraction(10_000 * 3, 15)  # q_5 = 15
    assert count == MISMATCH_N1E4_K6_R3
    assert count <= bound


def test_mismatch_sweep_agrees_with_loop(p2):
    records = mismatch_sweep(p2, (200, 1000), (3, 5), (1, 4))
    for rec in records:
        count, bound = mismatch_count(p2, rec.N, rec.k, rec.r)
        assert (count, bound) == (rec.count, rec.bound)
        assert rec.ok


@pytest.mark.parametrize("ks, rs, Ns", [
    ((0,), (1,), (100,)),
    ((1, 3), (1,), (100,)),
    ((3,), (-3, 1), (100,)),
    ((3,), (1,), (-1, 100)),
])
def test_mismatch_sweep_rejects_bad_ranges(p2, ks, rs, Ns):
    with pytest.raises(ValueError, match="k >= 2"):
        mismatch_sweep(p2, Ns, ks, rs)


@pytest.mark.parametrize("m", [2, 3])
def test_mismatch_bound_sweep(m):
    params = make_alpha(m)
    records = mismatch_sweep(params, (1000, 10_000), range(3, 11), range(1, 21))
    assert all(r.ok for r in records)


# -- delta fits ------------------------------------------------------------------------


def test_delta_grid_validation(p2, p3):
    with pytest.raises(ValueError):
        delta_scan_theorem(p2, p3, 0, 0, (10, 20, 30))
    with pytest.raises(ValueError):
        delta_scan_theorem(p2, p3, 0, 0, (10, 20, 20, 40))
    with pytest.raises(ValueError):
        delta_scan_corollary(p2, 3, p3, 2, (0, 10, 20, 30))


def test_delta_theorem_degenerate_phases(p2, p3):
    fit = delta_scan_theorem(p2, p3, 0, 0, (10, 30, 100, 300))
    assert fit.err == (1.0, 1.0, 1.0, 1.0)
    assert fit.delta_hat == pytest.approx(0.0, abs=1e-12)
    assert fit.hypothesis_ok is False


def test_delta_corollary_single_class_sentinel(p2, p3):
    fit = delta_scan_corollary(p2, 1, p3, 1, (10, 30, 100, 300))
    assert fit.err == (0.0, 0.0, 0.0, 0.0)
    assert fit.delta_hat is None
    assert fit.residual is None


def test_delta_theorem_hypothesis_flag(p2, p3):
    # m2 * beta = 3 * (1/3) = 1 is an integer: flagged
    fit = delta_scan_theorem(p2, p3, Fraction(1, 3), Fraction(1, 3), (10, 30, 100, 300))
    assert fit.hypothesis_ok is False
    fit = delta_scan_theorem(p2, p3, Fraction(1, 3), Fraction(1, 2), (10, 30, 100, 300))
    assert fit.hypothesis_ok is True


def test_delta_scan_small_grid_decay(p2, p3):
    fit = delta_scan_theorem(
        p2, p3, Fraction(1, 3), Fraction(1, 2), (100, 1000, 10_000, 100_000)
    )
    assert fit.delta_hat is not None and fit.delta_hat > 0
    assert fit.series is not None
    cfit = delta_scan_corollary(p2, 3, p3, 2, (100, 1000, 10_000, 100_000))
    assert cfit.delta_hat is not None and cfit.delta_hat > 0
    assert cfit.reports[-1].N == 100_000
    assert cfit.hypothesis_ok is True


def test_delta_corollary_deviation_trend(p2, p3):
    fit = delta_scan_corollary(p2, 3, p3, 2, (1000, 10_000, 100_000, 1_000_000))
    assert fit.err[-1] < fit.err[0]


def test_corollary_matches_q_sequence_block_structure(p2):
    # sanity anchor: counting a single system against itself stays exact
    qs = q_sequence(2, min_len=4)
    rep = joint_counts(qs[3], p2, 1, p2, 1)
    assert rep.counts.tolist() == [[qs[3]]]
