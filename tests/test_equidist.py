"""Joint residue counting, shift-mismatch bounds, and delta fits."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import (
    BudgetError,
    UsageError,
    count_fold,
    delta_scan_corollary,
    delta_scan_theorem,
    digit_sum_array,
    joint_exp_series,
    joint_folds,
    make_alpha,
    mismatch_sweep,
    q_sequence,
)
from ostrowski.equidist import delta_scans, sum_fold

from oracles import (
    counts_via_orthogonality, mismatch_count, naive_counts, naive_joint_sum, residue_histogram,
    single_counts,
)

# frozen from the verified naive-oracle run (m1=2, m2=3, b1=3, b2=2, N=1000)
COUNTS_N1000 = [[156, 171], [182, 156], [162, 173]]
MISMATCH_N1E4_K6_R3 = 690


def counts_at(N, systems, moduli):
    """The count report at one N, from one pass."""
    ((report,),) = joint_folds((N,), systems, [count_fold(systems, moduli)])
    return report


# -- joint counts -----------------------------------------------------------------


def test_single_class(p2, p3):
    rep = counts_at(500, (p2, p3), (1, 1))
    assert rep.counts.tolist() == [[500]]
    assert rep.deviation_stats() == (0.0, 0.0)


def test_n_equals_one(p2, p3):
    rep = counts_at(1, (p2, p3), (3, 2))
    assert rep.counts[0, 0] == 1
    assert rep.counts.sum() == 1


def test_counts_against_naive_oracle(p2, p3):
    rep = counts_at(1000, (p2, p3), (3, 2))
    assert rep.counts.tolist() == naive_counts(1000, p2, 3, p3, 2)
    assert rep.counts.tolist() == COUNTS_N1000
    assert rep.gcd_ok == (True, True)


def test_counts_matrix_sums_to_N(p2, p3):
    for n in (1, 7, 100, 4321):
        rep = counts_at(n, (p2, p3), (3, 2))
        assert rep.counts.sum() == n


@pytest.mark.parametrize("b1, b2", [(3, 2), (40, 7)])  # (40, 7): b1 above W_1, padded
def test_counts_are_a_read_only_int64_array(p2, p3, b1, b2):
    (reports,) = joint_folds((1, 700, 5000), (p2, p3), [count_fold((p2, p3), (b1, b2))])
    for rep in reports:
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
        rep = counts_at(N, (make_alpha(m1), make_alpha(m2)), (b1, b2))
        scale = b1 * b2 / N
        devs = [abs(c * scale - 1.0) for row in rep.counts.tolist() for c in row]
        assert rep.deviation_stats() == (max(devs), sum(devs) / len(devs))
        assert rep.deviation_stats()[0] == rep.rel_dev().max()
        assert rep.rel_dev().ravel().tolist() == devs


def test_gcd_flags(p2, p3):
    rep = counts_at(100, (p2, p3), (4, 3))
    assert rep.gcd_ok == (False, False)  # gcd(4, 2) = 2, gcd(3, 3) = 3
    rep = counts_at(100, (p2, p3), (3, 2))
    assert rep.gcd_ok == (True, True)


def test_marginals_match_independent_counter(p2, p3):
    # past the engine's table (q_K <= 2^16), where greedy block starts take over
    rep = counts_at(200_000, (p2, p3), (3, 4))
    assert rep.counts.sum(axis=1).tolist() == single_counts(200_000, p2, 3)
    assert rep.counts.sum(axis=0).tolist() == single_counts(200_000, p3, 4)


def test_counts_chunk_size_invariant(p2, p3):
    grid, fold = (1000, 2345, 5000), count_fold((p2, p3), (3, 2))
    (reports,) = joint_folds(grid, (p2, p3), [fold])
    base = np.array([r.counts for r in reports])
    for chunk in (1, 7, 997, 1 << 16):
        (reports,) = joint_folds(grid, (p2, p3), [fold], _chunk=chunk)
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
    ((rep,),) = joint_folds((N,), (p1, p2), [count_fold((p1, p2), (b1, b2))], _chunk=chunk)
    assert rep.counts.tolist() == naive_counts(N, p1, b1, p2, b2)


@pytest.mark.parametrize("m1, b1, m2, b2", [(2, 40, 3, 7), (1, 7, 5, 64), (40, 3, 2, 100)])
def test_counts_moduli_above_value_bound(m1, b1, m2, b2):
    # a b_i above W_i leaves the residues from W_i up empty
    from ostrowski.digits import digit_sum_bound

    p1, p2 = make_alpha(m1), make_alpha(m2)
    assert max(b1 - digit_sum_bound(p1, 700), b2 - digit_sum_bound(p2, 700)) > 0
    rep = counts_at(700, (p1, p2), (b1, b2))
    assert rep.counts.tolist() == naive_counts(700, p1, b1, p2, b2)


def test_counts_via_orthogonality(p2, p3):
    rep = counts_at(400, (p2, p3), (3, 2))
    recovered = counts_via_orthogonality(400, p2, 3, p3, 2)
    for i in range(3):
        for j in range(2):
            assert recovered[i][j] == pytest.approx(rep.counts[i][j], abs=1e-6)


def test_report_json_round_trips(p2, p3):
    import json

    from ostrowski.cli import count_json

    rep = counts_at(1000, (p2, p3), (3, 2))
    blob = count_json(rep, 2, 3)
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
    folds = [sum_fold((theta, beta)), count_fold((p1, p2), (b1, b2))]
    sums, reports = joint_folds(grid, (p1, p2), folds)
    assert np.array_equal(sums, joint_exp_series(grid, (p1, p2), (theta, beta)).values)
    alone = [counts_at(n, (p1, p2), (b1, b2)) for n in grid]
    assert np.array_equal([r.counts for r in reports], [r.counts for r in alone])
    theorem, corollary = delta_scans(grid + (40000,), (p1, p2), (theta, beta), (b1, b2))
    assert theorem == delta_scan_theorem(grid + (40000,), (p1, p2), (theta, beta))
    assert corollary == delta_scan_corollary(grid + (40000,), (p1, p2), (b1, b2))


def _first_block_end_grid(systems, top):
    """1000, top, and each system's first block end past 1000 and one past it."""
    from itertools import accumulate

    from ostrowski.digits import block_runs

    ends = [next(e for e in accumulate(r[2] for r in block_runs(p, 0, top)[1]) if e > 1000)
            for p in systems]
    return tuple(sorted({1000, top} | {e + d for e in ends for d in (0, 1)}))


def _record_key_dtypes(monkeypatch):
    """The dtypes of the key buffers that np.bincount counts from here on."""
    key_dtypes = set()
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda keys, **kw: key_dtypes.add(keys.dtype)
                        or bincount(keys, **kw))
    return key_dtypes


PAIRS = [(1, 5), (2, 3), (40, 7), (1000, 999)]


@pytest.mark.parametrize("bins, m1, m2", [(False, *m) for m in PAIRS] + [(True, *m) for m in PAIRS]
                         + [(256, 2, 3), (257, 1000, 999)])
def test_joint_pass_matches_two_array_oracle(bins, m1, m2, monkeypatch):
    # grid points on the first block end past 1000 of each system, one past
    # it, and inside runs (1000 and top).  bins: False keys (3, 2) residues
    # with rational phases; True keys at the value bound P = W with float
    # phases; 256 and 257 key that many bins, the edge of uint8 keys
    from ostrowski.digits import digit_sum_bound

    p1, p2 = make_alpha(m1), make_alpha(m2)
    top = 100_000
    grid = _first_block_end_grid((p1, p2), top)
    assert grid[-1] == top
    if bins is True:
        P, theta, beta = tuple(digit_sum_bound(p, top) for p in (p1, p2)), 0.37, -1.3
    elif bins is False:
        P, theta, beta = (3, 2), Fraction(1, 3), Fraction(1, 2)
    else:
        P = {256: (16, 16), 257: (257, 1)}[bins]
        theta, beta = Fraction(1, P[0]), Fraction(1, P[1])
    moduli, sums = sum_fold((theta, beta))
    assert tuple(min(q, w) for q, w in zip(moduli, P)) == P
    hists = {n: residue_histogram(n, (p1, p2), P) for n in grid}
    expected = [sums(n, hists[n]) for n in grid]

    def same(n, hist):
        return np.array_equal(hist, hists[n])

    # every key buffer is counted in the narrowest unsigned dtype for P1*P2 bins
    key_dtypes = _record_key_dtypes(monkeypatch)
    for chunk in (1, 997, 1 << 14, 1 << 16):
        folds = [sum_fold((theta, beta)), (P, same)]
        got, checked = joint_folds(grid, (p1, p2), folds, _chunk=chunk)
        assert all(checked)
        assert got == expected
    width = next(w for w, top_bins in ((1, 2**8), (2, 2**16), (4, 2**32)) if P[0] * P[1] <= top_bins)
    assert key_dtypes == {np.dtype(f"u{width}")}


def test_scan_builds_each_block_table_once(p2, p3, monkeypatch):
    from ostrowski import digits

    built = []
    table = digits._block_table
    monkeypatch.setattr(digits, "_block_table", lambda params: built.append(params.m) or table(params))
    grid = (1000, 70000, 200000, 300001)
    joint_folds(grid, (p2, p3), [count_fold((p2, p3), (3, 2))], _chunk=997)
    assert sorted(built) == [2, 3]


def test_fold_at_the_pass_moduli_reads_the_histogram_itself(p2, p3, monkeypatch):
    # float phases fold at the value bounds W_i, which are then the pass's own
    # moduli, so no histogram is summed down
    from ostrowski import equidist

    def refuse(*args):
        raise AssertionError("_fold called at the pass's moduli")

    monkeypatch.setattr(equidist, "_fold", refuse)
    grid = (1000, 3000)
    for n, got in zip(grid, joint_exp_series(grid, (p2, p3), (0.37, -1.3)).values):
        assert abs(got - naive_joint_sum(n, 0.37, -1.3, p2, p3)) < 1e-9


# -- r >= 3 systems ---------------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 997, 1 << 16])
@pytest.mark.parametrize("moduli", [(3, 4, 2), (2, 7, 40)])  # 40 is above W_3 = 37
def test_three_system_pass_folds_to_each_pair(chunk, moduli):
    # a sum fold beside the counts keys the pass at lcm moduli, so the counts
    # are a fold of the pass's histogram; summing out one axis of the r = 3
    # counts gives each pair's r = 2 counts bit for bit
    systems = tuple(make_alpha(m) for m in (2, 3, 5))
    grid = _first_block_end_grid(systems, 100_000)
    assert {15456, 15457, 40545, 40546, 60605, 60606} < set(grid)
    phases = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    sums, reports = joint_folds(grid, systems, [sum_fold(phases), count_fold(systems, moduli)],
                                _chunk=chunk)
    for n, report in zip(grid, reports):
        assert report.counts.shape == moduli and report.counts.sum() == n
        assert report.counts.tolist() == residue_histogram(n, systems, moduli).tolist()
    for axis in range(3):
        pair = systems[:axis] + systems[axis + 1:]
        pair_moduli = moduli[:axis] + moduli[axis + 1:]
        (alone,) = joint_folds(grid, pair, [count_fold(pair, pair_moduli)], _chunk=chunk)
        for got, want in zip(reports, alone):
            assert np.array_equal(got.counts.sum(axis=axis), want.counts)
    # the sums of the r = 3 pass against one sum of e(.) per n over full digit-sum arrays
    s = [digit_sum_array(p, grid[-1]) for p in systems]
    terms = np.exp(2j * np.pi * ((s[0] / 2 + s[1] / 3 + s[2] / 5) % 1))
    assert all(abs(got - terms[:n].sum()) < 1e-8 for got, n in zip(sums, grid))


@pytest.mark.parametrize("ms, moduli, width", [
    ((2, 3, 5), (4, 8, 8), 1),  # 256 bins: the last uint8 key is 255
    ((2, 3, 5), (4, 8, 9), 2),
    ((2, 3, 5, 1), (16, 16, 16, 16), 2),  # 65 536 bins: the last uint16 key
    ((2, 3, 5, 1), (17, 16, 16, 16), 4),
])
def test_r_system_keys_take_the_narrowest_unsigned_dtype(ms, moduli, width, monkeypatch):
    systems = tuple(make_alpha(m) for m in ms)
    key_dtypes = _record_key_dtypes(monkeypatch)
    ((report,),) = joint_folds((1000,), systems, [count_fold(systems, moduli)])
    monkeypatch.undo()
    assert key_dtypes == {np.dtype(f"u{width}")}
    assert report.counts.tolist() == residue_histogram(1000, systems, moduli).tolist()


def test_r_system_bins_are_charged_to_the_budget(monkeypatch):
    # P = (17, 19, 23) at N = 1000 (each below W_i): 7429 bins, each pair at most 437
    systems = tuple(make_alpha(m) for m in (2, 3, 5))
    monkeypatch.setenv("OSTROWSKI_BUDGET", "5000")
    fold = sum_fold((Fraction(1, 17), Fraction(1, 19), Fraction(1, 23)))
    with pytest.raises(BudgetError, match=r"joint histogram bins P1\*P2") as info:
        joint_folds((1000,), systems, [fold])
    assert (info.value.requested, info.value.cap) == (7429, 5000)


def test_r_system_shapes_are_usage_errors(p2, p3):
    from ostrowski import UsageError

    with pytest.raises(UsageError, match="r >= 2 systems"):
        joint_folds((100,), (p2,), [count_fold((p2,), (3,))])
    with pytest.raises(UsageError, match="one modulus per system"):
        joint_folds((100,), (p2, p3, p3), [count_fold((p2, p3), (3, 2))])
    with pytest.raises(UsageError, match="two systems"):
        delta_scan_corollary((10, 30, 100, 300), (p2, p3, p3), (3, 2, 2))


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


def test_mismatch_sweep_agrees_with_loop_past_byte_sums():
    # for m = 300 the digit sums below 2302 pass 255, so the sweep
    # compares in uint16 there, not uint8
    params = make_alpha(300)
    assert digit_sum_array(params, 2302).max() > 255
    for rec in mismatch_sweep(params, (500, 2000), (2, 3, 4), (1, 7, 302)):
        assert (rec.count, rec.bound) == mismatch_count(params, rec.N, rec.k, rec.r)


@pytest.mark.parametrize("ks, rs, Ns", [
    ((0,), (1,), (100,)),
    ((1, 3), (1,), (100,)),
    ((3,), (-3, 1), (100,)),
    ((3,), (1,), (-1, 100)),
])
def test_mismatch_sweep_rejects_bad_ranges(p2, ks, rs, Ns):
    with pytest.raises(ValueError, match="k >= 2"):
        mismatch_sweep(p2, Ns, ks, rs)


@pytest.mark.parametrize("empty", ["Ns", "ks", "rs"])
def test_mismatch_sweep_names_an_empty_argument(p2, empty):
    args = {"Ns": (100,), "ks": (3,), "rs": (1,)}
    args[empty] = ()
    with pytest.raises(UsageError, match=f"^{empty} must not be empty$"):
        mismatch_sweep(p2, **args)


@pytest.mark.parametrize("m", [2, 3])
def test_mismatch_bound_sweep(m):
    params = make_alpha(m)
    records = mismatch_sweep(params, (1000, 10_000), range(3, 11), range(1, 21))
    assert all(r.ok for r in records)


# -- delta fits ------------------------------------------------------------------------


def test_delta_grid_validation(p2, p3):
    with pytest.raises(ValueError):
        delta_scan_theorem((10, 20, 30), (p2, p3), (0, 0))
    with pytest.raises(ValueError):
        delta_scan_theorem((10, 20, 20, 40), (p2, p3), (0, 0))
    with pytest.raises(ValueError):
        delta_scan_corollary((0, 10, 20, 30), (p2, p3), (3, 2))


def test_delta_theorem_degenerate_phases(p2, p3):
    fit = delta_scan_theorem((10, 30, 100, 300), (p2, p3), (0, 0))
    assert fit.err == (1.0, 1.0, 1.0, 1.0)
    assert fit.delta_hat == pytest.approx(0.0, abs=1e-12)
    assert fit.hypothesis_ok is False


def test_delta_corollary_single_class_sentinel(p2, p3):
    fit = delta_scan_corollary((10, 30, 100, 300), (p2, p3), (1, 1))
    assert fit.err == (0.0, 0.0, 0.0, 0.0)
    assert fit.delta_hat is None
    assert fit.residual is None


def test_delta_theorem_hypothesis_flag(p2, p3):
    # m2 * beta = 3 * (1/3) = 1 is an integer: flagged
    fit = delta_scan_theorem((10, 30, 100, 300), (p2, p3), (Fraction(1, 3), Fraction(1, 3)))
    assert fit.hypothesis_ok is False
    fit = delta_scan_theorem((10, 30, 100, 300), (p2, p3), (Fraction(1, 3), Fraction(1, 2)))
    assert fit.hypothesis_ok is True


def test_delta_scan_small_grid_decay(p2, p3):
    fit = delta_scan_theorem(
        (100, 1000, 10_000, 100_000), (p2, p3), (Fraction(1, 3), Fraction(1, 2))
    )
    assert fit.delta_hat is not None and fit.delta_hat > 0
    assert fit.series is not None
    cfit = delta_scan_corollary((100, 1000, 10_000, 100_000), (p2, p3), (3, 2))
    assert cfit.delta_hat is not None and cfit.delta_hat > 0
    assert cfit.reports[-1].N == 100_000
    assert cfit.hypothesis_ok is True


def test_delta_corollary_deviation_trend(p2, p3):
    fit = delta_scan_corollary((1000, 10_000, 100_000, 1_000_000), (p2, p3), (3, 2))
    assert fit.err[-1] < fit.err[0]


def test_corollary_matches_q_sequence_block_structure(p2):
    # sanity anchor: counting a single system against itself stays exact
    qs = q_sequence(p2, min_len=4)
    rep = counts_at(qs[3], (p2, p2), (1, 1))
    assert rep.counts.tolist() == [[qs[3]]]
