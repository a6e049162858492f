"""Acceptance gate: the nine exit criteria at their stated scales and
tolerances.  Each test prints one pass/fail line; run with -s (or rely on
pytest's captured-output display on failure) to see them.

Criteria 6, 7 and 8 compare the decay series and fresh scans against the
pinned baseline in ostrowski/data/baseline.json and must reproduce to
1e-8; criterion 9
reruns both scans at chunk sizes 997 and 2^16 and demands bit-identical
counts and sums, and checks the values of the engine's block runs against
the greedy digit sums, and the greedy rows against the odometer's
successor rule, on 2*10^4 n from n = 987654 for m = 2, 3.
"""

from dataclasses import replace

import numpy as np
import pytest

from ostrowski import (
    UsageError, acceptance, digits_of, make_alpha, q_sequence, single_decay,
)
from ostrowski.digits import Odometer, step_rows
from ostrowski.equidist import delta_scans

from oracles import admissible_strings, naive_check_representations, splitmix64


def _report(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_1_representation_suite():
    _report(acceptance.criterion_1())


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_criterion_1_matches_per_n_oracle(m):
    params = make_alpha(m)
    assert acceptance._check_representations(params, 0, 20_000) is None
    assert naive_check_representations(params, 20_000) is None


def _faulty_step_rows(n, fault):
    """digits.step_rows with fault(row) applied in place to the successor row
    of n - 1, found by the value of its input row."""
    def stepped(params, rows):
        out = step_rows(params, rows)
        qs = np.array(q_sequence(params, min_len=rows.shape[1])[: rows.shape[1]])
        for j in np.flatnonzero(rows.astype(np.int64) @ qs == n - 1):
            fault(out[j])
        return out
    return stepped


def test_criterion_1_and_oracle_agree_on_broken_step(monkeypatch):
    # the successor of 8999 gets one unit too many at position 1, in the
    # library's step_rows and in the oracle's Odometer.step alike
    step = Odometer.step

    def broken(self):
        step(self)
        if self.n == 9_000:
            self._eps[1] += 1

    def bump(row):
        row[1] += 1

    monkeypatch.setattr(Odometer, "step", broken)
    monkeypatch.setattr(acceptance, "step_rows", _faulty_step_rows(9_000, bump))
    params = make_alpha(3)
    msg = acceptance._check_representations(params, 0, 20_000)
    assert msg is not None and msg.startswith("m=3 n=9000: odometer")
    assert msg == naive_check_representations(params, 20_000)


def test_criterion_1_catches_odometer_fault(monkeypatch):
    # one digit off by one in the odometer's row for n = 12345 (in the second chunk)
    def bump(row):
        row[2] += 1

    monkeypatch.setattr(acceptance, "step_rows", _faulty_step_rows(12_345, bump))
    result = acceptance.criterion_1(n_max=20_000, ms=(2,))
    assert not result.ok
    assert result.detail.startswith("m=2 n=12345: odometer")


def test_criterion_1_catches_carry_past_width(monkeypatch):
    # the odometer's row for n = 12345 gains a digit in the last of the two
    # columns past the block's width; its first width columns stay right
    def carry(row):
        row[-1] = 1

    monkeypatch.setattr(acceptance, "step_rows", _faulty_step_rows(12_345, carry))
    result = acceptance.criterion_1(n_max=20_000, ms=(2,))
    assert not result.ok
    assert result.detail.startswith("m=2 n=12345: odometer")


def test_criterion_1_catches_inadmissible_row(monkeypatch):
    # 14 = q_2 + q_4 for m = 2, digits (0,0,1,0,1); (0,3,0,0,1) has the same
    # value but a digit above its cap, fed to both the greedy and the odometer
    bad = [0, 3, 0, 0, 1]
    digits_matrix = acceptance.digits_matrix

    def greedy(params, lo, hi):
        mat = digits_matrix(params, lo, hi).copy()
        if lo <= 14 < hi:
            mat[14 - lo, :5] = bad
        return mat

    def replace(row):
        row[:] = 0
        row[:5] = bad

    assert digits_of(14, make_alpha(2)).eps == (0, 0, 1, 0, 1)
    monkeypatch.setattr(acceptance, "digits_matrix", greedy)
    monkeypatch.setattr(acceptance, "step_rows", _faulty_step_rows(14, replace))
    result = acceptance.criterion_1(n_max=1_000, ms=(2,))
    assert not result.ok
    assert result.detail == "m=2 n=14: admissibility broken at index 1"


def test_criterion_2_uniqueness_oracle():
    _report(acceptance.criterion_2())


@pytest.mark.parametrize("m, length", [(1, 7), (2, 6), (3, 5), (5, 4)])
def test_admissible_rows_equal_recursive_enumeration(m, length):
    rows = acceptance.admissible_rows(make_alpha(m), length)
    assert sorted(map(tuple, rows.tolist())) == sorted(admissible_strings(make_alpha(m), length))


def test_criterion_2_catches_corrupted_greedy_row(monkeypatch):
    greedy = acceptance.digits_matrix

    def corrupted(params, lo, hi):
        mat = greedy(params, lo, hi).copy()
        if params.m == 2:
            mat[777] = 0
        return mat

    monkeypatch.setattr(acceptance, "digits_matrix", corrupted)
    result = acceptance.criterion_2(n_max=2_000)
    assert not result.ok
    assert result.detail == "m=2 n=777: greedy differs from unique string"


def test_criterion_2_catches_a_dropped_string(monkeypatch):
    rows = acceptance.admissible_rows
    monkeypatch.setattr(acceptance, "admissible_rows",
                        lambda params, length: np.delete(rows(params, length), 100, axis=0))
    result = acceptance.criterion_2(n_max=2_000, ms=(3,))
    assert not result.ok
    assert result.detail == "m=3: enumeration misses values below q_10"


def test_criterion_3_exact_identities():
    _report(acceptance.criterion_3())


def test_criterion_4_window_dft_reconstruction():
    _report(acceptance.criterion_4())


def test_criterion_5_lemma_checks():
    _report(acceptance.criterion_5())


def test_criterion_5_reports_battery_failures(monkeypatch):
    monkeypatch.setattr(acceptance, "lemma_trials", lambda seed, trials: (2e-8, 3))
    result = acceptance.criterion_5()
    assert not result.ok
    assert result.detail == (
        "fejer: worst |lhs-rhs|/R^2 = 2.000e-08 > 1e-8; "
        "van der Corput: 3 of 1000 trials exceed rhs + 1e-6*N^2"
    )


def test_lemma_trials_rejects_a_negative_seed():
    with pytest.raises(UsageError, match="seed must be nonnegative"):
        acceptance.lemma_trials(-1, 5)


def test_splitmix64_known_answers():
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    stream = splitmix64(0)
    assert [next(stream) for _ in want] == want
    assert acceptance.SplitMix64(0).bits(3).tolist() == want


@pytest.mark.parametrize("seed", [0, 5, acceptance.RANDOM_SEED, 2**64 - 1, 2**64, 2**64 + 5,
                                  2**200 + 3])
def test_splitmix64_counter_stream_matches_sequential_oracle(seed):
    stream, oracle = acceptance.SplitMix64(seed), splitmix64(seed)
    got = [v for n in (1, 7, 100) for v in stream.bits(n).tolist()]
    assert got == [next(oracle) for _ in range(108)]


def test_no_library_path_needs_lapack(monkeypatch):
    # np.polyfit binds np.linalg.lstsq when numpy is imported, so it is
    # refused by name as well
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # all but LinAlgError
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    p2, p3 = make_alpha(2), make_alpha(3)
    assert single_decay(p2, 1 / 3, 0.3, kmax=20, kmin=6).slope < 0
    theorem, corollary = delta_scans(acceptance.BASELINE_GRID, (p2, p3), (1 / 3, 1 / 2), (3, 2))
    assert theorem.delta_hat is not None and corollary.delta_hat is not None
    results = acceptance.run_all(quick=True, report=lambda line: None)
    assert [r.ok for r in results] == [True] * 9


def test_criterion_6_decay_experiment():
    _report(acceptance.criterion_6())


def test_criterion_6_checks_pinned_decay(monkeypatch):
    base = acceptance.load_baseline()
    base["decay"]["values"][3] += 1e-6
    monkeypatch.setattr(acceptance, "load_baseline", lambda: base)
    result = acceptance.criterion_6()
    assert not result.ok
    assert result.detail == "decay.values[3] deviates from baseline"
    monkeypatch.setattr(acceptance, "load_baseline", lambda: None)
    result = acceptance.criterion_6()
    assert not result.ok and result.detail.startswith("baseline file missing")


def test_criterion_6_fails_without_a_slope(monkeypatch):
    series = acceptance.pinned_run("decay")
    monkeypatch.setattr(acceptance, "pinned_run", lambda section: replace(series, slope=None))
    result = acceptance.criterion_6()
    assert not result.ok
    assert result.detail.startswith("fit slope None not negative")


@pytest.fixture(scope="module")
def theorem_result():
    return acceptance.criterion_7()


@pytest.fixture(scope="module")
def corollary_result(theorem_result):
    return acceptance.criterion_8(theorem_result[1])


def test_criterion_7_theorem_experiment(theorem_result):
    _report(theorem_result[0])


def test_criterion_8_corollary_experiment(corollary_result):
    _report(corollary_result)


def test_criterion_9_chunk_size_invariance(theorem_result):
    _report(acceptance.criterion_9(theorem_result[1]))


def test_criteria_8_and_9_catch_a_changed_fit(theorem_result):
    from dataclasses import replace

    theorem, corollary = theorem_result[1]
    values = list(theorem.series.values)
    values[2] += 1e-9  # far below the baseline's 1e-8, not bit-identical
    counts = corollary.reports[0].counts.copy()
    counts[0, 0], counts[0, 1] = counts[0, 0] + 1, counts[0, 1] - 1
    changed = (replace(theorem, series=replace(theorem.series, values=tuple(values))),
               replace(corollary, reports=(replace(corollary.reports[0], counts=counts),)
                       + corollary.reports[1:]))
    assert acceptance.criterion_9(changed).detail == (
        "sums at chunk size 997 not bit-identical; counts at chunk size 997 not bit-identical; "
        "sums at chunk size 65536 not bit-identical; counts at chunk size 65536 not bit-identical")
    assert acceptance.criterion_8(changed).detail == (
        "N=1000 matrix differs from naive oracle; corollary.counts.1000[0][0] deviates from baseline")


def test_criterion_9_catches_engine_and_odometer_faults(theorem_result, monkeypatch):
    # the odometer's row for n = 1000000 (in the second block of the range)
    # one digit off, for m = 2 and 3, and one run of m = 3 one too high
    block_runs = acceptance.block_runs

    def shifted(params, lo, hi):
        table, runs = block_runs(params, lo, hi)
        return table, ((o, b + (params.m == 3), n) for o, b, n in runs)

    def bump(row):
        row[1] += 1

    monkeypatch.setattr(acceptance, "block_runs", shifted)
    monkeypatch.setattr(acceptance, "step_rows", _faulty_step_rows(1_000_000, bump))
    result = acceptance.criterion_9(theorem_result[1])
    assert not result.ok
    parts = [part.split(": ", 1) for part in result.detail.split("; ")]
    assert [where for where, _ in parts] == ["m=2 n=1000000", "m=3 n=1000000", "m=3"]
    assert [what.split()[0] for _, what in parts[:2]] == ["odometer", "odometer"]
    assert parts[2][1] == "block runs differ from the greedy digit sums"


def test_criterion_7_checks_its_whole_section_without_a_second_scan(monkeypatch):
    base = acceptance.load_baseline()
    base["theorem"]["normalized"][2] += 1e-6
    monkeypatch.setattr(acceptance, "load_baseline", lambda: base)
    scans = []
    delta_scans = acceptance.delta_scans
    monkeypatch.setattr(acceptance, "delta_scans",
                        lambda *a, **k: scans.append(1) or delta_scans(*a, **k))
    result, _ = acceptance.criterion_7()
    assert not result.ok
    assert result.detail == "theorem.normalized[2] deviates from baseline"
    assert scans == [1]


@pytest.mark.parametrize("section, path, change, named", [
    ("theorem", ("grid", 1), lambda v: v + 1, "theorem.grid[1]"),
    ("theorem", ("beta",), lambda v: "1/3", "theorem.beta"),
    ("theorem", ("values", 3, 1), lambda v: v - 2e-8, "theorem.values[3][1]"),
    ("corollary", ("err", 0), lambda v: v + 1e-6, "corollary.err[0]"),
    ("corollary", ("counts", "100000", 2, 1), lambda v: str(int(v) + 1), "corollary.counts.100000[2][1]"),
    ("corollary", ("b2",), lambda v: 3, "corollary.b2"),
    ("decay", ("ks", 0), lambda v: v + 1, "decay.ks[0]"),
    ("decay", ("slope",), lambda v: v + 1e-7, "decay.slope"),
])
def test_criteria_6_to_8_name_the_first_changed_field(
        theorem_result, monkeypatch, section, path, change, named):
    base = acceptance.load_baseline()
    parent = base[section]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    monkeypatch.setattr(acceptance, "load_baseline", lambda: base)
    if section == "decay":
        result = acceptance.criterion_6()
    elif section == "theorem":
        result = acceptance.criterion_7()[0]
    else:
        result = acceptance.criterion_8(theorem_result[1])
    assert not result.ok
    assert result.detail == f"{named} deviates from baseline"
