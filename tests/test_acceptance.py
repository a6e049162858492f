"""Acceptance gate: the nine exit criteria at their stated scales and
tolerances.  Each test prints one pass/fail line; run with -s (or rely on
pytest's captured-output display on failure) to see them.

Criteria 7 and 8 compare fresh scans against the pinned baseline in
ostrowski/data/baseline.json and must reproduce to 1e-8; criterion 9
reruns both scans at chunk sizes 997 and 2^16 and demands bit-identical
counts and sums, and checks the chunked digit-sum engine against the
odometer on 2*10^4 n from n = 987654 for m = 2, 3.
"""

import pytest

from ostrowski import Odometer, acceptance, digits_of, make_alpha

from oracles import naive_check_representations


def _report(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_1_representation_suite():
    _report(acceptance.criterion_1())


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_criterion_1_matches_per_n_oracle(m):
    params = make_alpha(m)
    assert acceptance._check_representations(params, 20_000) is None
    assert naive_check_representations(params, 20_000) is None


def test_criterion_1_and_oracle_agree_on_broken_step(monkeypatch):
    step = Odometer.step

    def broken(self):
        step(self)
        if self.n == 9_000:
            self._eps[1] += 1

    monkeypatch.setattr(Odometer, "step", broken)
    params = make_alpha(3)
    msg = acceptance._check_representations(params, 20_000)
    assert msg is not None and msg.startswith("m=3 n=9000: odometer")
    assert msg == naive_check_representations(params, 20_000)


def test_criterion_1_catches_odometer_fault(monkeypatch):
    # one digit off by one in the odometer's row for n = 12345 (in the second chunk)
    digit_rows = Odometer.digit_rows

    def faulty(self, count, width):
        start = self.n
        rows = digit_rows(self, count, width)
        if start <= 12_345 < start + count:
            rows[12_345 - start, 2] += 1
        return rows

    monkeypatch.setattr(Odometer, "digit_rows", faulty)
    result = acceptance.criterion_1(n_max=20_000, ms=(2,))
    assert not result.ok
    assert result.detail.startswith("m=2 n=12345: odometer")


def test_criterion_1_catches_inadmissible_row(monkeypatch):
    # 14 = q_2 + q_4 for m = 2, digits (0,0,1,0,1); (0,3,0,0,1) has the same
    # value but a digit above its cap, fed to both the greedy and the odometer
    bad = [0, 3, 0, 0, 1]
    digits_matrix = acceptance.digits_matrix
    digit_rows = Odometer.digit_rows

    def greedy(params, lo, hi):
        mat = digits_matrix(params, lo, hi).copy()
        if lo <= 14 < hi:
            mat[14 - lo, :5] = bad
        return mat

    def odometer(self, count, width):
        start = self.n
        rows = digit_rows(self, count, width)
        if start <= 14 < start + count:
            rows[14 - start, :5] = bad
        return rows

    assert digits_of(14, make_alpha(2)).eps == (0, 0, 1, 0, 1)
    monkeypatch.setattr(acceptance, "digits_matrix", greedy)
    monkeypatch.setattr(Odometer, "digit_rows", odometer)
    result = acceptance.criterion_1(n_max=1_000, ms=(2,))
    assert not result.ok
    assert result.detail == "m=2 n=14: admissibility broken at index 1"


def test_criterion_2_uniqueness_oracle():
    _report(acceptance.criterion_2())


def test_criterion_3_exact_identities():
    _report(acceptance.criterion_3())


def test_criterion_4_window_dft_reconstruction():
    _report(acceptance.criterion_4())


def test_criterion_5_lemma_checks():
    _report(acceptance.criterion_5())


def test_criterion_6_decay_experiment():
    _report(acceptance.criterion_6())


@pytest.fixture(scope="module")
def theorem_result():
    return acceptance.criterion_7()


@pytest.fixture(scope="module")
def corollary_result():
    return acceptance.criterion_8()


def test_criterion_7_theorem_experiment(theorem_result):
    _report(theorem_result[0])


def test_criterion_8_corollary_experiment(corollary_result):
    _report(corollary_result[0])


def test_criterion_9_chunk_size_invariance(theorem_result, corollary_result):
    _report(acceptance.criterion_9(theorem_result[1], corollary_result[1]))
