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

from ostrowski import acceptance


def _report(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_1_representation_suite():
    _report(acceptance.criterion_1())


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
