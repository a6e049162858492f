"""Command-line surface: outputs, formats, determinism, exit codes."""

import csv
import io
import json
import re
import sys
import tracemalloc

import pytest

from ostrowski.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_example(capsys):
    code, out, _ = invoke(capsys, "digits", "--m", "2", "--n", "10")
    assert code == 0
    assert out.splitlines() == ["0,2,0,2", "S=4"]


def test_convergents_example(capsys):
    code, out, _ = invoke(capsys, "convergents", "--m", "2", "--K", "9")
    assert code == 0
    assert out.splitlines()[0] == "q: 1 1 3 4 11 15 41 56 153 209"


def test_count_json_matches_library(capsys, p2, p3):
    from ostrowski import count_fold, joint_folds

    code, out, _ = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "1000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    ((report,),) = joint_folds((1000,), (p2, p3), [count_fold((p2, p3), (3, 2))])
    result = payload["result"]
    assert [result[key] for key in ("N", "m1", "b1", "m2", "b2")] == ["1000", 2, 3, 3, 2]
    assert result["counts"] == [list(map(str, row)) for row in report.counts.tolist()]
    assert result["expected"] == report.expected
    assert (result["max_rel_dev"], result["mean_rel_dev"]) == report.deviation_stats()
    assert (result["gcd1_ok"], result["gcd2_ok"]) == report.gcd_ok
    # round-trips through json
    assert json.loads(json.dumps(payload)) == payload


def test_count_single_cell_selection(capsys):
    code, out, _ = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "1000", "--a1", "1", "--a2", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["selected"] == {"a1": 1, "a2": 0, "count": "182"}
    code, _, err = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "100", "--a1", "1",
    )
    assert code == 2
    assert "together" in err
    # the csv form holds the header and the selected cell's row only
    code, out, _ = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "1000", "--a1", "1", "--a2", "-2", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["a1,a2,count,rel_dev", "1,0,182,0.09200000000000008"]


def test_reports_deterministic_modulo_timestamp(capsys):
    argv = ["count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
            "--n", "500", "--format", "json"]
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_count_csv_is_rfc4180(capsys):
    code, out, _ = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "200", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a1", "a2", "count", "rel_dev"]
    assert len(rows) == 1 + 3 * 2
    assert sum(int(r[2]) for r in rows[1:]) == 200


def test_expsum_csv_columns(capsys):
    code, out, _ = invoke(
        capsys, "expsum", "--m1", "2", "--m2", "3", "--theta", "1/3",
        "--beta", "1/2", "--n", "100", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "re", "im", "modulus", "normalized"]
    assert rows[1][0] == "100"


@pytest.mark.parametrize("argv, header", [
    (("convergents", "--m", "2", "--K", "9"), ["i", "p_i", "q_i"]),
    (("count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2", "--n", "1000"),
     ["a1", "a2", "count", "rel_dev"]),
    (("count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2", "--n", "1000",
      "--a1", "1", "--a2", "-2"), ["a1", "a2", "count", "rel_dev"]),
    (("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--beta", "1/2",
      "--grid", "50,100,200"), ["N", "re", "im", "modulus", "normalized"]),
    (("decay", "--m", "2", "--gamma", "1/3", "--theta", "1/5", "--kmax", "12"),
     ["k", "q_k", "D_k"]),
    (("dft", "--m", "2", "--k", "5", "--v", "1", "--theta", "1/3"), ["l", "re", "im"]),
    (("scan", "--mode", "theorem", "--grid", "100,1000,5000,20000"), ["N", "err"]),
    (("scan", "--mode", "corollary", "--grid", "100,1000,5000,20000"), ["N", "err"]),
], ids=["convergents", "count", "count-cell", "expsum", "decay", "dft", "scan-theorem",
        "scan-corollary"])
def test_every_csv_cell_is_a_number(capsys, argv, header):
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == header
    assert len(rows) > 1 and all(len(row) == len(header) for row in rows)
    for cell in (cell for row in rows[1:] for cell in row):
        try:
            int(cell)
        except ValueError:
            float(cell)


def test_expsum_grid(capsys):
    code, out, _ = invoke(
        capsys, "expsum", "--m1", "2", "--m2", "3", "--theta", "1/3",
        "--beta", "1/2", "--grid", "50,100,200", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)["result"]["series"]
    assert [r["N"] for r in records] == [50, 100, 200]


def test_decimal_phase_reads_as_its_exact_rational(capsys):
    def json_run(*argv):
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        return re.sub(r'"generated_at": "[^"]*"', "", out), err

    for decimal, exact in [
        (("expsum", "--m1", "2", "--m2", "3", "--theta", "0.37", "--beta", "0.5", "--n", "100"),
         ("expsum", "--m1", "2", "--m2", "3", "--theta", "37/100", "--beta", "1/2", "--n", "100")),
        (("decay", "--m", "2", "--gamma", "0.5", "--theta", "0.3", "--kmax", "8"),
         ("decay", "--m", "2", "--gamma", "1/2", "--theta", "3/10", "--kmax", "8")),
        (("dft", "--m", "2", "--k", "4", "--v", "1", "--theta", "0.37"),
         ("dft", "--m", "2", "--k", "4", "--v", "1", "--theta", "37/100")),
        (("scan", "--theta", "0.25", "--beta", "1.5e-1", "--grid", "100,200,400,800"),
         ("scan", "--theta", "1/4", "--beta", "3/20", "--grid", "100,200,400,800")),
    ]:
        assert json_run(*decimal) == json_run(*exact)
    _, out, _ = invoke(capsys, "dft", "--m", "2", "--k", "4", "--v", "1", "--theta", "0.37",
                       "--format", "json")
    assert json.loads(out)["config"]["theta"] == "37/100"


@pytest.mark.parametrize("argv, option, value", [
    (("expsum", "--m1", "2", "--m2", "3", "--beta", "1/2", "--n", "100"), "--theta", "-1/4"),
    (("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--n", "100"), "--beta", "-1/2"),
    (("decay", "--m", "2", "--theta", "0", "--kmax", "6"), "--gamma", "-1/3"),
    (("scan", "--grid", "100,200,400,800"), "--theta", "-1e-1"),
], ids=["expsum-theta", "expsum-beta", "decay-gamma", "scan-theta-exponent"])
def test_negative_phase_after_a_space(capsys, argv, option, value):
    # argparse alone reads "-1/4" as an option and exits 2 with "expected one argument"
    from fractions import Fraction

    def json_run(*args):
        code, out, err = invoke(capsys, *args, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        del payload["generated_at"]
        return payload

    spaced = json_run(*argv, option, value)
    assert spaced == json_run(*argv, f"{option}={value}")
    assert spaced["config"][option[2:]] == str(Fraction(value))


def test_real_option_is_unrecognized(capsys):
    code, out, err = invoke(capsys, *EXPSUM, "--n", "10", "--real")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --real" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "1/0", "abc", "", "1e10000000"])
@pytest.mark.parametrize("argv, option", [
    (("expsum", "--m1", "2", "--m2", "3", "--beta", "1/2", "--n", "10"), "--theta"),
    (("scan", "--grid", "100,200,400,800"), "--beta"),
    (("decay", "--m", "2", "--theta", "0", "--kmax", "6"), "--gamma"),
], ids=["expsum-theta", "scan-beta", "decay-gamma"])
def test_malformed_phase_is_usage_error(capsys, argv, option, value):
    code, out, err = invoke(capsys, *argv, option, value)
    assert (code, out) == (2, "")
    assert f"argument {option}: expected a rational" in err and "Traceback" not in err


def test_usage_error_exit_2(capsys):
    assert invoke(capsys, "digits", "--m", "0", "--n", "1")[0] == 2
    assert invoke(capsys, "nonsense")[0] == 2


def test_budget_violation_names_cap(capsys, monkeypatch):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100")
    code, _, err = invoke(
        capsys, "decay", "--m", "2", "--gamma", "1/3", "--theta", "0",
        "--kmax", "12",
    )
    assert code == 2
    assert "single_decay index kmax*(kmax+m)" in err and "OSTROWSKI_BUDGET" in err


def test_budget_env_override_allows_run(capsys, monkeypatch):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100000")
    code, _, _ = invoke(
        capsys, "decay", "--m", "2", "--gamma", "1/3", "--theta", "0",
        "--kmax", "12", "--format", "json",
    )
    assert code == 0


def test_decay_warns_on_integer_m_gamma(capsys):
    code, _, err = invoke(
        capsys, "decay", "--m", "2", "--gamma", "1/2", "--theta", "0",
        "--kmax", "6",
    )
    assert code == 0
    assert "no decay" in err


def test_dft_text_output(capsys):
    code, out, _ = invoke(
        capsys, "dft", "--m", "2", "--k", "4", "--v", "1", "--theta", "1/3",
    )
    assert code == 0
    assert "reconstruction error" in out
    assert "parseval" in out


def test_scan_small_grid(capsys):
    code, out, _ = invoke(
        capsys, "scan", "--mode", "corollary", "--m1", "2", "--m2", "3",
        "--b1", "3", "--b2", "2", "--grid", "100,200,400,800",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "corollary"
    assert len(result["err"]) == 4


def test_scan_theorem_small_grid(capsys):
    code, out, _ = invoke(
        capsys, "scan", "--mode", "theorem", "--m1", "2", "--m2", "3",
        "--theta", "1/3", "--beta", "1/2", "--grid", "100,200,400,800",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hypothesis_ok"] is True
    assert len(result["series"]) == 4


def test_lemmas_quick(capsys):
    code, out, _ = invoke(
        capsys, "lemmas", "--trials", "20", "--H", "10", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    names = [c["name"] for c in payload["result"]["checks"]]
    assert names == ["fejer_identity", "weyl_van_der_corput", "min_norm_sum",
                     "schmidt_margin", "shift_mismatch_bound"]
    assert all(c["ok"] for c in payload["result"]["checks"])


def test_lemmas_takes_a_seed_of_2_to_the_64_or_more(capsys):
    def gap(seed):
        code, out, err = invoke(capsys, "lemmas", "--trials", "20", "--H", "10", "--seed", seed,
                                "--format", "json")
        assert code == 0 and "Traceback" not in err
        payload = json.loads(out)
        assert payload["seed"] == int(seed)
        return payload["result"]["checks"][0]["worst_scaled_gap"]

    assert gap("18446744073709551621") != gap("5")


def test_lemmas_shares_the_acceptance_battery(capsys):
    from ostrowski.acceptance import RANDOM_SEED, lemma_trials

    code, out, _ = invoke(capsys, "lemmas", "--format", "json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    worst, violations = lemma_trials(RANDOM_SEED, 1000)
    assert checks["fejer_identity"]["worst_scaled_gap"] == worst
    assert checks["weyl_van_der_corput"]["violations"] == violations == 0


def test_degenerate_grid_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "scan", "--mode", "theorem", "--grid", "10,20,30",
    )
    assert code == 2
    assert "usage error" in err and "grid" in err


@pytest.mark.parametrize("argv", [
    ("scan", "--grid", "100,50,200,400"),
    ("scan", "--grid", "0,10,20,30"),
    ("scan", "--grid", "100,100,200,400"),
    ("scan", "--mode", "corollary", "--grid", "1000,2000,3000,2500"),
    ("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--beta", "1/2",
     "--grid", "200,100"),
    ("scan", "--grid", ""),
    ("scan", "--grid", ","),
    ("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--beta", "1/2", "--grid", ""),
    ("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--beta", "1/2", "--grid", ","),
])
def test_bad_grid_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "Traceback" not in err
    # an empty grid breaks scan's 4-point rule before the ordering rule
    empty_scan = argv[0] == "scan" and not argv[-1].strip(",")
    assert ("at least 4 points" if empty_scan else "strictly increasing positive") in err


def test_verify_quick_end_to_end(capsys):
    # full acceptance lives in test_acceptance.py; this exercises the CLI glue
    code, out, _ = invoke(capsys, "verify", "--quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 9
    assert all(l.startswith("[PASS]") for l in lines)


def test_verify_json(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "verify", "--quick", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify" and payload["config"] == {"quick": True}
    criteria = payload["result"]["criteria"]
    assert [c["number"] for c in criteria] == list(range(1, 10))
    assert all(set(c) == {"number", "name", "ok", "detail", "elapsed"} for c in criteria)
    assert all(c["ok"] for c in criteria)
    from ostrowski import acceptance

    failed = acceptance.CriterionResult(5, "lemma checks", False, "broken", 0.5)
    monkeypatch.setattr(acceptance, "run_all", lambda quick, report: [failed])
    code, out, _ = invoke(capsys, "verify", "--format", "json")
    assert code == 1
    assert json.loads(out)["result"]["criteria"] == [
        {"number": 5, "name": "lemma checks", "ok": False, "detail": "broken", "elapsed": 0.5}]


@pytest.mark.parametrize("fmt, csv_calls, deviation_calls", [
    ("json", 0, 1), ("text", 0, 1), ("csv", 1, 1)])
def test_count_renders_only_the_requested_format(capsys, monkeypatch, fmt, csv_calls, deviation_calls):
    # cli._table builds the rows of every CSV report
    from ostrowski import cli
    from ostrowski.equidist import JointCountReport

    calls = {"_table": 0, "rel_dev": 0}
    for owner, name in ((cli, "_table"), (JointCountReport, "rel_dev")):
        method = getattr(owner, name)

        def spy(*args, method=method, name=name):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, spy)
    code, out, _ = invoke(capsys, "count", "--m1", "2", "--m2", "3", "--b1", "30", "--b2", "20",
                          "--n", "1000", "--format", fmt)
    assert code == 0 and out
    assert calls == {"_table": csv_calls, "rel_dev": deviation_calls}


@pytest.mark.parametrize("mode", ["theorem", "corollary"])
@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_scan_renders_only_the_requested_format(capsys, monkeypatch, mode, fmt):
    from ostrowski import cli

    calls = []
    fit_json = cli.fit_json
    monkeypatch.setattr(cli, "fit_json", lambda *args: calls.append(1) or fit_json(*args))
    code, out, _ = invoke(capsys, "scan", "--mode", mode, "--b1", "30", "--b2", "20",
                          "--grid", "100,1000,5000,20000", "--format", fmt)
    assert code == 0 and out
    assert len(calls) == (fmt == "json")


@pytest.mark.parametrize("fmt, iterations", [("json", 0), ("text", 0), ("csv", 2)])
def test_dft_renders_only_the_requested_format(capsys, monkeypatch, fmt, iterations):
    # only the csv form walks the Q coefficients: once for the re column, once for im
    from dataclasses import replace

    import numpy as np
    from ostrowski import cli

    calls = []

    class Counted(np.ndarray):
        def __iter__(self):
            calls.append(1)
            return super().__iter__()

    dft = cli.dft_window

    def counted(*args):
        spectrum = dft(*args)
        return replace(spectrum, coeffs=spectrum.coeffs.view(Counted))

    monkeypatch.setattr(cli, "dft_window", counted)
    code, out, _ = invoke(capsys, "dft", "--m", "2", "--k", "6", "--v", "2", "--theta", "1/3",
                          "--format", fmt)
    assert code == 0 and out
    assert len(calls) == iterations


def test_out_file(tmp_path, capsys):
    path = tmp_path / "digits.json"
    code, out, _ = invoke(
        capsys, "digits", "--m", "2", "--n", "10", "--format", "json",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["result"]["digits"] == "0,2,0,2"
    assert payload["result"]["S"] == 4


def test_joint_scan_budget_names_cap(capsys):
    code, _, err = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "100000000000",
    )
    assert code == 2
    assert "joint scan N" in err and "OSTROWSKI_BUDGET" in err


def test_joint_scan_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "20000000")
    code, out, _ = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "20000000", "--format", "json",
    )
    assert code == 0
    counts = json.loads(out)["result"]["counts"]
    assert sum(int(c) for row in counts for c in row) == 20_000_000


def test_lemmas_schmidt_pairs_budget_names_cap(capsys):
    # (2H+1)(H+1) pairs: H = 3000 asks for 18009001
    code, _, err = invoke(capsys, "lemmas", "--H", "3000")
    assert code == 2
    assert "schmidt_margin pairs (2H+1)(H+1)" in err and "18009001" in err


def test_lemmas_trials_budget_names_cap(capsys, monkeypatch):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100")
    code, _, err = invoke(capsys, "lemmas", "--trials", "101")
    assert code == 2
    assert "lemma_trials trials" in err and "OSTROWSKI_BUDGET" in err


def test_dft_any_v_in_small_memory(capsys):
    # the block comes from two index calls, not from enumerating v blocks
    tracemalloc.start()
    try:
        code, out, _ = invoke(capsys, "dft", "--m", "2", "--k", "4", "--v", "100000000",
                              "--theta", "1/3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "start=n_99999999=" in out
    assert peak < 1 << 20


def test_dft_start_past_int64(capsys):
    # the direct signal's greedy rows descend Python ints past 2^63
    code, out, _ = invoke(capsys, "dft", "--m", "2", "--k", "5", "--v", str(10**20),
                          "--theta", "1/3", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {
        "k": 5, "v": 10**20, "Q": 15, "start": "1392820323027550917397",
        "reconstruction_error": 4.965068306494546e-16, "parseval": 0.9999999999999997,
    }


def _coeff_pairs(m, k, v, theta):
    """The window's coefficients as the list form, [[re, im], ...] of Python floats."""
    from fractions import Fraction

    from ostrowski import make_alpha
    from ostrowski.expsum import dft_window

    spectrum = dft_window(make_alpha(m), k, v, Fraction(theta))
    return spectrum.coeffs.view(float).reshape(-1, 2).tolist()


def test_dft_json_coeffs_stream_the_list_form(capsys, monkeypatch):
    # slices of 7 rows straddle Q = 41: five whole slices and a part
    from ostrowski import cli

    monkeypatch.setattr(cli, "_JSON_ROWS", 7)
    code, out, _ = invoke(capsys, "dft", "--m", "2", "--k", "6", "--v", "1", "--theta", "1/3",
                          "--format", "json", "--coeffs")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["Q"] == 41
    assert payload["result"]["L"] == _coeff_pairs(2, 6, 1, "1/3")
    assert out == json.dumps(payload, indent=1) + "\n"


def test_dft_json_coeffs_in_slices_of_memory(tmp_path, capsys, monkeypatch):
    # Q = 10403: the list form's pairs take about 1.3 MB; written in slices
    # of _JSON_ROWS rows, the report's encoding holds a small part of that
    from ostrowski import cli

    emit, peaks = cli._emit, []

    def traced(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        emit(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(cli, "_emit", traced)
    tracemalloc.start()
    try:
        pairs = _coeff_pairs(100, 5, 1, "1/3")
        list_form = tracemalloc.get_traced_memory()[0]
        del pairs
        code, out, _ = invoke(capsys, "dft", "--m", "100", "--k", "5", "--v", "1",
                              "--theta", "1/3", "--format", "json", "--coeffs",
                              "--out", str(tmp_path / "dft.json"))
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "")
    assert len(json.loads((tmp_path / "dft.json").read_text())["result"]["L"]) == 10403
    assert peaks[0] < list_form / 4


@pytest.mark.parametrize("argv, cap", [
    (("count", "--m1", "2", "--m2", "3", "--n", "100", "--b1", "100000", "--b2", "100000"),
     "joint counts cells b1*b2"),
    # denominators past W_i = 1001, 1000 key n by P1*P2 = 1001*1000 bins
    (("expsum", "--m1", "1000", "--m2", "999", "--n", "1000", "--theta", "1/999983",
      "--beta", "1/999979"), "joint histogram bins P1*P2"),
])
def test_joint_cells_and_bins_budget_names_cap(capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100000")
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert cap in err and "OSTROWSKI_BUDGET" in err


def test_joint_residue_rows_budget_names_cap(capsys, monkeypatch):
    # N, the 6 bins and the 6 cells fit, but the worst-case residue rows,
    # 3*40545 + 2*60605 entries for m = (2, 3), do not
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100000")
    code, out, err = invoke(capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
                            "--n", "1000")
    assert code == 2
    assert out == ""
    assert "joint residue rows P1*qK1+P2*qK2" in err and "242845" in err
    assert "OSTROWSKI_BUDGET" in err


def test_decay_reports_left_out_rounding_zeros(capsys):
    code, out, _ = invoke(capsys, "decay", "--m", "5", "--gamma", "2/5", "--theta", "0",
                          "--kmax", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["left_out"] == [9]


@pytest.mark.parametrize("argv, cap", [
    (("convergents", "--m", "2", "--K", "100000000"), "convergents index K*(K+m)"),
    (("decay", "--m", "2", "--gamma", "1/3", "--theta", "0", "--kmax", "100000000"),
     "single_decay index kmax*(kmax+m)"),
    (("dft", "--m", "2", "--k", "100000000", "--v", "1", "--theta", "1/3"),
     "dft_window index k^2"),
    # K^2 = 2.25e6 is within the default cap, K*(K+m) = 1.5e9 is not
    (("convergents", "--m", "1000000", "--K", "1500"), "convergents index K*(K+m)"),
])
def test_convergent_index_budget_names_cap(capsys, argv, cap):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert cap in err and "OSTROWSKI_BUDGET" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_integer_past_the_str_digit_limit_is_exit_2(capsys, monkeypatch, fmt):
    # q_3000 of m = 1000 has about 4500 digits, past Python's default 4300
    monkeypatch.setenv("OSTROWSKI_BUDGET", str(10**8))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = invoke(capsys, "convergents", "--m", "1000", "--K", "3000",
                                "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert "limit error" in err and "4300 digits" in err and "PYTHONINTMAXSTRDIGITS" in err


@pytest.mark.parametrize("k, v", [("1", "1"), ("4", "0")])
def test_dft_small_k_or_v_is_usage_error(capsys, k, v):
    code, out, err = invoke(capsys, "dft", "--m", "2", "--k", k, "--v", v, "--theta", "1/3")
    assert code == 2
    assert out == ""
    assert "k must be >= 2" in err if k == "1" else "positive integer" in err


def test_decimal_past_float_range_is_exact(capsys):
    # 1e400 overflows a float but is the integer 10^400, so m*gamma is an integer
    code, out, err = invoke(capsys, "decay", "--m", "2", "--gamma", "1e400", "--theta", "0",
                            "--kmax", "6")
    assert code == 0
    assert out.splitlines()[0] == "k=2 q_k=3 D_k=1.00000000"
    assert err == f"warning: m*gamma = 2*{10**400} is an integer; no decay is guaranteed\n"


def test_negative_n_is_usage_error(capsys):
    code, _, err = invoke(capsys, "digits", "--m", "2", "--n", "-1")
    assert code == 2
    assert "usage error" in err and "nonnegative" in err


def test_malformed_budget_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "abc")
    code, _, err = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2", "--n", "10",
    )
    assert code == 2
    assert "usage error" in err and "OSTROWSKI_BUDGET" in err


def test_kmin_above_kmax_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "decay", "--m", "2", "--gamma", "1/3", "--theta", "0",
        "--kmin", "9", "--kmax", "6",
    )
    assert code == 2
    assert "usage error" in err and "kmin" in err


def test_json_out_is_streamed(tmp_path, capsys):
    # 90 000 cells: one json.dumps string and its chunk list peaked at 12.9 MB
    # (tracemalloc); streamed into the file the peak is about 6.1 MB
    argv = ("count", "--m1", "2", "--m2", "3", "--b1", "300", "--b2", "300", "--n", "1000",
            "--format", "json")
    path = tmp_path / "counts.json"
    tracemalloc.start()
    try:
        code, out, _ = invoke(capsys, *argv, "--out", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "")
    assert peak < 9 << 20
    _, out, _ = invoke(capsys, *argv)
    written = json.loads(path.read_text())
    assert path.read_text().endswith("}\n")
    written.pop("generated_at")
    shown = json.loads(out)
    shown.pop("generated_at")
    assert written == shown


def test_count_json_shares_one_str_per_distinct_count(p2, p3):
    # 10^6 cells at N = 1000 hold a few distinct counts: one str per cell
    # traced 56.1 MB, one per distinct count about 15.3 MB
    from ostrowski import count_fold, joint_folds
    from ostrowski.cli import count_json

    ((report,),) = joint_folds((1000,), (p2, p3), [count_fold((p2, p3), (1000, 1000))])
    tracemalloc.start()
    try:
        result = count_json(report, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["counts"] == [list(map(str, row)) for row in report.counts.tolist()]
    assert peak < 32 << 20


@pytest.mark.parametrize("existing", [False, True])
def test_failed_json_out_leaves_no_file(tmp_path, capsys, monkeypatch, existing):
    from dataclasses import replace

    from ostrowski import cli

    decay = cli.single_decay
    monkeypatch.setattr(cli, "single_decay",
                        lambda *a, **kw: replace(decay(*a, **kw), slope=float("nan")))
    path = tmp_path / "decay.json"
    if existing:  # opening --out truncates it, so the run removes it on failure
        path.write_text("an older report\n")
    code, out, err = invoke(capsys, "decay", "--m", "2", "--gamma", "1/3", "--theta", "0",
                            "--kmax", "6", "--format", "json", "--out", str(path))
    assert (code, out) == (1, "")
    assert "invariant failure" in err
    assert not path.exists()


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "digits.json"
    code, out, err = invoke(
        capsys, "digits", "--m", "2", "--n", "10", "--out", str(path),
    )
    assert code == 2
    assert out == ""
    assert "usage error" in err and "cannot write" in err


@pytest.mark.parametrize("argv", [
    ("count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2", "--n", "1000"),
    ("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--beta", "1/2", "--n", "100"),
    ("scan", "--grid", "100,200,400,800"),
])
def test_threads_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--threads", "4")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --threads 4" in err


def test_negative_seed_is_usage_error(capsys):
    code, out, err = invoke(capsys, "lemmas", "--seed", "-1", "--trials", "5")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "seed" in err


def test_regen_baseline_writes_the_recomputed_pins(tmp_path, capsys, monkeypatch):
    from ostrowski import acceptance

    shipped_path = acceptance.baseline_path()
    shipped_text = shipped_path.read_text()
    path = tmp_path / "baseline.json"
    monkeypatch.setattr(acceptance, "baseline_path", lambda: path)
    code, out, err = invoke(capsys, "regen-baseline")
    assert (code, out, err) == (0, f"baseline regenerated at {path}\n", "")
    assert path.read_text() == json.dumps(acceptance.compute_baseline(), indent=1) + "\n"
    written, shipped = json.loads(path.read_text()), json.loads(shipped_text)
    assert list(written) == list(shipped) == ["theorem", "corollary", "decay"]
    for section in written:
        assert acceptance._first_difference(written[section], shipped[section], section) is None
    assert shipped_path.read_text() == shipped_text


@pytest.mark.parametrize("extra", [
    ("--grid", "1,2,3,4"),
    ("--m1", "2"),
    ("--mode", "theorem", "--real"),
    ("--b2", "2", "--theta", "1/3", "--beta", "1/2"),
    ("--format", "json"),
], ids=["grid", "default-m1", "mode-real", "phases-b2", "format"])
def test_regen_baseline_refuses_scan_options(tmp_path, capsys, monkeypatch, extra):
    # regen-baseline takes no option at all, so the parser refuses each one
    from ostrowski import acceptance

    shipped_path = acceptance.baseline_path()
    shipped_text = shipped_path.read_text()
    path = tmp_path / "baseline.json"
    monkeypatch.setattr(acceptance, "baseline_path", lambda: path)
    code, out, err = invoke(capsys, "regen-baseline", *extra)
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")
    assert not path.exists()
    assert shipped_path.read_text() == shipped_text


def test_unwritable_baseline_is_usage_error(tmp_path, capsys, monkeypatch):
    from ostrowski import acceptance

    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(acceptance, "baseline_path", lambda: blocker / "data" / "baseline.json")
    code, out, err = invoke(capsys, "regen-baseline")
    assert code == 2
    assert out == ""
    assert "usage error: cannot write baseline" in err and str(blocker) in err


EXPSUM = ("expsum", "--m1", "2", "--m2", "3", "--theta", "1/3", "--beta", "1/2")


@pytest.mark.parametrize("extra, message", [
    (("--n", "10", "--grid", "5,10"), "argument --grid: not allowed with argument --n"),
    ((), "one of the arguments --n --grid is required"),
], ids=["both", "neither"])
def test_expsum_takes_exactly_one_of_n_and_grid(capsys, extra, message):
    code, out, err = invoke(capsys, *EXPSUM, *extra)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ("decay", "--m", "2", "--gamma", "1/3", "--theta", "0", "--kmin", "3", "--kmax", "3"),
    ("decay", "--m", "5", "--gamma", "2/5", "--theta", "0", "--kmin", "9", "--kmax", "10"),
], ids=["one-k", "one-k-left-in-fit"])
def test_decay_without_two_fitted_k_has_no_slope(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert "log-linear slope n/a" in out.splitlines()
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["slope"] is None


def test_nan_in_a_json_report_exits_1(capsys, monkeypatch):
    from dataclasses import replace

    from ostrowski import cli

    decay = cli.single_decay
    monkeypatch.setattr(cli, "single_decay",
                        lambda *a, **kw: replace(decay(*a, **kw), slope=float("nan")))
    code, out, err = invoke(capsys, "decay", "--m", "2", "--gamma", "1/3", "--theta", "0",
                            "--kmax", "6", "--format", "json")
    assert code == 1
    assert out == ""
    assert "invariant failure" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    pytest.param(("digits", "--m", "2", "--n", "12345"), id="digits"),
    pytest.param(("convergents", "--m", "3", "--K", "8"), id="convergents"),
    pytest.param(("count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2", "--n", "1000"),
                 id="count"),
    pytest.param((*EXPSUM, "--grid", "50,100,200"), id="expsum"),
    pytest.param(("decay", "--m", "2", "--gamma", "1/3", "--theta", "3/10", "--kmin", "6",
                  "--kmax", "20"), id="decay"),
    pytest.param(("decay", "--m", "2", "--gamma", "1/3", "--theta", "0", "--kmin", "3",
                  "--kmax", "3"), id="decay-one-k"),
    pytest.param(("dft", "--m", "2", "--k", "4", "--v", "1", "--theta", "1/3", "--coeffs"),
                 id="dft-coeffs"),
    pytest.param(("scan", "--grid", "100,200,400,800"), id="scan-theorem"),
    pytest.param(("scan", "--mode", "corollary", "--grid", "100,200,400,800"),
                 id="scan-corollary"),
    pytest.param(("lemmas", "--trials", "20", "--H", "10"), id="lemmas"),
    pytest.param(("verify", "--quick"), id="verify-quick"),
])
def test_json_output_is_strict(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["command"] == argv[0]
