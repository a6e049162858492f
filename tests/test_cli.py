"""Command-line surface: outputs, formats, determinism, exit codes."""

import csv
import io
import json
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
    from ostrowski import joint_counts

    code, out, _ = invoke(
        capsys, "count", "--m1", "2", "--m2", "3", "--b1", "3", "--b2", "2",
        "--n", "1000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    want = joint_counts(1000, p2, 3, p3, 2).to_json_dict()
    assert payload["result"] == want
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


def test_expsum_grid(capsys):
    code, out, _ = invoke(
        capsys, "expsum", "--m1", "2", "--m2", "3", "--theta", "1/3",
        "--beta", "1/2", "--grid", "50,100,200", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)["result"]["series"]
    assert [r["N"] for r in records] == [50, 100, 200]


def test_decimal_theta_rejected_without_real(capsys):
    code, _, err = invoke(
        capsys, "expsum", "--m1", "2", "--m2", "3", "--theta", "0.37",
        "--beta", "1/2", "--n", "10",
    )
    assert code == 2
    assert "rational" in err


def test_real_escape_hatch_warns(capsys):
    code, out, err = invoke(
        capsys, "expsum", "--m1", "2", "--m2", "3", "--theta", "0.37",
        "--beta", "0.5", "--n", "10", "--real",
    )
    assert code == 0
    assert "unchecked" in err


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
])
def test_bad_grid_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "strictly increasing positive" in err


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
    from ostrowski.equidist import JointCountReport

    calls = {"csv_rows": 0, "rel_dev": 0}
    for name in calls:
        method = getattr(JointCountReport, name)

        def spy(self, method=method, name=name):
            calls[name] += 1
            return method(self)

        monkeypatch.setattr(JointCountReport, name, spy)
    code, out, _ = invoke(capsys, "count", "--m1", "2", "--m2", "3", "--b1", "30", "--b2", "20",
                          "--n", "1000", "--format", fmt)
    assert code == 0 and out
    assert calls == {"csv_rows": csv_calls, "rel_dev": deviation_calls}


@pytest.mark.parametrize("mode", ["theorem", "corollary"])
@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_scan_renders_only_the_requested_format(capsys, monkeypatch, mode, fmt):
    from ostrowski.equidist import DeltaFit

    calls = []
    to_json_dict = DeltaFit.to_json_dict
    monkeypatch.setattr(DeltaFit, "to_json_dict", lambda self: calls.append(1) or to_json_dict(self))
    code, out, _ = invoke(capsys, "scan", "--mode", mode, "--b1", "30", "--b2", "20",
                          "--grid", "100,1000,5000,20000", "--format", fmt)
    assert code == 0 and out
    assert len(calls) == (fmt == "json")


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


@pytest.mark.parametrize("argv, cap", [
    (("count", "--m1", "2", "--m2", "3", "--n", "100", "--b1", "100000", "--b2", "100000"),
     "joint counts cells b1*b2"),
    (("expsum", "--m1", "1000", "--m2", "999", "--n", "1000", "--real", "--theta", "0.1",
      "--beta", "0.2"), "joint histogram bins P1*P2"),
])
def test_joint_cells_and_bins_budget_names_cap(capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("OSTROWSKI_BUDGET", "100000")
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert cap in err and "OSTROWSKI_BUDGET" in err


def test_decay_reports_left_out_rounding_zeros(capsys):
    code, out, _ = invoke(capsys, "decay", "--m", "5", "--gamma", "2/5", "--theta", "0",
                          "--kmax", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["left_out"] == [9]


@pytest.mark.parametrize("argv, cap", [
    (("convergents", "--m", "2", "--K", "100000000"), "convergents index K^2"),
    (("decay", "--m", "2", "--gamma", "1/3", "--theta", "0", "--kmax", "100000000"),
     "single_decay index kmax*(kmax+m)"),
    (("dft", "--m", "2", "--k", "100000000", "--v", "1", "--theta", "1/3"),
     "dft_window index k^2"),
])
def test_convergent_index_budget_names_cap(capsys, argv, cap):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert cap in err and "OSTROWSKI_BUDGET" in err


@pytest.mark.parametrize("k, v", [("1", "1"), ("4", "0")])
def test_dft_small_k_or_v_is_usage_error(capsys, k, v):
    code, out, err = invoke(capsys, "dft", "--m", "2", "--k", k, "--v", v, "--theta", "1/3")
    assert code == 2
    assert out == ""
    assert "--k must be >= 2" in err if k == "1" else "positive integer" in err


def test_real_overflow_is_usage_error(capsys):
    code, out, err = invoke(capsys, "decay", "--m", "2", "--gamma", "1e400", "--theta", "0",
                            "--kmax", "6", "--real")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--gamma" in err


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
    assert "usage error" in err and "--kmin" in err


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
    assert "usage error" in err and "--seed" in err


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
