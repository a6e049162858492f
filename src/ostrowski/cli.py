"""Command-line surface for the numeration experiments.

Subcommands: digits, convergents, count, expsum, decay, dft, scan, lemmas,
verify.  All numeric output is deterministic for a fixed configuration and
seed; JSON reports embed the configuration, the seed (when randomness is
involved) and a timestamp (the one field excluded from reproducibility
comparisons).  Large integers are serialized as decimal strings.

theta, beta and gamma are accepted as exact rationals "p/q" so that
hypothesis checks such as "m*beta is not an integer" are exact; --real
switches those options to plain floats and prints a warning that the
hypotheses go unchecked.  Exit codes: 0 success, 1 invariant or assertion
failure, 2 usage or budget error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import acceptance
from .budget import BudgetError, BudgetSettingError
from .cf import convergents, make_alpha
from .digits import digits_of
from .equidist import (
    delta_scan_corollary,
    delta_scan_theorem,
    joint_counts,
    joint_exp_series,
    mismatch_sweep,
)
from .expsum import (
    dft_window,
    min_norm_sum,
    reconstruction_error,
    schmidt_margin,
    single_decay,
)

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 1/3 or 2, got {text!r} "
            "(pass --real to accept decimals with unchecked hypotheses)"
        )
    return Fraction(text)


def parse_grid(text: str) -> list[int]:
    try:
        grid = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: need strictly increasing positive integers")
    return grid


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _emit(args, payload, text_lines, csv_rows=None) -> None:
    """Write the requested format.  Each form may be given as a callable
    that builds it, so that only the requested one is built."""
    fmt = getattr(args, "format", "text")
    form = {"json": payload, "csv": csv_rows}.get(fmt, text_lines)
    form = form() if callable(form) else form
    if fmt == "json":
        body = json.dumps(form, indent=1, allow_nan=False) + "\n"
    elif fmt == "csv":
        if form is None:
            raise ValueError("this subcommand has no csv form")
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n").writerows(form)
        body = buf.getvalue()
    else:
        body = "\n".join(form) + "\n"
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(body)


def _envelope(command: str, config: dict, result: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }


def _maybe_real(args, name: str) -> Fraction | float:
    value = getattr(args, name)
    if getattr(args, "real", False):
        print(f"warning: --real given, {name}={value} taken as a float; "
              "integrality hypotheses are unchecked", file=sys.stderr)
        try:
            return float(Fraction(str(value)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"bad --{name} value {value!r}: {exc}") from None
    return value


# -- subcommand handlers -------------------------------------------------------


def cmd_digits(args) -> int:
    if args.n < 0:
        raise argparse.ArgumentTypeError(f"--n must be nonnegative, got {args.n}")
    params = make_alpha(args.m)
    ds = digits_of(args.n, params)
    payload = _envelope("digits", {"m": args.m, "n": str(args.n)}, {
        "digits": ds.serialize(),
        "S": ds.digit_sum(),
    })
    _emit(args, payload, [ds.serialize(), f"S={ds.digit_sum()}"])
    return 0


def cmd_convergents(args) -> int:
    table = convergents(make_alpha(args.m), args.K)
    payload = _envelope("convergents", {"m": args.m, "K": args.K}, {
        "q": [str(q) for q in table.q],
        "p": [str(p) for p in table.p],
    })
    rows = [["i", "p_i", "q_i"]] + [
        [str(i), str(p), str(q)] for i, (p, q) in enumerate(zip(table.p, table.q))
    ]
    _emit(args, payload, [
        "q: " + " ".join(str(q) for q in table.q),
        "p: " + " ".join(str(p) for p in table.p),
    ], rows)
    return 0


def cmd_count(args) -> int:
    p1, p2 = make_alpha(args.m1), make_alpha(args.m2)
    report = joint_counts(args.n, p1, args.b1, p2, args.b2)
    config = {"m1": args.m1, "b1": args.b1, "m2": args.m2, "b2": args.b2, "n": str(args.n)}
    selected = None
    if args.a1 is not None or args.a2 is not None:
        if args.a1 is None or args.a2 is None:
            raise argparse.ArgumentTypeError("--a1 and --a2 must be given together")
        a1, a2 = args.a1 % args.b1, args.a2 % args.b2
        config["a1"], config["a2"] = args.a1, args.a2
        selected = {"a1": a1, "a2": a2, "count": str(report.counts[a1, a2])}

    def payload() -> dict:
        result = report.to_json_dict()
        if selected:
            result["selected"] = selected
        return _envelope("count", config, result)

    def lines() -> list[str]:
        out = [f"N={report.N} expected per cell {report.expected:.3f}"]
        if selected:
            out.append(f"count(S1={selected['a1']} mod {args.b1}, "
                       f"S2={selected['a2']} mod {args.b2}) = {selected['count']}")
        out += [f"a1={a1}: " + " ".join(map(str, row))
                for a1, row in enumerate(report.counts.tolist())]
        worst, mean = report.deviation_stats()
        out.append(f"max_rel_dev={worst:.6f} mean_rel_dev={mean:.6f}")
        out.append(f"gcd(b1,m1)=1: {report.gcd1_ok}; gcd(b2,m2)=1: {report.gcd2_ok}")
        return out

    _emit(args, payload, lines, report.csv_rows)
    return 0


def cmd_expsum(args) -> int:
    p1, p2 = make_alpha(args.m1), make_alpha(args.m2)
    theta = _maybe_real(args, "theta")
    beta = _maybe_real(args, "beta")
    grid = args.grid or [args.n]
    series = joint_exp_series(grid, theta, beta, p1, p2)
    config = {"m1": args.m1, "m2": args.m2, "theta": str(args.theta),
              "beta": str(args.beta), "grid": [str(n) for n in grid]}
    payload = _envelope("expsum", config, {"series": series.json_records()})
    lines = [
        f"N={n}: S={s.real:+.9f}{s.imag:+.9f}i |S|/N={abs(s) / n:.9f}"
        for n, s in zip(series.grid, series.values)
    ]
    _emit(args, payload, lines, series.csv_rows())
    return 0


def cmd_decay(args) -> int:
    if not 2 <= args.kmin <= args.kmax:
        raise argparse.ArgumentTypeError(
            f"need 2 <= --kmin <= --kmax, got --kmin {args.kmin} --kmax {args.kmax}")
    params = make_alpha(args.m)
    gamma = _maybe_real(args, "gamma")
    theta = _maybe_real(args, "theta")
    series = single_decay(params, gamma, theta, kmax=args.kmax, kmin=args.kmin)
    if not series.hypothesis_ok:
        print(f"warning: m*gamma = {args.m}*{args.gamma} is an integer; "
              "no decay is guaranteed", file=sys.stderr)
    config = {"m": args.m, "gamma": str(args.gamma), "theta": str(args.theta),
              "kmin": args.kmin, "kmax": args.kmax}
    payload = _envelope("decay", config, {
        "ks": list(series.ks),
        "q": [str(q) for q in series.qks],
        "D": list(series.values),
        "slope": series.slope,
        "left_out": list(series.left_out),
        "hypothesis_ok": series.hypothesis_ok,
    })
    lines = [f"k={k} q_k={q} D_k={v:.8f}" for k, q, v in
             zip(series.ks, series.qks, series.values)]
    lines.append(f"log-linear slope {'n/a' if series.slope is None else f'{series.slope:.5f}'}")
    if series.left_out:
        lines.append("left out of the fit, at or below the rounding floor "
                     "4*k*eps*max(D_{k-1}, D_{k-2}): k = "
                     + ", ".join(map(str, series.left_out)))
    _emit(args, payload, lines, series.csv_rows())
    return 0


def cmd_dft(args) -> int:
    if args.k < 2:
        raise argparse.ArgumentTypeError(f"--k must be >= 2, got {args.k}")
    params = make_alpha(args.m)
    theta = _maybe_real(args, "theta")
    spectrum = dft_window(params, args.k, args.v, theta)
    err = reconstruction_error(spectrum, extended=True)
    parseval = spectrum.parseval_sum()
    result = {
        "k": args.k, "v": args.v, "Q": spectrum.Q, "start": str(spectrum.start),
        "reconstruction_error": err, "parseval": parseval,
    }
    if args.coeffs:
        result["L"] = [[z.real, z.imag] for z in spectrum.coeffs]
    config = {"m": args.m, "k": args.k, "v": args.v, "theta": str(args.theta)}
    payload = _envelope("dft", config, result)
    rows = [["l", "re", "im"]] + [
        [str(l), repr(z.real), repr(z.imag)] for l, z in enumerate(spectrum.coeffs)
    ]
    _emit(args, payload, [
        f"Q(v)={spectrum.Q} start=n_{args.v - 1}={spectrum.start}",
        f"reconstruction error (extended range) {err:.3e}",
        f"parseval sum {parseval:.12f}",
    ], rows)
    return 0


def cmd_scan(args) -> int:
    if args.regen_baseline:
        data = acceptance.compute_baseline()
        path = acceptance.write_baseline(data)
        print(f"baseline regenerated at {path}")
        return 0
    p1, p2 = make_alpha(args.m1), make_alpha(args.m2)
    grid = args.grid or list(acceptance.BASELINE_GRID)
    if len(grid) < 4:
        raise argparse.ArgumentTypeError(f"--grid needs at least 4 points, got {len(grid)}")
    if args.mode == "theorem":
        theta = _maybe_real(args, "theta")
        beta = _maybe_real(args, "beta")
        fit = delta_scan_theorem(p1, p2, theta, beta, grid)
        config = {"mode": "theorem", "m1": args.m1, "m2": args.m2,
                  "theta": str(args.theta), "beta": str(args.beta),
                  "grid": [str(n) for n in grid]}
    else:
        fit = delta_scan_corollary(p1, args.b1, p2, args.b2, grid)
        config = {"mode": "corollary", "m1": args.m1, "b1": args.b1,
                  "m2": args.m2, "b2": args.b2, "grid": [str(n) for n in grid]}
    if not fit.hypothesis_ok:
        print("warning: scan hypothesis flags are not satisfied; "
              "decay is not guaranteed", file=sys.stderr)
    delta = "n/a" if fit.delta_hat is None else f"{fit.delta_hat:.5f}"
    lines = [f"N={n}: err={e:.9f}" for n, e in zip(fit.grid, fit.err)]
    lines.append(f"delta_hat {delta} (residual "
                 f"{'n/a' if fit.residual is None else f'{fit.residual:.4f}'})")
    _emit(args, lambda: _envelope("scan", config, fit.to_json_dict()), lines, fit.csv_rows)
    return 0


def cmd_lemmas(args) -> int:
    if args.seed < 0:
        raise argparse.ArgumentTypeError(f"--seed must be nonnegative, got {args.seed}")
    p2, p3 = make_alpha(2), make_alpha(3)
    worst_fejer, violations = acceptance.lemma_trials(args.seed, args.trials)
    checks: list[dict] = [
        {"name": "fejer_identity", "trials": args.trials,
         "worst_scaled_gap": worst_fejer, "ok": worst_fejer <= 1e-8},
        {"name": "weyl_van_der_corput", "trials": args.trials,
         "violations": violations, "ok": violations == 0},
    ]
    mn = min_norm_sum(p2, 0.0, (1, 1000), 1e4)
    checks.append({"name": "min_norm_sum", "lhs": mn.lhs,
                   "sqrt_term": mn.sqrt_term, "log_term": mn.log_term,
                   "ratio": mn.ratio, "ok": True})
    margin = schmidt_margin(p2, p3, args.H)
    checks.append({"name": "schmidt_margin", "H": args.H, "margin": margin,
                   "ok": margin > 0})
    records = mismatch_sweep(p2, (1_000, 10_000), range(3, 8), range(1, 11))
    bad = sum(1 for r in records if not r.ok)
    checks.append({"name": "shift_mismatch_bound", "records": len(records),
                   "violations": bad, "ok": bad == 0})
    config = {"seed": args.seed, "trials": args.trials, "H": args.H}
    payload = _envelope("lemmas", config, {"checks": checks}, seed=args.seed)
    lines = []
    all_ok = True
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        extras = {k: v for k, v in c.items() if k not in ("name", "ok")}
        lines.append(f"[{status}] {c['name']}: {extras}")
        all_ok = all_ok and c["ok"]
    _emit(args, payload, lines)
    return 0 if all_ok else 1


def cmd_verify(args) -> int:
    as_json = args.format == "json"
    results = acceptance.run_all(quick=args.quick, report=(lambda line: None) if as_json else print)
    if as_json:
        criteria = [dataclasses.asdict(r) for r in results]
        _emit(args, _envelope("verify", {"quick": args.quick}, {"criteria": criteria}), [])
    return 0 if all(r.ok for r in results) else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostrowski",
        description="Digit sums in the numeration systems of [0; 1,m,1,m,...]: "
                    "expansions, exponential sums, joint equidistribution experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_ok=True):
        fmts = ["text", "json"] + (["csv"] if csv_ok else [])
        p.add_argument("--format", choices=fmts, default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("digits", help="digit expansion and digit sum of one n")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, csv_ok=False)
    p.set_defaults(func=cmd_digits)

    p = sub.add_parser("convergents", help="convergent table p_i/q_i up to index K")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--K", type=_positive_int, required=True)
    common(p)
    p.set_defaults(func=cmd_convergents)

    p = sub.add_parser("count", help="joint residue counts of two digit sums")
    p.add_argument("--m1", type=_positive_int, required=True)
    p.add_argument("--m2", type=_positive_int, required=True)
    p.add_argument("--b1", type=_positive_int, required=True)
    p.add_argument("--b2", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a1", type=int, help="with --a2, report this residue pair's cell")
    p.add_argument("--a2", type=int)
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("expsum", help="joint exponential sum along N or an N grid")
    p.add_argument("--m1", type=_positive_int, required=True)
    p.add_argument("--m2", type=_positive_int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--beta", required=True)
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--n", type=_positive_int)
    span.add_argument("--grid", type=parse_grid)
    p.add_argument("--real", action="store_true",
                   help="accept theta/beta as decimals (hypotheses unchecked)")
    common(p)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("decay", help="normalized window sums D_k and their decay rate")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--kmax", type=_positive_int, required=True)
    p.add_argument("--kmin", type=_positive_int, default=2)
    p.add_argument("--real", action="store_true")
    common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("dft", help="window DFT coefficients and reconstruction check")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--v", type=_positive_int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--coeffs", action="store_true", help="include coefficients in JSON")
    p.add_argument("--real", action="store_true")
    common(p)
    p.set_defaults(func=cmd_dft)

    p = sub.add_parser("scan", help="error-exponent fit along a log-spaced N grid")
    p.add_argument("--mode", choices=["theorem", "corollary"], default="theorem")
    p.add_argument("--m1", type=_positive_int, default=2)
    p.add_argument("--m2", type=_positive_int, default=3)
    p.add_argument("--theta", type=str, default="1/3")
    p.add_argument("--beta", type=str, default="1/2")
    p.add_argument("--b1", type=_positive_int, default=3)
    p.add_argument("--b2", type=_positive_int, default=2)
    p.add_argument("--grid", type=parse_grid)
    p.add_argument("--real", action="store_true")
    p.add_argument("--regen-baseline", action="store_true",
                   help="recompute and overwrite the pinned baseline file")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("lemmas", help="randomized numeric checks of the classical inequalities")
    p.add_argument("--seed", type=int, default=acceptance.RANDOM_SEED)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--H", type=_positive_int, default=100)
    common(p, csv_ok=False)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("verify", help="run the acceptance suite (one line per criterion)")
    p.add_argument("--quick", action="store_true",
                   help="shrink the n-ranges of the enumeration criteria")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if not getattr(args, "real", False):
            for name in ("theta", "beta", "gamma"):
                if isinstance(getattr(args, name, None), str):
                    setattr(args, name, parse_rational(getattr(args, name)))
        return args.func(args)
    except (argparse.ArgumentTypeError, BudgetSettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
