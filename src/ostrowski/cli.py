"""Command-line surface for the numeration experiments.

Subcommands: digits, convergents, count, expsum, decay, dft, scan, lemmas,
verify, regen-baseline.  All numeric output is deterministic for a fixed
configuration and seed; JSON reports embed the configuration, the seed
(when randomness is involved) and a timestamp (the one field excluded from
reproducibility comparisons).  Large integers are serialized as decimal
strings.

theta, beta and gamma are read as exact rationals ("1/3", "2", "0.37" is
37/100), so that hypothesis checks such as "m*beta is not an integer" are
exact.  Exit codes: 0 success, 1 invariant or assertion failure, 2 usage or
budget error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator

from . import acceptance
from .budget import BudgetError, UsageError
from .cf import convergents, make_alpha
from .digits import digits_of
# scan calls delta_scan_theorem and delta_scan_corollary: the benchmark's tracer wraps both
from .equidist import (
    DeltaFit,
    ExpSumSeries,
    JointCountReport,
    count_fold,
    delta_scan_corollary,
    delta_scan_theorem,
    joint_exp_series,
    joint_folds,
    mismatch_sweep,
)
from .expsum import (
    dft_window,
    min_norm_sum,
    reconstruction_error,
    schmidt_margin,
    single_decay,
)


def parse_rational(text: str) -> Fraction:
    """Fraction(text).  Fraction builds 10**exponent exactly (1e10000000
    takes seconds), so a decimal exponent is first held to 4300, Python's
    default int/str digit limit."""
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > 4300:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 1/3, 2 or 0.37 (exponent at most 4300), got {text!r}"
        ) from None


def parse_grid(text: str) -> list[int]:
    try:
        grid = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    return grid


def _join_negative_phases(argv: list[str]) -> list[str]:
    """Join "--theta -1/4" into "--theta=-1/4" (also --beta, --gamma): argparse
    reads -1/4 as an option, since its only negative numbers are -<digits>[.<digits>]."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--theta", "--beta", "--gamma") and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _emit(args, payload, text_lines, csv_rows=None) -> None:
    """Write the requested format.  Each form is a callable that builds it,
    so that only the requested one is built; JSON and CSV are encoded as
    they are written.  stdout gets a report once it is whole, and an --out
    file whose run fails midway is removed."""
    fmt = getattr(args, "format", "text")
    form = {"json": payload, "csv": csv_rows}.get(fmt, text_lines)()

    def write(fh) -> None:
        if fmt == "json":
            json.dump(form, fh, indent=1, allow_nan=False)
            fh.write("\n")
        elif fmt == "csv":
            csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n").writerows(form)
        else:
            fh.write("\n".join(form) + "\n")

    out = getattr(args, "out", None)
    if not out:
        write(buf := io.StringIO())
        sys.stdout.write(buf.getvalue())
        return
    try:
        with open(out, "w") as fh:
            try:
                write(fh)
            except BaseException:
                fh.close()
                if os.path.isfile(out):
                    os.unlink(out)
                raise
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write --out {out}: {exc.strerror}") from None


def _envelope(command: str, config: dict, result: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }


def _table(header: tuple[str, ...], *columns: Iterable) -> Iterator[tuple[str, ...]]:
    """Every CSV report: the header, then a row per position of the columns,
    streamed so that no list of rows is built.  A cell is the repr of a
    Python int or float (numpy scalars repr as np.float64(...) since numpy 2)."""
    yield header
    yield from zip(*(map(repr, column) for column in columns))


_JSON_ROWS = 1 << 10  # [re, im] rows that one tolist() makes for _PairRows


class _PairRows(list):
    """The [re, im] rows of a complex array as a JSON list, made _JSON_ROWS
    rows at a time, so that its pairs never exist as Python lists at once.
    json.dump's indented (pure-Python) encoder reads only its length and its
    iteration; the C encoder of json.dumps without indent would see []."""

    __slots__ = ("pairs",)

    def __init__(self, values) -> None:
        super().__init__()
        self.pairs = values.view(float).reshape(-1, 2)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[list[float]]:
        for lo in range(0, len(self.pairs), _JSON_ROWS):
            yield from self.pairs[lo:lo + _JSON_ROWS].tolist()


# -- output forms of the library's results ------------------------------------


def count_json(report: JointCountReport, m1: int, m2: int) -> dict:
    # one str per distinct count: most cells of a large b1 x b2 matrix share a few
    decimal = functools.cache(str)
    worst, mean = report.deviation_stats()
    return {
        "N": str(report.N),
        "m1": m1,
        "b1": report.moduli[0],
        "m2": m2,
        "b2": report.moduli[1],
        "counts": [list(map(decimal, row.tolist())) for row in report.counts],
        "expected": report.expected,
        "max_rel_dev": worst,
        "mean_rel_dev": mean,
        "gcd1_ok": report.gcd_ok[0],
        "gcd2_ok": report.gcd_ok[1],
    }


def series_json(series: ExpSumSeries) -> list[dict]:
    return [
        {"N": n, "re": s.real, "im": s.imag, "modulus": abs(s), "normalized": abs(s) / n}
        for n, s in zip(series.grid, series.values)
    ]


def fit_json(fit: DeltaFit, mode: str, m1: int, m2: int) -> dict:
    out = {
        "mode": mode,
        "grid": [str(n) for n in fit.grid],
        "err": list(fit.err),
        "delta_hat": fit.delta_hat,
        "residual": fit.residual,
        "hypothesis_ok": fit.hypothesis_ok,
    }
    if fit.series is not None:
        out["series"] = series_json(fit.series)
    if fit.reports is not None:
        out["reports"] = [count_json(r, m1, m2) for r in fit.reports]
    return out


# -- subcommand handlers -------------------------------------------------------


def cmd_digits(args) -> int:
    params = make_alpha(args.m)
    ds = digits_of(args.n, params)
    _emit(args, lambda: _envelope("digits", {"m": args.m, "n": str(args.n)}, {
        "digits": ds.serialize(),
        "S": ds.digit_sum(),
    }), lambda: [ds.serialize(), f"S={ds.digit_sum()}"])
    return 0


def cmd_convergents(args) -> int:
    table = convergents(make_alpha(args.m), args.K)
    _emit(args, lambda: _envelope("convergents", {"m": args.m, "K": args.K}, {
        "q": [str(q) for q in table.q],
        "p": [str(p) for p in table.p],
    }), lambda: [
        "q: " + " ".join(str(q) for q in table.q),
        "p: " + " ".join(str(p) for p in table.p),
    ], lambda: _table(("i", "p_i", "q_i"), range(len(table.q)), table.p, table.q))
    return 0


def cmd_count(args) -> int:
    systems = make_alpha(args.m1), make_alpha(args.m2)
    ((report,),) = joint_folds((args.n,), systems, [count_fold(systems, (args.b1, args.b2))])
    config = {"m1": args.m1, "b1": args.b1, "m2": args.m2, "b2": args.b2, "n": str(args.n)}
    cell = None
    if args.a1 is not None or args.a2 is not None:
        if args.a1 is None or args.a2 is None:
            raise argparse.ArgumentTypeError("--a1 and --a2 must be given together")
        cell = args.a1 % args.b1, args.a2 % args.b2
        config["a1"], config["a2"] = args.a1, args.a2

    def payload() -> dict:
        result = count_json(report, args.m1, args.m2)
        if cell:
            result["selected"] = {"a1": cell[0], "a2": cell[1], "count": str(report.counts[cell])}
        return _envelope("count", config, result)

    def lines() -> list[str]:
        out = [f"N={report.N} expected per cell {report.expected:.3f}"]
        if cell:
            out.append(f"count(S1={cell[0]} mod {args.b1}, "
                       f"S2={cell[1]} mod {args.b2}) = {report.counts[cell]}")
        out += [f"a1={a1}: " + " ".join(map(str, row))
                for a1, row in enumerate(report.counts.tolist())]
        worst, mean = report.deviation_stats()
        out.append(f"max_rel_dev={worst:.6f} mean_rel_dev={mean:.6f}")
        out.append(f"gcd(b1,m1)=1: {report.gcd_ok[0]}; gcd(b2,m2)=1: {report.gcd_ok[1]}")
        return out

    def rows() -> Iterator[tuple[str, ...]]:
        # the selected cell, or every cell in row-major order, a row's tolist() at a time
        (a1, a2), (b1, b2) = (cell, (1, 1)) if cell else ((0, 0), report.counts.shape)
        box = slice(a1, a1 + b1), slice(a2, a2 + b2)
        return _table(("a1", "a2", "count", "rel_dev"),
                      chain.from_iterable(map(repeat, range(a1, a1 + b1), repeat(b2))),
                      chain.from_iterable(repeat(range(a2, a2 + b2), b1)),
                      *(chain.from_iterable(row.tolist() for row in matrix[box])
                        for matrix in (report.counts, report.rel_dev())))

    _emit(args, payload, lines, rows)
    return 0


def cmd_expsum(args) -> int:
    systems = make_alpha(args.m1), make_alpha(args.m2)
    grid = [args.n] if args.grid is None else args.grid
    series = joint_exp_series(grid, systems, (args.theta, args.beta))
    config = {"m1": args.m1, "m2": args.m2, "theta": str(args.theta),
              "beta": str(args.beta), "grid": [str(n) for n in grid]}

    def rows() -> Iterator[tuple[str, ...]]:
        records = series_json(series)  # the header is their keys
        return _table(tuple(records[0]), *zip(*(r.values() for r in records)))

    _emit(args, lambda: _envelope("expsum", config, {"series": series_json(series)}), lambda: [
        f"N={n}: S={s.real:+.9f}{s.imag:+.9f}i |S|/N={abs(s) / n:.9f}"
        for n, s in zip(series.grid, series.values)
    ], rows)
    return 0


def cmd_decay(args) -> int:
    params = make_alpha(args.m)
    series = single_decay(params, args.gamma, args.theta, kmax=args.kmax, kmin=args.kmin)
    if not series.hypothesis_ok:
        print(f"warning: m*gamma = {args.m}*{args.gamma} is an integer; "
              "no decay is guaranteed", file=sys.stderr)
    config = {"m": args.m, "gamma": str(args.gamma), "theta": str(args.theta),
              "kmin": args.kmin, "kmax": args.kmax}

    def lines() -> list[str]:
        out = [f"k={k} q_k={q} D_k={v:.8f}" for k, q, v in
               zip(series.ks, series.qks, series.values)]
        out.append(f"log-linear slope {'n/a' if series.slope is None else f'{series.slope:.5f}'}")
        if series.left_out:
            out.append("left out of the fit, at or below the rounding floor "
                       "4*k*eps*max(D_{k-1}, D_{k-2}): k = "
                       + ", ".join(map(str, series.left_out)))
        return out

    _emit(args, lambda: _envelope("decay", config, {
        "ks": list(series.ks),
        "q": [str(q) for q in series.qks],
        "D": list(series.values),
        "slope": series.slope,
        "left_out": list(series.left_out),
        "hypothesis_ok": series.hypothesis_ok,
    }), lines, lambda: _table(("k", "q_k", "D_k"), series.ks, series.qks, series.values))
    return 0


def cmd_dft(args) -> int:
    params = make_alpha(args.m)
    spectrum = dft_window(params, args.k, args.v, args.theta)
    err = reconstruction_error(spectrum, extended=True)
    parseval = spectrum.parseval_sum()
    config = {"m": args.m, "k": args.k, "v": args.v, "theta": str(args.theta)}
    _emit(args, lambda: _envelope("dft", config, {
        "k": args.k, "v": args.v, "Q": spectrum.Q, "start": str(spectrum.start),
        "reconstruction_error": err, "parseval": parseval,
        **({"L": _PairRows(spectrum.coeffs)} if args.coeffs else {}),
    }), lambda: [
        f"Q(v)={spectrum.Q} start=n_{args.v - 1}={spectrum.start}",
        f"reconstruction error (extended range) {err:.3e}",
        f"parseval sum {parseval:.12f}",
    ], lambda: _table(("l", "re", "im"), range(spectrum.Q),
                      map(float, spectrum.coeffs.real), map(float, spectrum.coeffs.imag)))
    return 0


def cmd_scan(args) -> int:
    systems = make_alpha(args.m1), make_alpha(args.m2)
    grid = list(acceptance.BASELINE_GRID) if args.grid is None else args.grid
    if args.mode == "theorem":
        fit = delta_scan_theorem(grid, systems, (args.theta, args.beta))
        config = {"mode": "theorem", "m1": args.m1, "m2": args.m2,
                  "theta": str(args.theta), "beta": str(args.beta),
                  "grid": [str(n) for n in grid]}
    else:
        fit = delta_scan_corollary(grid, systems, (args.b1, args.b2))
        config = {"mode": "corollary", "m1": args.m1, "b1": args.b1,
                  "m2": args.m2, "b2": args.b2, "grid": [str(n) for n in grid]}
    if not fit.hypothesis_ok:
        print("warning: scan hypothesis flags are not satisfied; "
              "decay is not guaranteed", file=sys.stderr)

    def lines() -> list[str]:
        delta = "n/a" if fit.delta_hat is None else f"{fit.delta_hat:.5f}"
        out = [f"N={n}: err={e:.9f}" for n, e in zip(fit.grid, fit.err)]
        out.append(f"delta_hat {delta} (residual "
                   f"{'n/a' if fit.residual is None else f'{fit.residual:.4f}'})")
        return out

    _emit(args, lambda: _envelope("scan", config, fit_json(fit, args.mode, args.m1, args.m2)),
          lines, lambda: _table(("N", "err"), fit.grid, fit.err))
    return 0


def cmd_lemmas(args) -> int:
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
    _emit(args, lambda: _envelope("lemmas", config, {"checks": checks}, seed=args.seed), lambda: [
        "[{}] {}: {}".format("PASS" if c["ok"] else "FAIL", c["name"],
                             {k: v for k, v in c.items() if k not in ("name", "ok")})
        for c in checks
    ])
    return 0 if all(c["ok"] for c in checks) else 1


def cmd_verify(args) -> int:
    as_json = args.format == "json"
    results = acceptance.run_all(quick=args.quick, report=(lambda line: None) if as_json else print)
    if as_json:
        _emit(args, lambda: _envelope("verify", {"quick": args.quick}, {
            "criteria": [dataclasses.asdict(r) for r in results]}), lambda: [])
    return 0 if all(r.ok for r in results) else 1


def cmd_regen(args) -> int:
    data = acceptance.compute_baseline()
    try:
        path = acceptance.write_baseline(data)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write baseline {acceptance.baseline_path()}: {exc.strerror}") from None
    print(f"baseline regenerated at {path}")
    return 0


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
    p.add_argument("--theta", type=parse_rational, required=True)
    p.add_argument("--beta", type=parse_rational, required=True)
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--n", type=_positive_int)
    span.add_argument("--grid", type=parse_grid)
    common(p)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("decay", help="normalized window sums D_k and their decay rate")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--gamma", type=parse_rational, required=True)
    p.add_argument("--theta", type=parse_rational, required=True)
    p.add_argument("--kmax", type=_positive_int, required=True)
    p.add_argument("--kmin", type=_positive_int, default=2)
    common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("dft", help="window DFT coefficients and reconstruction check")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--v", type=_positive_int, required=True)
    p.add_argument("--theta", type=parse_rational, required=True)
    p.add_argument("--coeffs", action="store_true", help="include coefficients in JSON")
    common(p)
    p.set_defaults(func=cmd_dft)

    p = sub.add_parser("scan", help="error-exponent fit along a log-spaced N grid")
    p.add_argument("--mode", choices=["theorem", "corollary"], default="theorem")
    p.add_argument("--m1", type=_positive_int, default=acceptance.SCAN_MS[0])
    p.add_argument("--m2", type=_positive_int, default=acceptance.SCAN_MS[1])
    p.add_argument("--theta", type=parse_rational, default=acceptance.THETA)
    p.add_argument("--beta", type=parse_rational, default=acceptance.BETA)
    p.add_argument("--b1", type=_positive_int, default=acceptance.SCAN_MODULI[0])
    p.add_argument("--b2", type=_positive_int, default=acceptance.SCAN_MODULI[1])
    p.add_argument("--grid", type=parse_grid)
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

    p = sub.add_parser("regen-baseline", help="recompute and overwrite the pinned baseline file")
    p.set_defaults(func=cmd_regen)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_phases(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError) as exc:
        if "integer string conversion" in str(exc):  # Python's int/str digit limit
            print(f"limit error: {exc} (from the shell, set PYTHONINTMAXSTRDIGITS)",
                  file=sys.stderr)
            return 2
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
