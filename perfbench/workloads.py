"""The four benchmark workloads: inputs made from a seed, operations, checks.

Each workload builds its inputs from the seed with the stdlib `random`
module, so the same seed gives the same inputs.  An operation is one call
into the library or one in-process CLI invocation; `run_op` returns its raw
result inside the timed region, and `digest` turns that into a compact
output outside it (reading `--out` files, copying arrays).  `check` compares
a digest with an independent route and returns a failure message or None.

Workloads whose oracle needs large arrays (`deferred = True`) keep their
digests and check them once after the timed loop, so that the oracle's
memory never shows in the worker's peak resident set.

The layer hooks at the bottom of each class (`odometer_steps`,
`odometer_replay`, `table_sizes`, `phase_replay`, `scan_n`) feed the traced
run's replayed microbenchmarks; they are never called on untraced runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

GRID = (1_000, 10_000, 100_000, 1_000_000)
SMALL_GRID = (1_000, 2_000, 5_000, 10_000)

# (m1, m2, theta, beta, b1, b2) of the pinned baseline; seed 0 runs it
BASELINE_CONFIG = (2, 3, Fraction(1, 3), Fraction(1, 2), 3, 2)


def q_list(m: int, count: int) -> list[int]:
    """Convergent denominators q_0..q_{count-1}, from the recurrence alone."""
    qs = [1, 1]
    while len(qs) < count:
        i = len(qs)
        qs.append((m if i % 2 == 0 else 1) * qs[-1] + qs[-2])
    return qs[:count]


def p_list(m: int, count: int) -> list[int]:
    ps = [0, 1]
    while len(ps) < count:
        i = len(ps)
        ps.append((m if i % 2 == 0 else 1) * ps[-1] + ps[-2])
    return ps[:count]


def digits_problem(eps, n: int, m: int) -> str | None:
    """Admissibility and value of a digit string, checked without the library."""
    qs = q_list(m, len(eps) + 1)
    if eps and eps[0] != 0:
        return "eps_0 is not 0"
    for i in range(1, len(eps)):
        cap = m if i % 2 == 1 else 1
        if not 0 <= eps[i] <= cap:
            return f"digit {eps[i]} at {i} outside [0, {cap}]"
        if eps[i] == cap and eps[i - 1] != 0:
            return f"digit at cap {cap} at {i} without a zero below"
    if len(eps) > 1 and eps[-1] == 0:
        return "leading zero digit"
    if sum(e * q for e, q in zip(eps, qs)) != n:
        return "digits do not sum to n"
    return None


def frac_phi(h: int, m: int, bits: int = 256) -> float:
    """{h*phi(m)} for h >= 0, by scaled integer square roots (not the Surd class)."""
    d = m * m + 4 * m
    scaled = h * (m + 2) * (1 << bits) + math.isqrt(h * h * d << (2 * bits))
    one = 1 << (bits + 1)  # phi = (m + 2 + sqrt(d)) / 2
    return float(Fraction(scaled % one, one))


def residue_sum(counts, L: int) -> complex:
    """sum_r C_r e(r/L), each part summed exactly rounded with math.fsum."""
    re = math.fsum(int(c) * math.cos(2 * math.pi * r / L) for r, c in enumerate(counts))
    im = math.fsum(int(c) * math.sin(2 * math.pi * r / L) for r, c in enumerate(counts))
    return complex(re, im)


def _rational(rng: random.Random, dens, accept) -> Fraction:
    while True:
        den = rng.choice(dens)
        value = Fraction(rng.randrange(1, den), den)
        if accept(value):
            return value


class Workload:
    name = ""
    deferred = False

    def __init__(self, seed: int, small: bool, fault: bool, outdir: Path):
        self.seed = seed
        self.small = small
        self.fault = fault
        self.outdir = outdir
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Import the library and its CLI, build the systems, load pinned data."""
        import ostrowski  # noqa: F401
        from ostrowski import cf, cli  # noqa: F401

        self.params = {m: cf.make_alpha(m) for m in self.systems}

    def finish(self) -> None:
        """Build the oracle of a deferred workload (after the timed loop)."""

    corollary_scans = 0  # delta_scan_corollary calls per pass, for the self-time estimate

    def segment(self, index, name, arg):
        """Key of the timed segment an operation belongs to (see worker.py)."""
        return index

    def split(self, key, took, raw):
        """Parts of one operation's time, by segment; the whole by default."""
        return [(key, took)]

    def _cli(self, argv) -> tuple[int, str]:
        from ostrowski import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue()

    def _out(self, tag: str) -> str:
        return str(self.outdir / tag)


class JointScan(Workload):
    """CLI `scan` in theorem and corollary mode on the pinned N grid."""

    name = "joint_scan"
    deferred = True

    def __init__(self, *args):
        super().__init__(*args)
        if self.seed == 0:
            cfg = BASELINE_CONFIG
        else:
            rng = self.rng
            m1, m2 = rng.sample((2, 3, 5), 2)
            theta = _rational(rng, range(2, 7), lambda f: True)
            beta = _rational(rng, range(2, 7), lambda f: (m2 * f).denominator != 1)
            b1 = rng.choice([b for b in range(2, 7) if math.gcd(b, m1) == 1])
            b2 = rng.choice([b for b in range(2, 7) if math.gcd(b, m2) == 1])
            cfg = (m1, m2, theta, beta, b1, b2)
        self.m1, self.m2, self.theta, self.beta, self.b1, self.b2 = cfg
        self.systems = (self.m1, self.m2)
        self.grid = SMALL_GRID if self.small else GRID
        self.pinned = self.seed == 0 and not self.small
        self.config = {"m1": self.m1, "m2": self.m2, "theta": str(self.theta),
                       "beta": str(self.beta), "b1": self.b1, "b2": self.b2,
                       "grid": list(self.grid)}
        self.items_per_pass = 2 * self.grid[-1]

    def setup(self) -> None:
        super().setup()
        from ostrowski import acceptance

        self.baseline = acceptance.load_baseline() if self.pinned else None

    def prepare(self) -> list[tuple[str, object]]:
        grid = ",".join(str(n) for n in self.grid)
        common = ["--m1", str(self.m1), "--m2", str(self.m2), "--grid", grid,
                  "--format", "json"]
        self.argv = {
            "theorem": ["scan", "--mode", "theorem", *common, "--theta", str(self.theta),
                        "--beta", str(self.beta), "--out", self._out("theorem.json")],
            "corollary": ["scan", "--mode", "corollary", *common, "--b1", str(self.b1),
                          "--b2", str(self.b2), "--out", self._out("corollary.json")],
        }
        return [("theorem", None), ("corollary", None)]

    def run_op(self, name, arg):
        return self._cli(self.argv[name])

    def digest(self, name, raw):
        rc, _ = raw
        path = Path(self.argv[name][-1])
        body = path.read_bytes()
        path.unlink()
        result = json.loads(body)["result"]
        if name == "theorem":
            data = [(int(r["N"]), r["re"], r["im"]) for r in result["series"]]
        else:
            data = [(int(r["N"]), [[int(c) for c in row] for row in r["counts"]])
                    for r in result["reports"]]
        return {"rc": rc, "data": data, "delta_hat": result["delta_hat"], "bytes": len(body)}

    def finish(self) -> None:
        import numpy as np
        from ostrowski import digits

        n_max = self.grid[-1]
        s1 = digits.digit_sum_array(self.params[self.m1], n_max).astype(np.int64)
        s2 = digits.digit_sum_array(self.params[self.m2], n_max).astype(np.int64)
        L = math.lcm(self.theta.denominator, self.beta.denominator)
        u1 = self.theta.numerator * (L // self.theta.denominator) % L
        u2 = self.beta.numerator * (L // self.beta.denominator) % L
        phase = (u1 * s1 + u2 * s2) % L
        cell = (s1 % self.b1) * self.b2 + s2 % self.b2
        self.want_sums, self.want_counts = {}, {}
        for n in self.grid:
            self.want_sums[n] = residue_sum(np.bincount(phase[:n], minlength=L), L)
            flat = np.bincount(cell[:n], minlength=self.b1 * self.b2).tolist()
            self.want_counts[n] = [flat[i * self.b2:(i + 1) * self.b2] for i in range(self.b1)]
        if self.fault:
            self.want_counts[self.grid[0]][0][0] += 1

    def check(self, name, arg, out) -> str | None:
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        if [row[0] for row in out["data"]] != list(self.grid):
            return "grid points differ"
        if name == "theorem":
            for n, re, im in out["data"]:
                want = self.want_sums[n]
                if abs(re - want.real) > 1e-8 or abs(im - want.imag) > 1e-8:
                    return f"S_{n} = {re}{im:+}i, residue histogram gives {want}"
        else:
            for n, counts in out["data"]:
                if counts != self.want_counts[n]:
                    return f"counts at N={n} differ from digit_sum_array + bincount"
        if self.baseline is not None:
            return self._check_pins(name, out)
        return None

    def _check_pins(self, name, out) -> str | None:
        ref = self.baseline[name]
        if abs(out["delta_hat"] - ref["delta_hat"]) > 1e-8:
            return "delta_hat deviates from the pinned baseline"
        if name == "theorem":
            for (n, re, im), (pre, pim) in zip(out["data"], ref["values"]):
                if abs(re - pre) > 1e-8 or abs(im - pim) > 1e-8:
                    return f"S_{n} deviates from the pinned baseline"
        else:
            for n, counts in out["data"]:
                if counts != [[int(c) for c in row] for row in ref["counts"][str(n)]]:
                    return f"counts at N={n} deviate from the pinned baseline"
        return None

    # -- layer hooks ------------------------------------------------------------

    @property
    def scan_n(self) -> int:
        return self.grid[-1]

    def odometer_steps(self) -> int:
        return 4 * self.grid[-1]  # two scans, two odometers each, over [0, N_max)

    corollary_scans = 1

    def odometer_replay(self):
        return [(self.params[m], 0, self.grid[-1]) for m in self.systems]

    def table_sizes(self):
        return [(self.params[m], self.grid[-1]) for m in self.systems]

    def phase_replay(self):
        return self.theta, self.beta, self.params[self.m1], self.params[self.m2]


class ExactWindows(Workload):
    """Single-system window sums and the exact surd layer, for m = 2."""

    name = "exact_windows"
    deferred = True
    M = 2
    SCHMIDT_H = 40
    MIN_NORM_LEN = 2_000
    DFT_K = 10

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.kmax = 12 if self.small else 20
        self.mk = 10 if self.small else 16
        self.gamma = _rational(rng, (3, 4, 5, 6, 7), lambda f: (self.M * f).denominator != 1)
        self.theta = _rational(rng, range(2, 11), lambda f: True)
        self.h = rng.randint(1, 60)
        self.t = rng.randrange(10**6) / 10**6
        self.lo = rng.randint(1, 10**6)
        self.v = rng.randint(1, 8)
        self.big_h = [rng.randrange(10**39, 10**40) for _ in range(256)]
        self.systems = (2, 3)
        self.config = {"m": self.M, "gamma": str(self.gamma), "theta": str(self.theta),
                       "h": self.h, "t": self.t, "kmax": self.kmax, "m_sums_k": self.mk,
                       "min_norm_interval": [self.lo, self.lo + self.MIN_NORM_LEN - 1],
                       "dft_k": self.DFT_K, "dft_v": self.v}

    def prepare(self):
        from ostrowski import digits

        self.p = self.params[self.M]
        self.qs = q_list(self.M, 60)
        vs = digits.v_sequence(self.p, self.DFT_K, self.v + 1)
        self.Q = vs.values[self.v] - vs.values[self.v - 1]
        self.items_per_pass = self.qs[self.kmax] + self.qs[self.mk] + self.MIN_NORM_LEN + self.Q
        self.decay_argv = ["decay", "--m", str(self.M), "--gamma", str(self.gamma),
                           "--theta", str(self.theta), "--kmax", str(self.kmax),
                           "--kmin", "6", "--format", "json", "--out", self._out("decay.json")]
        return [(n, None) for n in ("decay", "m_sums", "min_norm", "dft", "frac_mul",
                                    "b_zero", "schmidt")]

    def run_op(self, name, arg):
        from ostrowski import cf, expsum

        p = self.p
        if name == "decay":
            return self._cli(self.decay_argv)
        if name == "m_sums":
            return expsum.m_sums(p, self.mk, self.h, self.theta)
        if name == "min_norm":
            return expsum.min_norm_sum(p, self.t, (self.lo, self.lo + self.MIN_NORM_LEN - 1), 1e4)
        if name == "dft":
            spectrum = expsum.dft_window(p, self.DFT_K, self.v, self.theta)
            return spectrum, expsum.reconstruction_error(spectrum, extended=True)
        if name == "frac_mul":
            return [cf.frac_mul(h, p.phi) for h in self.big_h]
        if name == "b_zero":
            return [expsum.b_zero_normalization(p, k) for k in range(2, 42)]
        return expsum.schmidt_margin(self.params[2], self.params[3], self.SCHMIDT_H)

    def digest(self, name, raw):
        if name == "decay":
            rc, _ = raw
            path = Path(self.decay_argv[-1])
            body = path.read_bytes()
            path.unlink()
            res = json.loads(body)["result"]
            return {"rc": rc, "ks": res["ks"], "q": res["q"], "D": res["D"],
                    "slope": res["slope"], "hyp": res["hypothesis_ok"], "bytes": len(body)}
        if name == "dft":
            spectrum, err = raw
            return {"start": spectrum.start, "Q": spectrum.Q, "coeffs": spectrum.coeffs.copy(),
                    "err": err, "parseval": spectrum.parseval_sum()}
        if name == "min_norm":
            return (raw.lhs, raw.sqrt_term, raw.log_term)
        if name == "b_zero":
            return [b == 1 for b in raw]
        return raw

    def finish(self) -> None:
        import numpy as np
        from ostrowski import digits

        p, qs = self.p, self.qs
        # decay: D_k from residue histograms of gamma*S(u) + theta*u
        s = digits.digit_sum_array(p, qs[self.kmax]).astype(np.int64)
        g, th = self.gamma, self.theta
        L = math.lcm(g.denominator, th.denominator)
        r = (g.numerator * (L // g.denominator) * s
             + th.numerator * (L // th.denominator) * np.arange(len(s), dtype=np.int64)) % L
        ks = list(range(6, self.kmax + 1))
        self.want_D = [abs(residue_sum(np.bincount(r[:qs[k]], minlength=L), L)) / qs[k]
                       for k in ks]
        self.want_slope = float(np.polyfit(ks, [math.log(v) for v in self.want_D], 1)[0])
        # m_sums: exact {h*u*phi} by integer square roots, summed with fsum
        sign = -1.0 if self.mk % 2 == 0 else 1.0
        tf = float(self.theta)
        parts = ([], [])
        for u in range(qs[self.mk]):
            x = (tf * int(s[u]) + sign * frac_phi(self.h * u, self.M)) % 1.0
            parts[u >= qs[self.mk - 1]].append(complex(math.cos(2 * math.pi * x),
                                                       math.sin(2 * math.pi * x)))
        self.want_m = [complex(math.fsum(z.real for z in part), math.fsum(z.imag for z in part))
                       for part in parts]
        # min_norm: same definition, exact fractional parts, fsum
        terms = []
        for h in range(self.lo, self.lo + self.MIN_NORM_LEN):
            x = (frac_phi(h, self.M) + self.t) % 1.0
            dist = min(x, 1.0 - x)
            terms.append(1e4 if dist == 0.0 or 1.0 / (dist * dist) > 1e4 else 1.0 / (dist * dist))
        self.want_min_norm = math.fsum(terms)
        # dft: block bounds from zeros of the truncated digit sum, numpy FFT
        k = self.DFT_K
        trunc = digits.digit_sum_array(p, (self.v + 1) * qs[k] + 1, trunc=k)
        zeros = np.flatnonzero(trunc == 0)
        self.want_start = int(zeros[self.v - 1])
        self.want_Q = int(zeros[self.v]) - self.want_start
        res = (th.numerator * trunc[self.want_start:self.want_start + self.want_Q]) % th.denominator
        self.want_coeffs = np.fft.fft(np.exp(2j * np.pi * res / th.denominator)) / self.want_Q
        self.want_frac = [frac_phi(h, self.M) for h in self.big_h]
        # schmidt: float64 grid, far from the margins' scale
        H = self.SCHMIDT_H
        phi1 = (self.params[2].m + 2 + math.sqrt(self.params[2].d)) / 2
        phi2 = (self.params[3].m + 2 + math.sqrt(self.params[3].d)) / 2
        h2, h4 = np.meshgrid(np.arange(H + 1), np.arange(-H, H + 1), indexing="ij")
        keep = (h2 > 0) | (h4 > 0)
        x = h2 * phi2 + h4 * phi1
        dist = np.abs(x - np.rint(x))
        weight = np.maximum(np.abs(h2), np.abs(h4)).astype(float) ** 2.1
        self.want_schmidt = float(np.min((dist * weight)[keep]))
        if self.fault:
            self.want_schmidt *= 2

    def check(self, name, arg, out) -> str | None:
        if name == "decay":
            if out["rc"] != 0:
                return f"exit code {out['rc']}"
            if out["ks"] != list(range(6, self.kmax + 1)) or out["q"] != [
                    str(self.qs[k]) for k in out["ks"]]:
                return "ks or q_k differ from the recurrence"
            worst = max(abs(a - b) for a, b in zip(out["D"], self.want_D))
            if worst > 1e-9:
                return f"D_k off the residue-histogram route by {worst:.2e}"
            if abs(out["slope"] - self.want_slope) > 1e-9 or not out["hyp"]:
                return "decay slope or hypothesis flag differs"
        elif name == "m_sums":
            for got, want in zip(out, self.want_m):
                if abs(got - want) > 1e-8:
                    return f"m_sums {got} vs exact-phase fsum {want}"
        elif name == "min_norm":
            lhs, sqrt_term, log_term = out
            size = self.MIN_NORM_LEN
            if abs(lhs - self.want_min_norm) > 1e-9 * self.want_min_norm:
                return f"min_norm lhs {lhs} vs {self.want_min_norm}"
            if sqrt_term != math.sqrt(1e4) * size or log_term != 1e4 * math.log(size):
                return "min_norm reference terms differ"
        elif name == "dft":
            if (out["start"], out["Q"]) != (self.want_start, self.want_Q):
                return "dft block bounds differ from the zero-low-digit set"
            worst = float(abs(out["coeffs"] - self.want_coeffs).max())
            if worst > 1e-12:
                return f"dft coefficients off numpy FFT by {worst:.2e}"
            if not out["err"] < 1e-9 or abs(out["parseval"] - 1.0) > 1e-9:
                return f"reconstruction error {out['err']:.2e} or parseval off"
        elif name == "frac_mul":
            for h, got, want in zip(self.big_h, out, self.want_frac):
                if abs(got - want) > 2.0**-52:
                    return f"frac_mul({h}) = {got}, integer route gives {want}"
        elif name == "b_zero":
            if not all(out):
                return "b_zero_normalization != 1"
        elif abs(out - self.want_schmidt) > 1e-8 * self.want_schmidt:
            return f"schmidt margin {out} vs float64 grid {self.want_schmidt}"
        return None

    # -- layer hooks ------------------------------------------------------------

    scan_n = 0

    def odometer_steps(self) -> int:
        q = self.qs
        return q[self.kmax] + q[self.mk] + self.Q + self.Q + q[self.DFT_K - 1]

    def odometer_replay(self):
        return [(self.p, 0, self.qs[self.kmax])]

    def table_sizes(self):
        return [(self.p, self.qs[self.kmax])]

    def phase_replay(self):
        return self.gamma, self.theta, self.p, None


class RandomDigits(Workload):
    """Random access to expansions of n in [10^3, 10^40] for m in {1, 2, 3, 5}."""

    name = "random_digits"
    systems = (1, 2, 3, 5)
    WALK = 400

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        per_m = 150 if self.small else 1_500
        self.ns = {m: [rng.randrange(10 ** (d - 1), 10**d)
                       for d in (rng.randint(4, 41) for _ in range(per_m))]
                   for m in self.systems}
        self.ks = {m: [rng.randint(1, 120) for _ in range(per_m)] for m in self.systems}
        self.vk = {m: rng.randint(3, 8) for m in self.systems}
        self.conv_k = {m: rng.randint(20, 120) for m in self.systems}
        self.walks = 5 if self.small else 25
        self.cli_n = 5
        self.config = {"systems": list(self.systems), "n_per_m": per_m,
                       "digits_decimal": [4, 41], "walks_per_m": self.walks,
                       "walk_steps": self.WALK, "v_sequence_k": self.vk,
                       "convergents_K": self.conv_k}
        self.items_per_pass = len(self.systems) * (per_m + self.cli_n)
        self._greedy: dict = {}
        self._vset: dict = {}

    def prepare(self):
        ops = []
        for m in self.systems:
            ops += [("expand", (m, n, k)) for n, k in zip(self.ns[m], self.ks[m])]
            ops += [("walk", (m, n)) for n in self.ns[m][: self.walks]]
            ops.append(("v_sequence", (m, self.vk[m])))
            ops += [("cli_digits", (m, n)) for n in self.ns[m][: self.cli_n]]
            ops.append(("cli_convergents", (m, self.conv_k[m])))
        self.first_expand = ops[0][1]
        return ops

    def run_op(self, name, arg):
        from ostrowski import digits

        p = self.params[arg[0]]
        if name == "expand":
            _, n, k = arg
            ds = digits.digits_of(n, p)
            return ds.eps, bool(digits.validate(ds, p)), digits.value_of(ds), \
                digits.truncate(n, p, k)
        if name == "walk":
            od = digits.Odometer(p, arg[1])
            step = od.step
            for _ in range(self.WALK):
                step()
            return od.n, od.digits(), od.digit_sum
        if name == "v_sequence":
            vs = digits.v_sequence(p, arg[1], 200)
            return vs.values, vs.gaps
        if name == "cli_digits":
            path = self._out(f"digits-{arg[0]}-{arg[1]}.json")
            return self._cli(["digits", "--m", str(arg[0]), "--n", str(arg[1]),
                              "--format", "json", "--out", path]), path
        path = self._out(f"convergents-{arg[0]}.csv")
        return self._cli(["convergents", "--m", str(arg[0]), "--K", str(arg[1]),
                          "--format", "csv", "--out", path]), path

    def segment(self, index, name, arg):
        return name, arg[0]  # thousands of sub-millisecond operations, grouped

    def digest(self, name, raw):
        if not name.startswith("cli_"):
            return raw
        (rc, _), path = raw
        body = Path(path).read_bytes()
        Path(path).unlink()
        return {"rc": rc, "body": body.decode(), "bytes": len(body)}

    def check(self, name, arg, out) -> str | None:
        from ostrowski import digits

        if name == "expand":
            (m, n, k), (eps, ok, value, trunc) = arg, out
            want = n + 1 if self.fault and arg == self.first_expand else n
            problem = digits_problem(eps, n, m)
            if problem or not ok or value != want:
                return f"m={m} n={n}: {problem or f'round trip gives {value}, expected {want}'}"
            qs = q_list(m, max(k, len(eps)) + 1)
            if trunc != sum(e * q for e, q in zip(eps[:k], qs)) or trunc >= qs[k]:
                return f"m={m} n={n}: truncate at k={k} gives {trunc}"
        elif name == "walk":
            m, n = arg
            key = (m, n + self.WALK)
            if key not in self._greedy:
                self._greedy[key] = digits.digits_of(n + self.WALK, self.params[m]).eps
            end, eps, dsum = out
            if end != n + self.WALK or eps != self._greedy[key] or dsum != sum(eps):
                return f"m={m}: odometer from {n} disagrees with greedy after {self.WALK} steps"
        elif name == "v_sequence":
            m, k = arg
            values, gaps = out
            qs = q_list(m, k + 1)
            if any(g not in (qs[k - 1], qs[k]) for g in gaps) or any(
                    b - a != g for a, b, g in zip(values, values[1:], gaps)):
                return f"m={m} k={k}: v_sequence gaps are not q_(k-1) or q_k"
            if (m, k) not in self._vset:
                trunc = digits.digit_sum_array(self.params[m], values[-1] + 1, trunc=k)
                self._vset[m, k] = tuple(int(v) for v in (trunc == 0).nonzero()[0])
            if tuple(values) != self._vset[m, k]:
                return f"m={m} k={k}: v_sequence misses zero-low-digit integers"
        elif out["rc"] != 0:
            return f"{name} exit code {out['rc']}"
        elif name == "cli_digits":
            m, n = arg
            res = json.loads(out["body"])["result"]
            eps = tuple(int(t) for t in res["digits"].split(","))
            problem = digits_problem(eps, n, m)
            if problem or res["S"] != sum(eps):
                return f"cli digits m={m} n={n}: {problem or 'S differs'}"
        else:
            m, K = arg
            rows = list(csv.reader(io.StringIO(out["body"])))
            want = [["i", "p_i", "q_i"]] + [[str(i), str(p), str(q)] for i, (p, q) in
                                            enumerate(zip(p_list(m, K + 1), q_list(m, K + 1)))]
            if rows != want:
                return f"cli convergents m={m} K={K} differ from the recurrence"
        return None

    # -- layer hooks ------------------------------------------------------------

    scan_n = 0

    def odometer_steps(self) -> int:
        return len(self.systems) * self.walks * self.WALK

    def odometer_replay(self):
        return [(self.params[m], n, self.WALK) for m in self.systems
                for n in self.ns[m][: self.walks]]

    def table_sizes(self):
        return [(self.params[m], GRID[-1]) for m in self.systems]

    def phase_replay(self):
        return Fraction(1, 3), Fraction(1, 2), self.params[2], self.params[3]


class VerifyQuick(Workload):
    """`ostrowski verify --quick`, in process, at the program's own seed."""

    name = "verify_quick"
    systems = (1, 2, 3, 5)
    CRITERIA = 9

    def __init__(self, *args):
        super().__init__(*args)
        self.config = {"argv": ["verify", "--quick"]}
        self.items_per_pass = self.CRITERIA

    def setup(self) -> None:
        super().setup()
        from ostrowski import acceptance

        self.baseline = acceptance.load_baseline()

    def prepare(self):
        from ostrowski import acceptance

        # Each criterion is a timed segment: keep the CriterionResult list
        # that `verify` discards.
        run_all = acceptance.run_all
        self.results = []

        def keep(*args, **kwargs):
            self.results = run_all(*args, **kwargs)
            return self.results

        acceptance.run_all = keep
        return [("verify", None)]

    def run_op(self, name, arg):
        rc, text = self._cli(["verify", "--quick"])
        return rc, text, [r.elapsed for r in self.results]

    def split(self, key, took, raw):
        if isinstance(raw, Exception):
            return [(key, took)]
        elapsed = raw[2]
        return [(f"c{i}", e) for i, e in enumerate(elapsed, 1)] + [("rest", took - sum(elapsed))]

    def digest(self, name, raw):
        rc, text = raw[:2]
        return {"rc": rc, "lines": text.splitlines(), "bytes": len(text.encode())}

    def check(self, name, arg, out) -> str | None:
        want = self.CRITERIA + (1 if self.fault else 0)
        passed = [ln for ln in out["lines"] if ln.startswith("[PASS] criterion ")]
        if out["rc"] != 0 or len(out["lines"]) != want or len(passed) != want:
            return f"exit code {out['rc']}, {len(passed)} of {want} criteria passed"
        return None

    # -- layer hooks ------------------------------------------------------------

    scan_n = GRID[-1]  # criteria 7-9 scan the pinned grid

    def odometer_steps(self) -> int:
        from ostrowski import digits

        p2 = self.params[2]
        c1 = 4 * 50_000
        c4 = 0
        for k in (3, 4, 5):
            qs = q_list(2, k + 1)
            vals = digits.v_sequence(p2, k, 6).values
            for v in range(1, 6):
                Q = vals[v] - vals[v - 1]
                c4 += 3 * (Q + Q + qs[k - 1])  # three thetas: window plus reconstruction
        c6 = q_list(2, 21)[20]
        scans = 4 * 2 * GRID[-1]  # criteria 7, 8 and both reruns in 9
        return c1 + c4 + c6 + scans

    corollary_scans = 2  # criterion 8 and its rerun in criterion 9

    def odometer_replay(self):
        return [(self.params[m], 0, GRID[-1]) for m in (2, 3)]

    def table_sizes(self):
        return [(self.params[m], GRID[-1]) for m in (2, 3)]

    def phase_replay(self):
        return Fraction(1, 3), Fraction(1, 2), self.params[2], self.params[3]


WORKLOADS = {w.name: w for w in (JointScan, ExactWindows, RandomDigits, VerifyQuick)}
