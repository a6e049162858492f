"""Digit expansion, digit sums, and streaming enumeration for alpha(m).

Every nonnegative integer has a unique expansion n = sum_i eps_i * q_i over
the convergent denominators, subject to the admissibility rule

    eps_0 = 0;  0 <= eps_i <= a_{i+1};  eps_i = a_{i+1}  forces  eps_{i-1} = 0,

where the partial quotients alternate a_1, a_2, ... = 1, m, 1, m, ...  The
expansion is computed greedily from the top, for a range at once by
digits_matrix (int32 while hi <= 2^31, int64 up to 2^63, Python ints
beyond); step_rows applies the successor's carry rule to a block of rows
at once (the Odometer, which walks 0, 1, 2, ... with amortized O(1) digit
rewrites per step, is its test oracle and feeds no scan);
block_start finds the v-th integer whose low digits vanish without
enumerating the ones before it.

block_runs streams any range as runs (offset, base, length) of one table
T = S(0 .. q_K - 1), with S = base + T[offset + t] on each run.  It is the
one digit-sum stream: the joint pass (equidist.joint_folds) reads the runs
through residue rows of T, and expsum.m_sums and acceptance criterion 9
read base + T[offset:offset + length] itself.

Digit strings serialize least-significant first as comma-separated
integers, e.g. "0,2,0,2" for 10 = 2*q_1 + 2*q_3 when m = 2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import UsageError, check, check_index
from .cf import AlphaParams, q_sequence

_TABLE_LIMIT = 1 << 16  # entries in the engine's block table, at most


@dataclass(frozen=True, slots=True)
class DigitString:
    """An admissible digit vector eps_0 .. eps_{K-1}, least significant first."""

    params: AlphaParams
    eps: tuple[int, ...]

    def value(self) -> int:
        qs = q_sequence(self.params, min_len=len(self.eps))
        return sum(e * q for e, q in zip(self.eps, qs))

    def digit_sum(self) -> int:
        return sum(self.eps)

    def serialize(self) -> str:
        return ",".join(str(e) for e in self.eps)

    def __str__(self) -> str:
        return self.serialize()


# No library caller; kept, with value_of, for the benchmark's digit replay.
@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of the admissibility check; index points at the first violation."""

    ok: bool
    index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate(eps, params: AlphaParams) -> ValidationReport:
    """Check the three admissibility clauses, reporting the first violation."""
    if isinstance(eps, DigitString):
        eps = eps.eps
    prev = 0
    for i, e in enumerate(eps):
        if e < 0:
            return ValidationReport(False, i, f"negative digit {e}")
        if i == 0:
            if e != 0:
                return ValidationReport(False, 0, "eps_0 must be 0 (a_1 = 1)")
        else:
            cap = params.digit_cap(i)
            if e > cap:
                return ValidationReport(False, i, f"digit {e} exceeds cap {cap}")
            if e == cap and prev != 0:
                return ValidationReport(
                    False, i, f"digit at cap {cap} requires a zero below it"
                )
        prev = e
    return ValidationReport(True)


def _descend(rem, qs: list[int], top: int, eps) -> None:
    """Greedy step eps[i] = rem // q_i, rem -= eps[i] * q_i for i = top .. 1,
    on a Python int or elementwise and in place on an integer array (one floor
    division and one product, where divmod costs about twice as much on
    arrays); rem < q_{i+1} keeps each digit within its cap, and q_1 = 1
    leaves no remainder."""
    for i in range(top, 0, -1):
        digit = rem // qs[i]
        eps[i] = digit
        digit *= qs[i]
        rem -= digit


def digits_of(n: int, params: AlphaParams) -> DigitString:
    """Unique admissible digit string of n, by greedy descent from the top."""
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    qs = q_sequence(params, above=n)
    top = max(bisect_right(qs, n) - 1, 0)
    eps = [0] * (top + 1)
    _descend(n, qs, top, eps)
    return DigitString(params, tuple(eps))


def digits_matrix(params: AlphaParams, lo: int, hi: int) -> np.ndarray:
    """Greedy digits of every n in [lo, hi): row n - lo is digits_of(n).eps
    zero-padded to the width of hi - 1, in the smallest unsigned dtype that
    holds the largest cap.  The same descent as digits_of, elementwise on
    int32 values while hi <= 2**31 (about 0.6 of the time of int64), on int64
    values up to 2**63, or on Python ints (object dtype) beyond."""
    if not 0 <= lo < hi:
        raise UsageError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    qs = q_sequence(params, above=hi - 1)
    top = max(bisect_right(qs, hi - 1) - 1, 0)
    cap = max(map(params.digit_cap, (1, 2)))
    cols = np.zeros((top + 1, hi - lo), dtype=np.min_scalar_type(cap))
    dtype = np.int32 if hi <= 2**31 else np.int64 if hi <= 2**63 else object
    _descend(np.arange(lo, hi, dtype=dtype), qs, top, cols)
    return cols.T


# No library caller; kept for the benchmark's digit replay.
def value_of(digits: DigitString) -> int:
    """Value of an admissible digit string; rejects inadmissible input."""
    report = validate(digits.eps, digits.params)
    if not report:
        raise UsageError(f"inadmissible digits at index {report.index}: {report.reason}")
    return digits.value()


def digit_sum_bound(params: AlphaParams, N: int) -> int:
    """W = 1 + sum_{1 <= i < K} a_{i+1}, K the least index with q_K >= N:
    every n < N has its digits below K, so 0 <= S(n) < W."""
    qs = q_sequence(params, above=N - 1)
    return 1 + sum(params.digit_cap(i) for i in range(1, bisect_left(qs, N)))


# No library caller; kept for the benchmark's digit replay.
def truncate(n: int, params: AlphaParams, k: int) -> int:
    """Value of the low-k digits of n; always below q_k."""
    if k < 0:
        raise UsageError(f"k must be nonnegative, got {k}")
    check_index("truncate index k^2", k)
    eps = digits_of(n, params).eps[:k]
    qs = q_sequence(params, min_len=k)
    return sum(e * q for e, q in zip(eps, qs))


# No library caller; kept as the test oracle of step_rows and of the block runs,
# and for the benchmark's walks.
class Odometer:
    """Streaming successor state: digits and digit sum of n, n+1, n+2, ...

    Carries restore admissibility locally: a unit lands on position 1; a
    digit reaching a_2 + 1 there collapses to q_2; a digit raised next to an
    at-cap neighbour collapses via q_{i+2} = a_{i+2} q_{i+1} + q_i.  Each
    step touches O(1) digits amortized.  Single-owner mutable state.
    """

    __slots__ = ("params", "n", "digit_sum", "_eps", "_caps")

    def __init__(self, params: AlphaParams, start: int = 0):
        self.params = params
        self.n = start
        self._caps = (params.digit_cap(2), params.digit_cap(1))  # position i's: [i & 1]
        seed = digits_of(start, params)
        self._eps = list(seed.eps) + [0, 0, 0]
        self.digit_sum = seed.digit_sum()

    def digits(self) -> tuple[int, ...]:
        """Current digit string, trimmed to match digits_of(n)."""
        eps = self._eps
        top = len(eps) - 1
        while top > 0 and eps[top] == 0:
            top -= 1
        return tuple(eps[: top + 1])

    def step(self) -> None:
        """Advance to n+1, rewriting digits in place."""
        eps = self._eps
        caps = self._caps
        ds = self.digit_sum
        i = 1
        while True:
            if i + 1 >= len(eps):
                eps.extend((0,) * (i + 2 - len(eps)))
            eps[i] += 1
            ds += 1
            if eps[i] > caps[i & 1]:
                # only position 1 can overflow: (a_2 + 1)*q_1 = q_2 there
                assert i == 1, "digit overflow above position 1"
                eps[1] = 0
                ds -= caps[1] + 1
                i = 2
                continue
            cap_up = caps[(i + 1) & 1]
            if eps[i + 1] == cap_up:
                # neighbour sits at its cap, which demands a zero below it:
                # carry with q_{i+2} = a_{i+2} q_{i+1} + q_i
                eps[i] -= 1
                eps[i + 1] = 0
                ds -= 1 + cap_up
                i += 2
                continue
            break
        self.digit_sum = ds
        self.n += 1


def step_rows(params: AlphaParams, rows: np.ndarray) -> np.ndarray:
    """Odometer.step on every row of a (count, width) block of admissible
    digit rows at once: the successors, as (count, width + 2) rows in a
    dtype that holds every digit plus one, so that a carry past the block's
    width shows in the two extra columns.

    Column by column, on the rows whose unit is still pending there: a unit
    lands on position 1; position 1 overflows at a_2 + 1 to q_2; raising a
    digit next to a neighbour at its cap carries two places up instead.
    """
    count, width = rows.shape
    top = max(params.digit_cap(1), params.digit_cap(2), int(rows.max(initial=0))) + 1
    cols = np.zeros((width + 2, count), dtype=np.min_scalar_type(top))
    cols[:width] = rows.T
    # every row is pending at column 1: masks, applied as products
    col, pending = cols[1], [np.arange(0)] * (width + 4)
    over = col >= params.digit_cap(1)  # (a_2 + 1)*q_1 = q_2
    at_cap = (cols[2] == params.digit_cap(2)) & ~over if width else np.zeros_like(over)
    cols[2:3] *= ~at_cap  # no column 2 when width = 0
    col += ~(over | at_cap)
    col *= ~over
    pending[2], pending[3] = np.flatnonzero(over), np.flatnonzero(at_cap)
    for i in range(2, width + 2):
        idx = pending[i]
        if not idx.size:
            continue
        col = cols[i]
        raised = col[idx] + 1
        if i <= width:
            # a neighbour at its cap demands a zero below it:
            # carry with q_{i+2} = a_{i+2} q_{i+1} + q_i
            at_cap = cols[i + 1][idx] == params.digit_cap(i + 1)
            pending[i + 2] = idx[at_cap]
            cols[i + 1][pending[i + 2]] = 0
            idx, raised = idx[~at_cap], raised[~at_cap]
        col[idx] = raised
    return cols.T


# No library caller; kept, with v_sequence, for the benchmark's window-DFT setup.
@dataclass(frozen=True, slots=True)
class VSequence:
    """Increasing enumeration n_0 = 0 < n_1 < ... of the integers whose
    digits below index k all vanish; consecutive gaps are q_{k-1} or q_k."""

    params: AlphaParams
    k: int
    values: tuple[int, ...]
    gaps: tuple[int, ...]


def block_start(params: AlphaParams, k: int, v: int) -> int:
    """The v-th (0-based) integer whose digits below index k all vanish.

    Their digit strings on positions k, k+1, ... in value order form the
    system of the shifted partial quotients a_{k-1+i}, so v's greedy digits
    d over c_0 = c_1 = 1, c_i = a_{k-1+i} c_{i-1} + c_{i-2} give the value
    sum_i d_i q_{k-1+i}, in O(log v)."""
    if k < 2:
        raise UsageError(f"k must be >= 2, got {k}")
    if v < 0:
        raise UsageError(f"v must be nonnegative, got {v}")
    check_index("block_start index k^2", k)
    cs = [1, 1]
    while cs[-1] <= v:
        cs.append(params.digit_cap(k - 2 + len(cs)) * cs[-1] + cs[-2])
    d = [0] * (len(cs) - 1)
    _descend(v, cs, len(d) - 1, d)
    return sum(e * q for e, q in zip(d, q_sequence(params, min_len=k + len(d))[k - 1:]))


def v_sequence(params: AlphaParams, k: int, count: int) -> VSequence:
    """First `count` elements of the zero-low-digit set and their gaps."""
    if count < 1:
        raise UsageError(f"count must be >= 1, got {count}")
    check("v_sequence count", count)
    values = tuple(block_start(params, k, v) for v in range(count))
    return VSequence(params, k, values, tuple(b - a for a, b in zip(values, values[1:])))


def digit_sum_array(params: AlphaParams, N: int, trunc: int | None = None) -> np.ndarray:
    """Vector of S_alpha(n) (or S_{alpha,k} with trunc=k) for n = 0 .. N-1.

    Built by the block self-similarity of the value-ordered digit strings:
    [0, q_j) splits into a_j shifted copies of [0, q_{j-1}) followed by one
    copy of [0, q_{j-2}), each written in place, from the array's own
    prefix, into one int32 array of length N.  Independent of the greedy
    expansion and of the odometer, which makes it a useful cross-check, and
    it is fast enough for N in the tens of millions.
    """
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    check("digit_sum_array N", N)
    qs = q_sequence(params, above=N)
    out = np.zeros(N, dtype=np.int32)
    j = 1
    while qs[j] < N:  # out[:q_{j-1}] is level j - 1
        j += 1
        q1, need = qs[j - 1], min(qs[j], N)
        counted = trunc is None or (j - 1) < trunc
        full = min(params.digit_cap(j - 1), need // q1)  # whole copies of [0, q_{j-1})
        shifts = np.arange(1, full, dtype=np.int32) * counted
        np.add(out[None, :q1], shifts[:, None], out=out[q1 : full * q1].reshape(full - 1, q1))
        # the rest is a prefix of [0, q_{j-1}): a cut copy, or all of [0, q_{j-2})
        np.add(out[: need - full * q1], full * counted, out=out[full * q1 : need])
    return out


def _block_table(params: AlphaParams) -> tuple[int, np.ndarray]:
    """The largest K with q_K <= 2^16 and the table S(0 .. q_K - 1).

    Rebuilt per stream (under a millisecond) rather than cached, so that no
    table outlives the scan that used it."""
    qs = q_sequence(params, above=_TABLE_LIMIT)
    K = bisect_right(qs, _TABLE_LIMIT) - 1
    return K, digit_sum_array(params, qs[K])


def block_runs(
    params: AlphaParams, lo: int, hi: int
) -> tuple[np.ndarray, Iterator[tuple[int, int, int]]]:
    """The engine's table T = S(0 .. q_K - 1) and the runs (offset, base,
    length) that tile [lo, hi) in order, with S(n + t) = base + T[offset + t]
    for 0 <= t < length, n the run's first value.

    Block self-similarity (Allouche & Shallit, Automatic Sequences, ch. 3):
    when the digits of v below index K all vanish, S(v + t) = S(v) + T[t]
    on a block of length q_{K-1} if eps_K(v) sits at its cap a_{K+1} and
    q_K otherwise.  Each run is one block clipped to [lo, hi), so only the
    first can start at a nonzero offset, and each costs one digits_of.
    """
    K, table = _block_table(params)
    qs = q_sequence(params, min_len=K + 1)
    cap = params.digit_cap(K)

    def runs() -> Iterator[tuple[int, int, int]]:
        n = lo
        while n < hi:
            eps = digits_of(n, params).eps
            offset = sum(e * q for e, q in zip(eps[:K], qs))
            at_cap = len(eps) > K and eps[K] == cap
            end = n - offset + (qs[K - 1] if at_cap else qs[K])
            yield offset, sum(eps[K:]), min(end, hi) - n
            n = end

    return table, runs()

