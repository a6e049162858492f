"""Digit expansion, digit sums, and streaming enumeration for alpha(m).

Every nonnegative integer has a unique expansion n = sum_i eps_i * q_i over
the convergent denominators, subject to the admissibility rule

    eps_0 = 0;  0 <= eps_i <= a_{i+1};  eps_i = a_{i+1}  forces  eps_{i-1} = 0,

where the partial quotients alternate a_1, a_2, ... = 1, m, 1, m, ...  The
expansion is computed greedily from the top; the Odometer enumerates the
digit strings of 0, 1, 2, ... with amortized O(1) digit rewrites per step
instead of re-expanding each n, and step_rows applies its carry rule to a
whole block of digit rows at once; block_start finds the v-th integer whose
low digits vanish without enumerating the ones before it; digit_sum_chunks
streams the digit sums of any range from one block table.

Digit strings serialize least-significant first as comma-separated
integers, e.g. "0,2,0,2" for 10 = 2*q_1 + 2*q_3 when m = 2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cf import AlphaParams, q_sequence

_TABLE_LIMIT = 1 << 16  # entries in the engine's block table, at most
CHUNK = 1 << 14


@dataclass(frozen=True, slots=True)
class DigitString:
    """An admissible digit vector eps_0 .. eps_{K-1}, least significant first."""

    params: AlphaParams
    eps: tuple[int, ...]

    def value(self) -> int:
        qs = q_sequence(self.params.m, min_len=len(self.eps))
        return sum(e * q for e, q in zip(self.eps, qs))

    def digit_sum(self) -> int:
        return sum(self.eps)

    def serialize(self) -> str:
        return ",".join(str(e) for e in self.eps)

    def __str__(self) -> str:
        return self.serialize()


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
    """Greedy step eps[i], rem = divmod(rem, q_i) for i = top .. 1, on a Python
    int or elementwise on an int64 array; rem < q_{i+1} keeps each digit
    within its cap, and q_1 = 1 leaves no remainder."""
    for i in range(top, 0, -1):
        eps[i], rem = divmod(rem, qs[i])


def digits_of(n: int, params: AlphaParams) -> DigitString:
    """Unique admissible digit string of n, by greedy descent from the top."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    qs = q_sequence(params.m, above=n)
    top = max(bisect_right(qs, n) - 1, 0)
    eps = [0] * (top + 1)
    _descend(n, qs, top, eps)
    return DigitString(params, tuple(eps))


def digits_matrix(params: AlphaParams, lo: int, hi: int) -> np.ndarray:
    """Greedy digits of every n in [lo, hi): row n - lo is digits_of(n).eps
    zero-padded to the width of hi - 1, in the smallest unsigned dtype that
    holds m.  The same descent as digits_of, elementwise on int64 values, so
    hi may not exceed 2**63 - 1."""
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo}, hi={hi}")
    if hi > 2**63 - 1:
        raise ValueError(f"hi={hi} exceeds the int64 range of digits_matrix")
    qs = q_sequence(params.m, above=hi - 1)
    top = max(bisect_right(qs, hi - 1) - 1, 0)
    cols = np.zeros((top + 1, hi - lo), dtype=np.min_scalar_type(params.m))
    _descend(np.arange(lo, hi, dtype=np.int64), qs, top, cols)
    return cols.T


def value_of(digits: DigitString) -> int:
    """Value of an admissible digit string; rejects inadmissible input."""
    report = validate(digits.eps, digits.params)
    if not report:
        raise ValueError(f"inadmissible digits at index {report.index}: {report.reason}")
    return digits.value()


def digit_sum(n: int, params: AlphaParams) -> int:
    """S_alpha(n): sum of all digits of n."""
    return digits_of(n, params).digit_sum()


def digit_sum_bound(params: AlphaParams, N: int) -> int:
    """W = 1 + sum_{1 <= i < K} a_{i+1}, K the least index with q_K >= N:
    every n < N has its digits below K, so 0 <= S(n) < W."""
    qs = q_sequence(params.m, above=N - 1)
    return 1 + sum(params.digit_cap(i) for i in range(1, bisect_left(qs, N)))


def truncate(n: int, params: AlphaParams, k: int) -> int:
    """Value of the low-k digits of n; always below q_k."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    eps = digits_of(n, params).eps[:k]
    qs = q_sequence(params.m, min_len=k)
    return sum(e * q for e, q in zip(eps, qs))


class Odometer:
    """Streaming successor state: digits and digit sum of n, n+1, n+2, ...

    Carries restore admissibility locally: a unit lands on position 1; a
    digit passing m+1 there collapses to q_2; a digit raised next to an
    at-cap neighbour collapses via q_{i+2} = a_{i+2} q_{i+1} + q_i.  Each
    step touches O(1) digits amortized.  Single-owner mutable state;
    reconstruction_error walks one for its direct signal, and the scans use
    digit_sum_chunks and keep the odometer as their test oracle.
    """

    __slots__ = ("params", "n", "digit_sum", "_eps", "_m")

    def __init__(self, params: AlphaParams, start: int = 0):
        self.params = params
        self.n = start
        self._m = params.m
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
        m = self._m
        ds = self.digit_sum
        i = 1
        while True:
            if i + 1 >= len(eps):
                eps.extend((0,) * (i + 2 - len(eps)))
            eps[i] += 1
            ds += 1
            if eps[i] > (m if i & 1 else 1):
                # only position 1 can overflow: (m+1)*q_1 = q_2 there
                assert i == 1, "digit overflow above position 1"
                eps[1] = 0
                ds -= m + 1
                i = 2
                continue
            cap_up = m if (i + 1) & 1 else 1
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
    lands on position 1; position 1 overflows at m + 1 to q_2; raising a
    digit next to a neighbour at its cap carries two places up instead.
    """
    count, width = rows.shape
    top = max(params.m, int(rows.max(initial=0))) + 1
    cols = np.zeros((width + 2, count), dtype=np.min_scalar_type(top))
    cols[:width] = rows.T
    pending = [np.arange(count) if i == 1 else np.arange(0) for i in range(width + 3)]
    for i in range(1, width + 2):
        idx = pending[i]
        if not idx.size:
            continue
        col = cols[i]
        raised = col[idx] + 1
        if i == 1:
            over = raised > params.m  # (m+1)*q_1 = q_2
            pending[2] = idx[over]
            col[pending[2]] = 0
            idx, raised = idx[~over], raised[~over]
        if i <= width:
            # a neighbour at its cap demands a zero below it:
            # carry with q_{i+2} = a_{i+2} q_{i+1} + q_i
            at_cap = cols[i + 1][idx] == params.digit_cap(i + 1)
            pending[i + 2] = idx[at_cap]
            cols[i + 1][pending[i + 2]] = 0
            idx, raised = idx[~at_cap], raised[~at_cap]
        col[idx] = raised
    return cols.T


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
        raise ValueError(f"k must be >= 2, got {k}")
    if v < 0:
        raise ValueError(f"v must be nonnegative, got {v}")
    cs = [1, 1]
    while cs[-1] <= v:
        cs.append(params.digit_cap(k - 2 + len(cs)) * cs[-1] + cs[-2])
    d = [0] * (len(cs) - 1)
    _descend(v, cs, len(d) - 1, d)
    return sum(e * q for e, q in zip(d, q_sequence(params.m, min_len=k + len(d))[k - 1:]))


def v_sequence(params: AlphaParams, k: int, count: int) -> VSequence:
    """First `count` elements of the zero-low-digit set and their gaps."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    values = tuple(block_start(params, k, v) for v in range(count))
    return VSequence(params, k, values, tuple(b - a for a, b in zip(values, values[1:])))


def digit_sum_array(params: AlphaParams, N: int, trunc: int | None = None) -> np.ndarray:
    """Vector of S_alpha(n) (or S_{alpha,k} with trunc=k) for n = 0 .. N-1.

    Built by the block self-similarity of the value-ordered digit strings:
    [0, q_j) splits into a_j shifted copies of [0, q_{j-1}) followed by one
    copy of [0, q_{j-2}).  The top level builds only the copies that reach
    N, so memory stays O(N) for any m.  Independent of the greedy expansion
    and of the odometer, which makes it a useful cross-check, and it is fast
    enough for N in the tens of millions.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    qs = q_sequence(params.m, above=N)
    blocks: list[np.ndarray] = [np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)]
    j = 1
    while qs[j] < N:
        j += 1
        a_j = params.digit_cap(j - 1)
        counted = trunc is None or (j - 1) < trunc
        need = min(qs[j], N)
        copies = min(a_j, -(-need // qs[j - 1]))
        shifts = np.arange(copies, dtype=np.int32)[:, None] * counted
        parts = [(blocks[j - 1] + shifts).ravel()]
        if copies * qs[j - 1] < need:
            parts.append(blocks[j - 2] + (a_j if counted else 0))
        blocks.append(np.concatenate(parts))
    return blocks[j][:N].copy()


def _block_table(params: AlphaParams) -> tuple[int, np.ndarray]:
    """The largest K with q_K <= 2^16 and the table S(0 .. q_K - 1).

    Rebuilt per stream (under a millisecond) rather than cached, so that no
    table outlives the scan that used it."""
    qs = q_sequence(params.m, above=_TABLE_LIMIT)
    K = bisect_right(qs, _TABLE_LIMIT) - 1
    return K, digit_sum_array(params, qs[K])


def digit_sum_chunks(
    params: AlphaParams, lo: int, hi: int, *, _chunk: int = CHUNK
) -> Iterator[np.ndarray]:
    """S_alpha(n) for lo <= n < hi, as fresh int64 arrays of `_chunk` values
    (the last one may be shorter), in O(q_K + _chunk) memory for any range.

    Block self-similarity (Allouche & Shallit, Automatic Sequences, ch. 3):
    when the digits of v below index K all vanish, S(v + t) = S(v) + T[t]
    with T = S(0 .. q_K - 1), on a block of length q_{K-1} if eps_K(v) sits
    at its cap a_{K+1} and q_K otherwise.  Each block costs one digits_of.
    """
    K, table = _block_table(params)
    qs = q_sequence(params.m, min_len=K + 1)
    cap = params.digit_cap(K)

    def block_of(n: int) -> tuple[int, int, int]:
        # (v, S(v), block length) for the block holding n
        eps = digits_of(n, params).eps
        low = sum(e * q for e, q in zip(eps[:K], qs))
        at_cap = len(eps) > K and eps[K] == cap
        return n - low, sum(eps[K:]), qs[K - 1] if at_cap else qs[K]

    v, base, length = block_of(lo)
    for start in range(lo, hi, _chunk):
        end = min(start + _chunk, hi)
        if end <= v + length:  # the chunk lies in the current block
            yield np.add(table[start - v : end - v], base, dtype=np.int64)
            continue
        out = np.empty(end - start, dtype=np.int64)
        n = start
        while n < end:
            if n == v + length:
                v, base, length = block_of(n)
            take = min(end, v + length) - n
            np.add(table[n - v : n - v + take], base, out=out[n - start : n - start + take])
            n += take
        yield out
