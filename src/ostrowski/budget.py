"""Operation-size caps for the long scans.

The global cap bounds single-pass enumeration lengths (joint scan N, DFT
window lengths) and convergent indices k, charged as k^2 or k*(k + m) by
check_index; the frequency cap bounds q_k * |h| products in the twisted
window sums.  OSTROWSKI_BUDGET in the environment overrides the global cap,
and the frequency cap scales with it.  Every argument check in the package
raises UsageError; with BudgetError it is the bad-input family (exit 2).
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10_000_000
ENV_VAR = "OSTROWSKI_BUDGET"


class BudgetError(ValueError):
    """An operation would exceed a configured size cap; names the cap."""

    def __init__(self, cap_name: str, requested: int, cap: int):
        self.cap_name = cap_name
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"{cap_name} exceeded: requested {requested}, cap {cap} "
            f"(override with {ENV_VAR})"
        )


class UsageError(ValueError):
    """A caller's argument, or OSTROWSKI_BUDGET, breaks a documented rule."""


def global_budget() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise UsageError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def frequency_budget() -> int:
    """Cap on q_k * |h| for twisted sums (10x the global enumeration cap)."""
    return 10 * global_budget()


def check(cap_name: str, requested: int, cap: int | None = None) -> None:
    limit = global_budget() if cap is None else cap
    if requested > limit:
        raise BudgetError(cap_name, requested, limit)


def check_index(cap_name: str, k: int, terms: int = 0) -> None:
    """Charge index k as k*(k + terms) before q_0 .. q_k grow: about k^2
    bits of exact convergents, plus `terms` of work per index."""
    check(cap_name, k * (k + terms))
