"""Ostrowski numeration for alpha = [0; 1, m, 1, m, ...].

Exact continued-fraction constants and quadratic-surd arithmetic, digit
expansion with a streaming odometer, exponential sums over digit-sum
functions, and exact joint residue counting with empirical error-exponent
fits.  Every joint scan takes (grid, systems, ...) for r >= 2 systems, as
joint_folds(grid, systems, [count_fold(systems, moduli)]) does.
"""

from .budget import BudgetError, UsageError
from .cf import (
    AlphaParams,
    ConvergentTable,
    convergents,
    frac_mul,
    make_alpha,
    q_sequence,
)
from .digits import (
    DigitString,
    Odometer,
    ValidationReport,
    VSequence,
    digit_sum_array,
    digits_of,
    truncate,
    v_sequence,
    validate,
    value_of,
)
from .equidist import (
    DeltaFit,
    ExpSumSeries,
    JointCountReport,
    MismatchRecord,
    count_fold,
    delta_scan_corollary,
    delta_scan_theorem,
    joint_exp_series,
    joint_folds,
    mismatch_sweep,
)
from .expsum import (
    CompensatedSum,
    DecaySeries,
    MinNormResult,
    SpectrumL,
    b_zero_normalization,
    b_zero_surds,
    dft_window,
    m_sums,
    min_norm_sum,
    reconstruction_error,
    schmidt_margin,
    single_decay,
)
from .surd import Surd

__version__ = "0.1.0"

__all__ = [
    "AlphaParams",
    "BudgetError",
    "CompensatedSum",
    "ConvergentTable",
    "DecaySeries",
    "DeltaFit",
    "DigitString",
    "ExpSumSeries",
    "JointCountReport",
    "MinNormResult",
    "MismatchRecord",
    "Odometer",
    "SpectrumL",
    "Surd",
    "UsageError",
    "VSequence",
    "ValidationReport",
    "b_zero_normalization",
    "b_zero_surds",
    "convergents",
    "count_fold",
    "delta_scan_corollary",
    "delta_scan_theorem",
    "dft_window",
    "digit_sum_array",
    "digits_of",
    "frac_mul",
    "joint_exp_series",
    "joint_folds",
    "m_sums",
    "make_alpha",
    "min_norm_sum",
    "mismatch_sweep",
    "q_sequence",
    "reconstruction_error",
    "schmidt_margin",
    "single_decay",
    "truncate",
    "v_sequence",
    "validate",
    "value_of",
]
