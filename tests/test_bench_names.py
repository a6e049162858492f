"""The library names that perfbench/spans.py wraps by getattr or replays.

The tracer swaps these module attributes for wrappers during a traced
benchmark run, so a rename in the library would break
`perfbench/run.py --trace 1` without failing any other test.  spans.py is
read as text and executed in a fresh namespace: nothing is written next to
it, and nothing it defines is run beyond its module-level tables.
"""

import importlib
import types
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# names the replays use outside the SPANS and COUNTS tables
REPLAYED = [
    ("digits", "digits_of"),
    ("digits", "Odometer"),
    ("digits", "digit_sum_array"),
    ("expsum", "phase_term"),
    ("expsum", "CompensatedSum"),
]


def test_benchmark_names_resolve():
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), spans.__dict__)
    names = [(mod, attr) for mod, attr, _ in spans.SPANS + spans.COUNTS] + REPLAYED
    missing = [
        f"ostrowski.{mod}.{attr}"
        for mod, attr in names
        if not callable(getattr(importlib.import_module(f"ostrowski.{mod}"), attr, None))
    ]
    assert missing == []
