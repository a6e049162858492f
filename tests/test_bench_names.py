"""The library names that the benchmark harness reaches.

perfbench/spans.py swaps module attributes for wrappers during a traced
benchmark run, and perfbench/workloads.py calls library functions through
the module objects, so a rename or deletion in the library would make
`perfbench/run.py` fail without failing any other test.  spans.py is read
as text and executed in a fresh namespace: nothing is written next to it,
and nothing it defines is run beyond its module-level tables.  workloads.py
is only parsed.
"""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PY = PERFBENCH / "spans.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"
MODULES = {"acceptance", "cf", "cli", "digits", "equidist", "expsum"}

# names the replays use outside the SPANS and COUNTS tables
REPLAYED = [
    ("digits", "digits_of"),
    ("digits", "Odometer"),
    ("digits", "digit_sum_array"),
    ("expsum", "phase_term"),
    ("expsum", "CompensatedSum"),
]


def _missing(names):
    return [
        f"ostrowski.{mod}.{attr}"
        for mod, attr in names
        if not callable(getattr(importlib.import_module(f"ostrowski.{mod}"), attr, None))
    ]


def test_benchmark_names_resolve():
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), spans.__dict__)
    names = [(mod, attr) for mod, attr, _ in spans.SPANS + spans.COUNTS] + REPLAYED
    assert _missing(names) == []


def test_workload_names_resolve():
    tree = ast.parse(WORKLOADS_PY.read_text(), str(WORKLOADS_PY))
    names = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }
    assert names
    assert _missing(sorted(names)) == []
