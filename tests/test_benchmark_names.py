"""The library names the benchmark harness looks up.

perfbench/ is not part of this suite, so a rename or a move that breaks a
traced run would otherwise show only when the benchmark runs. Both lists
are read from the harness's source without importing it, so they follow it.
"""

import ast
import importlib
from pathlib import Path

import discmorse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# perfbench/tracing.py, LAYER_FUNCTIONS: the tracer wraps each
# discmorse.<module>.<function> by looking it up there
(LAYERS,) = [
    node.value for node in ast.parse((PERFBENCH / "tracing.py").read_text()).body
    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYER_FUNCTIONS"
]
TRACED = [(module, name) for module, names in ast.literal_eval(LAYERS).values() for name in names]

# perfbench/workloads.py: every dm.<name> the workloads call, dm being the
# imported discmorse package
PACKAGE_NAMES = sorted({
    node.attr for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dm"
})


def test_the_names_the_benchmark_reads_exist():
    assert TRACED and PACKAGE_NAMES
    importlib.import_module("discmorse.cli")  # perfbench/run.py imports it, so dm.cli exists
    missing = [
        f"discmorse.{module}.{name}"
        for module, name in TRACED
        if not callable(getattr(importlib.import_module(f"discmorse.{module}"), name, None))
    ]
    missing += [f"discmorse.{name}" for name in PACKAGE_NAMES if not hasattr(discmorse, name)]
    assert not missing
