"""The library names the benchmark harness looks up.

perfbench/ is not part of this suite, so a rename or a move that breaks a
traced run would otherwise show only when the benchmark runs. Both lists
are copied by hand; update them together with their source files.
"""

import importlib

import discmorse

# perfbench/tracing.py, LAYER_FUNCTIONS: the tracer wraps each
# discmorse.<module>.<function> by looking it up there
TRACED = [
    ("complexes", "barycentric_subdivision"),
    ("io", "parse_complex"),
    ("io", "parse_matching"),
    ("io", "parse_chain"),
    ("io", "format_complex"),
    ("io", "format_matching"),
    ("io", "format_chain"),
    ("chains", "chain_complex"),
    ("matchings", "hasse"),
    ("matchings", "random_morse_matching"),
    ("matchings", "greedy_morse_matching"),
    ("matchings", "is_morse"),
    ("matchings", "find_closed_vpath"),
    ("morse", "thom_smale_complex"),
    ("elimination", "gaussian_eliminate"),
    ("elimination", "eliminate_sequence"),
    ("elimination", "all_orders_agree"),
    ("homology", "homology"),
    ("homology", "cycle_class"),
    ("euler", "complete_matching"),
    ("euler", "euler_chain_from_matching"),
    ("euler", "homologous"),
]

# perfbench/workloads.py: every dm.<name> the workloads call, dm being the
# imported discmorse package
PACKAGE_NAMES = [
    "EulerChain",
    "Matching",
    "SimplicialComplex",
    "barycentric_subdivision",
    "chain_complex",
    "cli",
    "complete_matching",
    "eliminate_sequence",
    "euler_chain_from_matching",
    "greedy_morse_matching",
    "hasse",
    "homologous",
    "homology",
    "is_morse",
    "product_triangulation",
    "random_morse_matching",
    "thom_smale_complex",
]


def test_the_names_the_benchmark_reads_exist():
    importlib.import_module("discmorse.cli")  # perfbench/run.py imports it, so dm.cli exists
    missing = [
        f"discmorse.{module}.{name}"
        for module, name in TRACED
        if not callable(getattr(importlib.import_module(f"discmorse.{module}"), name, None))
    ]
    missing += [f"discmorse.{name}" for name in PACKAGE_NAMES if not hasattr(discmorse, name)]
    assert not missing
