"""Checks of the CI workflow and of the installed command, made in tier 1.

Tier 1 is the one copy of every check of the package and its CLI. The
workflow runs it, a short benchmark pass, two calls of the installed
``discmorse`` command and the planted mutants of ``mutants/``, and a test
here reads the workflow to hold it to that; another holds the mutants'
table to the code and the tests. The installed command is checked through what it is built from: the
``[project.scripts]`` entry of pyproject.toml, and ``discmorse.cli`` run as
a program. The CLI answers below are checked in process, through
``discmorse.cli.main``; a new CLI check is one more such test, never a
workflow line.
"""

import ast
import json
import os
import random
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import discmorse
from discmorse import corpus
from discmorse.cli import main
from discmorse.complexes import barycentric_subdivision
from discmorse.euler import EulerChain, complete_matching, euler_chain_from_matching
from discmorse.io import format_chain, format_complex, format_matching
from discmorse.matchings import random_morse_matching

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(discmorse.__file__).resolve().parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


# the brute-force references live in tests/oracles.py: no package module
# may import them or define a moved or deleted name again
ORACLE_NAMES = (
    "vpaths", "multiplicity", "differential_entry", "path_counts_signed", "snf_is_valid",
    "integer_determinant", "boundary_zero_chain", "random_matching", "morse_iff_all_orders",
    "VPath", "HasseDiagram", "copying_eliminate", "copying_sequence", "hyperfaces_by_slices",
    "index_by_slices", "facets_by_slices", "TrackedSmith", "TrackedSmithForm", "tracked_smith",
    "cycle_class_by_transforms", "incidence", "dense_boundary", "thin_matching",
    "reference_collapse", "homologous_on_complex", "v_inverse", "covers",
)
ORACLE_PATTERN = re.compile(
    r"^\s*(from|import)\s+\S*oracles|^\s*(def|class)\s+(" + "|".join(ORACLE_NAMES) + r")\b"
)


def test_no_package_module_imports_or_defines_a_test_oracle():
    # the pattern finds what it exists to find
    assert ORACLE_PATTERN.search("def vpaths(H, M):")
    assert ORACLE_PATTERN.search("from .oracles import x")
    assert not ORACLE_PATTERN.search("def vpaths_count(H, M):")
    source = ROOT / "src" / "discmorse"
    hits = [
        f"{path.relative_to(source)}:{n}: {line}"
        for path in sorted(source.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ORACLE_PATTERN.search(line)
    ]
    assert hits == []


def test_the_console_script_is_cli_main():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts.group(1), re.M) == [
        ("discmorse", "discmorse.cli:main")
    ]


# a step of the workflow's one job, and the run lines of a step: one inline
# value, or a "run: |" block
STEP = re.compile(r"^ {6}- (?:name: (.*)\n)?((?:(?! {6}- ).*\n)*)", re.M)
RUN = re.compile(r"^ {8}run: (.*)\n((?: {10}.*\n)*)", re.M)


def workflow_steps() -> list[tuple[str, list[str]]]:
    """(name, run lines) of each step of the workflow, in order; an unnamed
    step has the name "" and a step without ``run`` no lines."""
    steps = []
    for name, body in STEP.findall(WORKFLOW.read_text()):
        inline, block = run.groups() if (run := RUN.search(body)) else ("", "")
        lines = [line.strip() for line in block.splitlines()] if inline == "|" else [inline]
        steps.append((name, [line for line in lines if line]))
    return steps


def test_the_workflow_installs_then_runs_tier_1_the_smoke_and_the_command():
    # the job's own keys, indented four spaces: a hung test cannot hold it
    job = re.search(r"^  tier-1:\n((?: {4}.*\n|\n)*)", WORKFLOW.read_text(), re.M).group(1)
    assert re.findall(r"^ {4}timeout-minutes: (.*)$", job, re.M) == ["15"]
    steps = workflow_steps()
    names = [name for name, _ in steps]
    run = dict(steps)
    assert "pip install -e '.[test]'" in run["Install"]
    after = names[names.index("Install") + 1:]
    assert after == [
        "Tier-1 tests", "Benchmark correctness smoke", "Installed discmorse command", "Planted mutants"
    ]
    assert all(run[name] for name in after)
    assert run["Tier-1 tests"] == [
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
    ]
    assert any(line.split()[0] == "discmorse" for line in run["Installed discmorse command"])
    assert run["Planted mutants"] == ["python3 mutants/run.py"]


def test_every_planted_mutant_has_its_snippet_once_and_names_existing_tests():
    mutants = runpy.run_path(str(ROOT / "mutants" / "table.py"))["MUTANTS"]
    assert len({m.name for m in mutants}) == len(mutants) > 20
    defined: dict[str, set[str]] = {}
    for m in mutants:
        assert (ROOT / m.file).read_text().count(m.find) == 1, m.name
        assert m.replace != m.find and m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text())
                defined[path] = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.startswith("test_") and name in defined[path], (m.name, test)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run(
        [sys.executable, "-m", "discmorse.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_the_cli_module_runs_as_a_program(tmp_path):
    usage = run_cli()
    assert usage.returncode == 2 and usage.stderr.startswith("usage: ")
    # sd of an 11-vertex facet is refused before it is built
    facets = tmp_path / "simplex10.facets"
    facets.write_text(" ".join(map(str, range(11))) + "\n")
    refused = run_cli("subdivide", str(facets))
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("error: ") and "more than" in refused.stderr


# --- CLI answers, in process through cli.main ---


def results(capsys, *argv: str) -> dict:
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)["results"]


def data(name: str) -> str:
    return str(PACKAGE / "data" / f"{name}.facets")


def sd2(X):
    return barycentric_subdivision(barycentric_subdivision(X).complex).complex


def test_subdivide_of_the_3_sphere(capsys):
    r = results(capsys, "subdivide", data("sphere3"))
    assert r["subdivision_cells"] == [30, 150, 240, 120] and r["euler_preserved"] is True
    assert len(r["barycenters"]) == 30 and len(r["facets"]) == 120


def test_morse_on_sd2_of_the_3_sphere_matches_dense_homology(tmp_path, capsys):
    path = tmp_path / "sd2_sphere3.facets"
    path.write_text(format_complex(sd2(corpus.sphere(3))))
    r = results(capsys, "morse", str(path))
    assert r["morse"] is True and r["homology_match"] is True


def test_homology_of_sd2_of_the_3_sphere(tmp_path, capsys):
    path = tmp_path / "sd2_sphere3.facets"
    path.write_text(format_complex(sd2(corpus.sphere(3))))
    r = results(capsys, "homology", str(path))
    assert r["betti"] == [1, 0, 0, 1]


def test_morse_finds_the_closed_vpath_of_a_torus_matching(tmp_path, capsys):
    path = tmp_path / "torus_cycle.matching"
    path.write_text("0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    r = results(capsys, "morse", data("torus"), "--matching", str(path))
    assert r["morse"] is False and r["closed_vpath"]


def test_reduce_stops_at_the_zero_pivot_of_a_torus_matching(tmp_path, capsys):
    path = tmp_path / "torus_cycle.matching"
    path.write_text("0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    r = results(capsys, "reduce", data("torus"), "--matching", str(path))
    assert r["morse"] is False and r["failed_step"] == 2 and r["failed_pivot"] == 0
    assert len(r["steps"]) == 2


def test_reduce_takes_max_orders_and_refuses_seed(tmp_path, capsys):
    path = tmp_path / "sphere1.matching"
    path.write_text("0 ; 0 1\n")
    argv = ["reduce", data("sphere1"), "--matching", str(path), "--all-orders"]
    r = results(capsys, *argv, "--max-orders", "3")
    assert r["orders_tested"] == 1 and r["all_orders_agree"] is True
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_euler_on_the_torus_has_a_complete_matching(capsys):
    r = results(capsys, "euler", data("torus"))
    assert r["complete"] is True and r["boundary_ok"] is True


def test_reduce_of_sd2_torus_lands_on_its_thom_smale_complex(tmp_path, capsys):
    X = sd2(corpus.torus())
    facets, matching = tmp_path / "sd2_torus.facets", tmp_path / "sd2_torus.matching"
    facets.write_text(format_complex(X))
    matching.write_text(format_matching(random_morse_matching(X, random.Random(0))))
    r = results(capsys, "reduce", str(facets), "--matching", str(matching))
    assert r["morse"] is True and r["matches_thom_smale"] is True
    assert r["reduced_sizes"] == [1, 2, 1]


def test_all_orders_of_eight_sd2_torus_pairs_agree_within_5_s(tmp_path, capsys):
    X = sd2(corpus.torus())
    facets, matching = tmp_path / "sd2_torus.facets", tmp_path / "sd2_torus_8.matching"
    facets.write_text(format_complex(X))
    M = random_morse_matching(X, random.Random(0))
    matching.write_text(format_matching(M.pairs()[:8]))
    start = time.perf_counter()
    r = results(capsys, "reduce", str(facets), "--matching", str(matching), "--all-orders")
    elapsed = time.perf_counter() - start
    assert r["orders_tested"] == 40320 and r["exhaustive"] is True
    assert r["all_orders_agree"] is True and r["matches_thom_smale"] is True
    assert elapsed < 5, f"{elapsed:.1f} s"


def test_euler_compare_on_sd2_torus_sees_an_essential_loop(tmp_path, capsys):
    T1 = barycentric_subdivision(corpus.torus())
    T2 = barycentric_subdivision(T1.complex)
    X = T2.complex

    def up(S, w):  # the closed walk w on S.complex, each edge through its barycenter
        b = S.barycenter_of
        return [b[c] for p, q in zip(w, w[1:]) for c in ((p,), tuple(sorted((p, q))))] + [b[(w[-1],)]]

    w = up(T2, up(T1, [0, 1, 2, 3, 4, 5, 6, 0]))
    loop = [
        s for p, q in zip(w, w[1:]) for e in [tuple(sorted((p, q)))]
        for s in (((p,), e, 1), (e, (q,), 1))
    ]
    xi = euler_chain_from_matching(X, complete_matching(X.index()))
    facets, chain = tmp_path / "sd2_torus.facets", tmp_path / "sd2_torus_loop.chain"
    facets.write_text(format_complex(X))
    chain.write_text(format_chain(EulerChain.from_segments(list(xi.segments) + loop)))
    r = results(capsys, "euler", str(facets), "--compare", str(chain))
    assert r["comparable"] is True and r["homologous"] is False
    # the loop is what makes the difference: the chain alone is homologous
    chain.write_text(format_chain(xi))
    r = results(capsys, "euler", str(facets), "--compare", str(chain))
    assert r["comparable"] is True and r["homologous"] is True
