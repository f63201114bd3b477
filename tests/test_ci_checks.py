"""Checks of the CI workflow that tier 1 can make itself.

The pattern of the "No test oracles in the package" step is read from the
workflow file, so the list of names has one source. The installed
``discmorse`` command is checked through what it is built from: the
``[project.scripts]`` entry of pyproject.toml, and ``discmorse.cli`` run
as a program.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import discmorse

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(discmorse.__file__).resolve().parent


def oracle_pattern() -> re.Pattern:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = text.split("- name: No test oracles in the package\n", 1)[1].split("- name:", 1)[0]
    (pattern,) = re.findall(r"grep -rnE --include='\*\.py' '([^']+)' src/discmorse", step)
    return re.compile(pattern)


def test_no_package_module_imports_or_defines_a_test_oracle():
    pattern = oracle_pattern()
    # the pattern read is the one meant: it finds what it exists to find
    assert pattern.search("def vpaths(H, M):") and pattern.search("from .oracles import x")
    assert not pattern.search("def vpaths_count(H, M):")
    hits = [
        f"{path.relative_to(PACKAGE)}:{n}: {line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_the_console_script_is_cli_main():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts.group(1), re.M) == [
        ("discmorse", "discmorse.cli:main")
    ]


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
