"""Plant each mutant of ``mutants/table.py`` and require a named test to fail.

Usage: python3 mutants/run.py

For each row the tree is copied to a temporary directory (without .git
and caches), the row's snippet is replaced in the copy, and the row's
tests run there in a pytest subprocess. The copy's own pyproject.toml puts
the copy's ``src/`` first on the path, and PYTHONPATH names it too; before
the tests run, the runner checks that ``import discmorse`` in that
setting loads the mutated copy and not the tree or an installed package.
The ``@given`` tests draw from one fixed seed, so a verdict repeats.

A row is killed when pytest reports a failed test (exit status 1). A row
whose snippet does not occur exactly once in its file, whose tests all
pass, or whose pytest run ends in any other status (no such test, an
internal error) is a failure of this check. Exits 0 when every row is
killed, 1 otherwise.
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "_work", "traces"
)


def plant(mutant, tree: Path) -> None:
    """Copy the repository to tree and apply mutant there; ValueError
    unless its snippet occurs exactly once in its file."""
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    path = tree / mutant.file
    text = path.read_text()
    found = text.count(mutant.find)
    if found != 1:
        raise ValueError(f"its snippet occurs {found} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.find, mutant.replace))


def run(mutant) -> tuple[str, str]:
    """("killed", "") or ("survived" | "error", why) for one row."""
    with tempfile.TemporaryDirectory(prefix="discmorse-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        try:
            plant(mutant, tree)
        except ValueError as exc:
            return "error", str(exc)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import discmorse; print(discmorse.__file__)"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        if not where.stdout.strip().startswith(str(tree / "src")):
            return "error", f"discmorse is imported from {where.stdout.strip() or where.stderr}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if done.returncode == 1:
        return "killed", ""
    tail = "\n".join(done.stdout.strip().splitlines()[-3:])
    if done.returncode == 0:
        return "survived", tail
    return "error", f"pytest exit status {done.returncode}: {tail}"


def main() -> int:
    mutants = runpy.run_path(str(ROOT / "mutants" / "table.py"))["MUTANTS"]
    start, bad = time.perf_counter(), 0
    for mutant in mutants:
        t = time.perf_counter()
        verdict, why = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - t:5.1f} s  {mutant.name}", flush=True)
        if why:
            print("    " + why.replace("\n", "\n    "), flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
