"""Tests of the benchmark itself: each check rejects a planted wrong answer,
and the command prints exactly the metrics BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import facts
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def dm():
    return run.import_program()


def plan_of(dm, name, tmp_path, seed=3):
    return {op.name: op for op in workloads.WORKLOADS[name](dm, seed, tmp_path).ops}


def test_betti_off_by_one_is_rejected(dm, tmp_path):
    op = plan_of(dm, "homology-ladder", tmp_path)["homology torus-sd1"]
    good = op.run()
    assert op.check(good)
    doc = json.loads(good.out)
    doc["results"]["betti"][1] += 1
    planted = workloads.CliResult(good.code, json.dumps(doc), good.err)
    assert not op.check(planted)


def test_flipped_homologous_verdict_is_rejected(dm, tmp_path):
    ops = plan_of(dm, "euler-structures", tmp_path)
    assert ops["complete matching torus"].check(ops["complete matching torus"].run())
    for name in ("homologous torus boundary", "homologous torus loop"):
        verdict = ops[name].run()
        assert ops[name].check(verdict)
        assert not ops[name].check(not verdict)


def _cycle_matching(dm, cells):
    """Each vertex of a cycle matched with the edge to the next: a closed
    V-path, so not Morse."""
    cycle = next(facts.fundamental_cycles(cells, random.Random(0)))
    return dm.Matching(((a,), (min(a, b), max(a, b))) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def test_non_morse_matching_passed_off_as_morse_is_rejected(dm, tmp_path):
    op = plan_of(dm, "morse-sweep", tmp_path)["torus-sd2 greedy"]
    M, ok, sizes, h = op.run()
    assert op.check((M, ok, sizes, h))
    X = workloads.subdivide(dm, dm.SimplicialComplex.from_facets(workloads.bundled_facets("torus")), 2)
    cells = facts.closure(X.facets())
    bad = _cycle_matching(dm, cells)
    # counts consistent with the planted matching: only acyclicity can object
    planted = (bad, True, workloads.crit_counts(facts.counts(cells), bad.pairs()), h)
    assert not op.check(planted)


def test_cli_morse_report_with_a_cycle_matching_is_rejected(dm, tmp_path):
    op = plan_of(dm, "cli-corpus", tmp_path)["morse torus greedy"]
    good = op.run()
    assert op.check(good)
    doc = json.loads(good.out)
    res = doc["results"]
    cells = facts.closure(workloads.parse_cell(ln) for ln in doc_facets(tmp_path / "torus.facets"))
    bad = _cycle_matching(dm, cells).pairs()
    res["matching"] = [f"{' '.join(map(str, lo))} ; {' '.join(map(str, hi))}" for lo, hi in bad]
    res["critical"] = workloads.crit_counts(res["cells"], bad)
    assert not op.check(workloads.CliResult(0, json.dumps(doc), ""))


def doc_facets(path):
    return [ln for ln in path.read_text().splitlines() if ln.strip()]


def _result(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _result("--workload", "cli-corpus", "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True
    assert {m: v["unit"] for m, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}
    # whole passes only: the three known faults fail in every pass
    n_ops = 151
    assert res["attempted"] % n_ops == 0 and res["failed"] * n_ops == 3 * res["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "traces", "__pycache__"))
    proc = _result("--workload", "cli-corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
