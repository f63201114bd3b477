import contextlib
import hashlib
import io
import json
import random
import time
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmorse import cli, complexes, corpus
from discmorse.chains import chain_complex
from discmorse.cli import main
from discmorse.complexes import SimplicialComplex, barycentric_subdivision
from discmorse.elimination import all_orders_agree
from discmorse.errors import EliminationError
from discmorse.euler import complete_matching, euler_chain_from_matching
from discmorse.homology import homology
from discmorse.io import format_chain, format_complex, format_matching
from discmorse.matchings import Matching, hasse, random_morse_matching
from oracles import copying_eliminate, random_matching
from strategies import small_complexes

CIRCLE = "0 1\n1 2\n0 2\n"
TRIANGLE = "0 1 2\n"
SPHERE2 = "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse help and usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_text_report(tmp_path, capsys):
    path = write(tmp_path, "circle.facets", CIRCLE)
    code, out, err = run(capsys, ["homology", path])
    assert code == 0 and err == ""
    assert out.startswith("command: homology\n")
    assert f"input: {path} sha256 " in out
    assert "cells: 3 3\n" in out
    assert "euler_characteristic: 0\n" in out
    assert "betti: 1 1\n" in out
    assert "  H_0 = Z\n  H_1 = Z\n" in out


def test_homology_json_report(tmp_path, capsys):
    path = write(tmp_path, "circle.facets", CIRCLE)
    code, out, _ = run(capsys, ["homology", "--json", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "homology"
    assert list(doc["inputs"]) == [path]
    assert doc["results"]["betti"] == [1, 1]
    assert doc["warnings"] == []


def test_homology_agrees_with_the_dense_route_on_every_bundled_file(tmp_path, capsys):
    for name in corpus.names():
        path = resources.files("discmorse").joinpath(f"data/{name}.facets")
        code, out, err = run(capsys, ["homology", "--json", str(path)])
        assert code == 0 and err == "", name
        h = homology(chain_complex(corpus.load(name)))
        results = json.loads(out)["results"]
        assert results["betti"] == list(h.betti), name
        assert {k: v for k, v in results.items() if k.startswith("torsion_")} == {
            f"torsion_{k}": list(t) for k, t in enumerate(h.torsion) if t
        }, name
        assert results["homology"] == [f"H_{k} = {h.group(k)}" for k in range(len(h.betti))]

    path = write(tmp_path, "empty.facets", "")
    code, out, err = run(capsys, ["homology", path])
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_homology_reports_torsion(tmp_path, capsys):
    rp2 = (
        "0 1 2\n0 1 3\n0 2 4\n0 3 5\n0 4 5\n"
        "1 2 5\n1 3 4\n1 4 5\n2 3 4\n2 3 5\n"
    )
    path = write(tmp_path, "rp2.facets", rp2)
    code, out, _ = run(capsys, ["homology", "--json", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["betti"] == [1, 0, 0]
    assert doc["results"]["torsion_1"] == [2]
    assert "H_1 = Z/2" in doc["results"]["homology"][1]


def test_morse_greedy_default(tmp_path, capsys):
    path = write(tmp_path, "circle.facets", CIRCLE)
    code, out, _ = run(capsys, ["morse", path])
    assert code == 0
    assert "matching_source: greedy\n" in out
    assert "morse: True\n" in out
    assert "critical: 1 1\n" in out
    assert "differential: (none)\n" in out
    assert "homology_match: True\n" in out
    assert "  0 ; 0 1\n  1 ; 1 2\n" in out


def test_morse_with_a_matching_file(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    code, out, _ = run(capsys, ["morse", cx, "--matching", mt])
    assert code == 0
    assert "matching_valid: True\n" in out
    assert "morse: True\n" in out


def test_morse_reports_closed_vpaths(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    code, out, _ = run(capsys, ["morse", cx, "--matching", mt])
    assert code == 0  # a negative verdict is still an answer
    assert "morse: False\n" in out
    assert "closed_vpath: " in out
    assert "critical" not in out


def test_morse_rejects_invalid_matching_files(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 0 1\n")
    code, out, _ = run(capsys, ["morse", cx, "--matching", mt])
    assert code == 0
    assert "matching_valid: False\n" in out
    assert "matching_problem: " in out


def test_reduce_steps_and_thom_smale_agreement(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    code, out, _ = run(capsys, ["reduce", cx, "--matching", mt])
    assert code == 0
    assert "  0 ; 0 1 ; pivot -1\n" in out
    assert "reduced_sizes: 1 1\n" in out
    assert "reduced_differential: (none)\n" in out
    assert "matches_thom_smale: True\n" in out


def test_reduce_respects_order_and_reports_failures(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    code, out, _ = run(capsys, ["reduce", cx, "--matching", mt, "--order", "1,0"])
    assert code == 0 and "matches_thom_smale: True\n" in out

    bad = write(tmp_path, "cyc.matching", "0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    code, out, _ = run(capsys, ["reduce", cx, "--matching", bad])
    assert code == 0
    assert "morse: False\n" in out
    assert "failed_step: 2\n" in out
    assert "failed_pair: 2 ; 0 2\n" in out
    assert "failed_pivot: 0\n" in out

    code, _, err = run(capsys, ["reduce", cx, "--matching", mt, "--order", "0,0"])
    assert code == 2 and "error:" in err


def test_reduce_refuses_an_empty_order(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    for order in ("", " "):
        code, out, err = run(capsys, ["reduce", cx, "--matching", mt, "--order", order])
        assert code == 2 and out == ""
        assert err == f"error: --order wants comma-separated indices, got {order!r}\n"


def test_reduce_all_orders(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    code, out, _ = run(capsys, ["reduce", cx, "--matching", mt, "--all-orders"])
    assert code == 0
    assert "orders_tested: 2\n" in out
    assert "exhaustive: True\n" in out
    assert "all_orders_agree: True\n" in out
    assert "matches_thom_smale: True\n" in out


def test_reduce_refuses_max_orders_below_one(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    for bad in ("0", "-5"):
        code, out, err = run(
            capsys, ["reduce", cx, "--matching", mt, "--all-orders", "--max-orders", bad]
        )
        assert code == 2 and out == ""
        assert err == f"error: --max-orders must be at least 1, got {bad}\n"


def test_euler_finds_a_complete_matching(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    code, out, _ = run(capsys, ["euler", cx])
    assert code == 0
    assert "complete: True\n" in out
    assert "boundary_ok: True\n" in out
    assert "chain:" in out


def test_euler_explains_when_no_matching_exists(tmp_path, capsys):
    cx = write(tmp_path, "sphere2.facets", SPHERE2)
    code, out, _ = run(capsys, ["euler", cx])
    assert code == 0
    assert "complete: False\n" in out
    assert "warning: no complete matching: Euler characteristic is 2" in out


def test_euler_explains_when_chi_is_zero_but_no_matching_is_perfect(tmp_path, capsys):
    # a filled triangle beside a figure eight: chi = 1 - 1 = 0, yet the
    # triangle's cells cannot all be paired among themselves
    cx = write(tmp_path, "fig8.facets", "0 1 2\n3 4\n4 5\n3 5\n3 6\n6 7\n3 7\n")
    code, out, err = run(capsys, ["euler", cx])
    assert code == 0 and err == ""
    assert "euler_characteristic: 0\ncomplete: False\n" in out
    assert "warning: no complete matching: bipartite matching is not perfect\n" in out
    assert "chain" not in out


@pytest.mark.parametrize("command", ["reduce", "euler"])
def test_reduce_and_euler_reject_invalid_matching_files(tmp_path, capsys, command):
    cx = resources.files("discmorse").joinpath("data/sphere1.facets")
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 0 1\n")
    code, out, _ = run(capsys, [command, str(cx), "--matching", mt])
    assert code == 0
    assert "matching_valid: False\n" in out
    assert (
        "matching_problem: cell (0, 1) covered by both ((0,), (0, 1)) and ((1,), (0, 1))\n"
    ) in out
    assert "steps" not in out and "complete" not in out


def test_euler_rejects_incomplete_matching_files(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n")
    code, out, _ = run(capsys, ["euler", cx, "--matching", mt])
    assert code == 0
    assert "complete: False\n" in out
    assert "uncovered_cell: " in out


def test_euler_compare_chains(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    m1 = write(tmp_path, "m1.matching", "0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    # first produce the chain of m1, then compare m1's run against it
    code, out, _ = run(capsys, ["euler", cx, "--matching", m1])
    assert code == 0
    chain_lines = []
    grab = False
    for line in out.splitlines():
        if line.startswith("chain:"):
            grab = True
            continue
        if grab and line.startswith("  "):
            chain_lines.append(line.strip())
        elif grab:
            break
    chain_file = write(tmp_path, "c1.chain", "\n".join(chain_lines) + "\n")
    code, out, _ = run(capsys, ["euler", cx, "--matching", m1, "--compare", chain_file])
    assert code == 0
    assert "comparable: True\n" in out
    assert "homologous: True\n" in out

    # the other complete matching yields a chain that is not homologous
    m2 = write(tmp_path, "m2.matching", "0 ; 0 2\n1 ; 0 1\n2 ; 1 2\n")
    code, out, _ = run(capsys, ["euler", cx, "--matching", m2, "--compare", chain_file])
    assert code == 0
    assert "comparable: True\n" in out
    assert "homologous: False\n" in out

    stray = write(tmp_path, "stray.chain", "0 ; 0 1\n")
    code, out, _ = run(capsys, ["euler", cx, "--matching", m1, "--compare", stray])
    assert code == 0
    assert "comparable: False\n" in out
    assert "warning: chains have different boundaries" in out


def test_euler_compare_refuses_chains_outside_the_complex(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    m1 = write(tmp_path, "m1.matching", "0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    # the circle's Euler chain plus a closed loop on vertices it lacks, so
    # the boundaries agree
    outside = write(
        tmp_path, "outside.chain",
        "0 1 ; 0\n1 2 ; 1\n0 2 ; 2\n"
        "7 ; 7 8\n7 8 ; 8\n8 ; 8 9\n8 9 ; 9\n9 ; 7 9\n7 9 ; 7\n",
    )
    code, out, err = run(capsys, ["euler", cx, "--matching", m1, "--compare", outside])
    assert code == 2 and out == ""
    assert err == "error: chain segment 7 ; 7 8 is not in the complex\n"


def test_reduce_eliminates_a_repeated_matching_line_once(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n0 ; 0 1\n")
    code, out, _ = run(capsys, ["reduce", cx, "--matching", mt])
    assert code == 0
    assert "steps:\n  0 ; 0 1 ; pivot -1\n  1 ; 1 2 ; pivot -1\n" in out
    assert "reduced_sizes: 1 1\n" in out
    assert "matches_thom_smale: True\n" in out
    code, out, _ = run(capsys, ["reduce", cx, "--matching", mt, "--order", "2,1,0"])
    assert code == 0 and "matches_thom_smale: True\n" in out


def test_subdivide_report(tmp_path, capsys):
    cx = write(tmp_path, "triangle.facets", TRIANGLE)
    code, out, _ = run(capsys, ["subdivide", cx])
    assert code == 0
    assert "subdivision_cells: 7 12 6\n" in out
    assert "euler_preserved: True\n" in out
    assert "  0 1 2 ; 6\n" in out  # the triangle's barycenter gets the last id
    assert "facets:" in out


def test_subdivide_refuses_a_subdivision_over_budget(tmp_path, capsys, monkeypatch):
    # refused before building: sd torus subdivides to 1,512 cells, sd S^2 to 434
    monkeypatch.setattr(complexes, "MAX_FACET_CELLS", 1000)
    sd_torus = barycentric_subdivision(corpus.torus()).complex
    code, out, err = run(capsys, ["subdivide", write(tmp_path, "t.facets", format_complex(sd_torus))])
    assert code == 2 and out == ""
    assert err == "error: subdivision has more than 1000 cells\n"
    sd_sphere = barycentric_subdivision(corpus.sphere(2)).complex
    code, out, _ = run(capsys, ["subdivide", write(tmp_path, "s.facets", format_complex(sd_sphere))])
    assert code == 0 and "subdivision_cells: 74 216 144\n" in out


def test_product_report_and_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, ["product", "1", "1"])
    assert code == 0
    assert "cells: 4 5 2\n" in out
    assert "euler_characteristic: 1\n" in out
    facet_lines = [
        line.strip()
        for line in out.splitlines()
        if line.startswith("  ") and not line.startswith("   ")
    ]
    assert "0 1 3" in facet_lines and "0 2 3" in facet_lines


def test_product_refuses_negative_dimensions(capsys):
    code, out, err = run(capsys, ["product", "-1", "2"])
    assert code == 2 and out == ""
    assert err == "error: simplex dimensions must be non-negative\n"


def test_product_refuses_oversized_products_at_once(capsys):
    for m, n in (("10", "10"), ("1000000", "1000000")):
        start = time.perf_counter()
        code, out, err = run(capsys, ["product", m, n])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: facets expand to more than ")


def test_oversized_facet_exits_2(tmp_path, capsys):
    path = write(tmp_path, "big.facets", " ".join(map(str, range(40))) + "\n")
    code, out, err = run(capsys, ["homology", path])
    assert code == 2 and out == ""
    assert err.startswith("error: facets expand to more than ")


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, ["homology", str(tmp_path / "nope.facets")])
    assert code == 2
    assert err.startswith("error: cannot read")


def test_malformed_facets_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.facets", "0 0 1\n")
    code, _, err = run(capsys, ["homology", path])
    assert code == 2
    assert "error:" in err and "line 1" in err


def test_undecodable_facet_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_bytes(b"0 1\n\xff\n")
    code, out, err = run(capsys, ["homology", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot decode {path} as UTF-8: ")


def test_undecodable_matching_file_exits_2(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = tmp_path / "bad.matching"
    mt.write_bytes(b"0 ; 0 1\n\xff ; 1 2\n")
    code, out, err = run(capsys, ["morse", cx, "--matching", str(mt)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot decode {mt} as UTF-8: ")


def test_undecodable_chain_file_exits_2(tmp_path, capsys):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    ch = tmp_path / "bad.chain"
    ch.write_bytes(b"\xc3\n")
    code, out, err = run(capsys, ["euler", cx, "--compare", str(ch)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot decode {ch} as UTF-8: ")


def test_input_digest_is_the_sha256_of_the_file_bytes(tmp_path, capsys):
    path = tmp_path / "circle.facets"
    path.write_bytes("# cercle \u00e0 trois ar\u00eates\n".encode() + CIRCLE.encode())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    _, out, _ = run(capsys, ["homology", str(path)])
    assert f"input: {path} sha256 {digest}\n" in out
    _, out, _ = run(capsys, ["homology", "--json", str(path)])
    assert json.loads(out)["inputs"] == {str(path): digest}


def test_repeated_calls_in_one_process_match_a_fresh_parser(tmp_path, capsys, monkeypatch):
    cx = write(tmp_path, "circle.facets", CIRCLE)
    mt = write(tmp_path, "m.matching", "0 ; 0 1\n1 ; 1 2\n")
    calls = [
        ["morse", cx, "--matching", mt],
        ["--help"],
        ["morse", cx],
        ["morse", "--help"],
        ["reduce", cx, "--matching", mt, "--all-orders"],
        ["reduce", cx],  # usage error: --matching is required
        ["reduce", cx, "--matching", mt, "--order", "1,0"],
        ["product", "2", "x"],
        ["morse", "--json", cx],
    ]
    cached = [run(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, argv) for argv in calls]
    assert cached == fresh

    (_, with_m, _), (_, help_out, _), (_, greedy, _), (_, morse_help, _) = cached[:4]
    assert "matching_valid: True\n" in with_m and "matching_source" not in with_m
    assert "matching_source: greedy\n" in greedy and "matching_valid" not in greedy
    assert cached[1][0] == 0 and help_out.startswith("usage: discmorse ")
    assert cached[3][0] == 0 and morse_help.startswith("usage: discmorse morse ")
    assert "orders_tested: 2\n" in cached[4][1] and "steps:" not in cached[4][1]
    assert cached[5][0] == 2 and cached[5][1] == ""
    assert "usage: discmorse reduce" in cached[5][2] and "--matching" in cached[5][2]
    assert "orders_tested" not in cached[6][1] and "  1 ; 1 2 ; pivot -1\n" in cached[6][1]
    assert cached[7][0] == 2 and "invalid int value: 'x'" in cached[7][2]
    assert json.loads(cached[8][1])["results"]["matching_source"] == "greedy"


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--max-orders", "5"]])
@pytest.mark.parametrize("sub", ["homology", "morse", "euler", "subdivide", "product"])
def test_subcommands_besides_reduce_refuse_seed_and_max_orders(tmp_path, capsys, sub, flag):
    args = ["1", "1"] if sub == "product" else [write(tmp_path, "circle.facets", CIRCLE)]
    assert run(capsys, [sub, *args])[0] == 0
    code, out, err = run(capsys, [sub, *args, *flag])
    assert code == 2 and out == ""
    assert err.startswith("usage: discmorse ")
    assert f"error: unrecognized arguments: {flag[0]}" in err
    code, out, _ = run(capsys, [sub, "--help"])
    assert code == 0 and out.startswith(f"usage: discmorse {sub} ")
    assert "--seed" not in out and "--max-orders" not in out


def test_reduce_all_orders_samples_with_max_orders_alone(tmp_path, capsys, monkeypatch):
    X = corpus.torus()
    M = random_morse_matching(X, random.Random(0))
    assert len(M) > 8  # past the exhaustive bound, so orders are sampled
    cx = write(tmp_path, "torus.facets", format_complex(X))
    mt = write(tmp_path, "m.matching", format_matching(M))
    seen = []

    def spy(C, M, **kw):
        seen.append(kw)
        return all_orders_agree(C, M, **kw)

    monkeypatch.setattr(cli, "all_orders_agree", spy)
    argv = ["reduce", "--json", cx, "--matching", mt, "--all-orders"]
    code, out, _ = run(capsys, argv + ["--max-orders", "2"])
    assert code == 0 and seen == [{"max_orders": 2}]
    res = json.loads(out)["results"]
    assert (res["orders_tested"], res["exhaustive"], res["all_orders_agree"]) == (2, False, True)
    assert res["matches_thom_smale"] is True
    code, out, _ = run(capsys, argv)
    assert code == 0 and seen[1] == {"max_orders": 100}
    assert json.loads(out)["results"]["orders_tested"] == 100
    code, out, err = run(capsys, argv + ["--seed", "1"])
    assert code == 2 and out == "" and len(seen) == 2
    assert "error: unrecognized arguments: --seed" in err
    code, out, _ = run(capsys, ["reduce", "--help"])
    assert code == 0 and "--max-orders" in out and "--seed" not in out


def test_non_morse_matchings_keep_their_verdict_and_witness(tmp_path, capsys):
    X = corpus.torus()
    M = random_matching(X, random.Random(0), density=0.9)
    cx = write(tmp_path, "torus.facets", format_complex(X))
    mt = write(tmp_path, "m.matching", format_matching(M))
    code, out, _ = run(capsys, ["morse", cx, "--matching", mt])
    assert code == 0
    assert "morse: False\nclosed_vpath: 0 -> 2 -> 3 -> 6 -> 5 -> 4 -> 0\n" in out
    assert "critical" not in out
    for extra in ([], ["--all-orders"]):
        code, out, _ = run(capsys, ["reduce", cx, "--matching", mt, *extra])
        assert code == 0
        assert "morse: False\n" in out and "matches_thom_smale" not in out


def copying_reduce_report(X, order) -> dict:
    """The reduce report's step keys, from copying_eliminate over order with
    each pivot read off the current complex before its step."""
    current, steps = chain_complex(X), []
    for i, (sigma, tau) in enumerate(order):
        name = f"{' '.join(map(str, sigma))} ; {' '.join(map(str, tau))}"
        pivot = current.column(len(tau) - 1, tau).get(sigma, 0)
        try:
            current = copying_eliminate(current, (sigma, tau))
        except EliminationError as exc:
            assert exc.pivot == pivot
            return {"steps": steps, "failed_step": i, "failed_pair": name, "failed_pivot": pivot}
        steps.append(f"{name} ; pivot {pivot}")
    return {"steps": steps, "reduced_sizes": [current.size(k) for k in range(current.top_dim + 1)]}


@settings(max_examples=50)
@given(small_complexes, st.integers(0, 2**32 - 1))
def test_reduce_steps_equal_the_copying_reference(tmp_path_factory, X, seed):
    # dense random matchings are often not Morse, so some orders fail
    rng = random.Random(seed)
    pairs = random_matching(X, rng, density=1.0).pairs()
    idx = list(range(len(pairs)))
    rng.shuffle(idx)
    work = tmp_path_factory.mktemp("reduce")
    cx = write(work, "x.facets", format_complex(X))
    argv = ["reduce", "--json", cx, "--matching", write(work, "m.matching", format_matching(pairs))]
    if pairs:
        argv += ["--order", ",".join(map(str, idx))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    res = json.loads(out.getvalue())["results"]
    expected = copying_reduce_report(X, [pairs[i] for i in idx])
    keys = ("steps", "failed_step", "failed_pair", "failed_pivot", "reduced_sizes")
    assert {key: res[key] for key in keys if key in res} == expected

# --- every subcommand's answers, pinned by one digest ---


def second_complete_matching(X):
    """A complete matching of X found on the vertex-reversed complex and
    mapped back: usually not the one ``complete_matching(hasse(X))`` finds."""
    top = max(X.vertices())

    def flip(cell):
        return tuple(sorted(top - v for v in cell))

    M = complete_matching(hasse(SimplicialComplex.from_facets(map(flip, X.facets()))))
    return None if M is None else Matching((flip(lo), flip(hi)) for lo, hi in M.pairs())


def cli_calls(tmp_path):
    """argv lists over the bundled files and their first subdivisions under
    400 cells, with each complex's seed-0 collapse, its first 4 pairs, a
    dense random matching and, at Euler characteristic 0, a second Euler
    chain; then products, a failing reduction and inputs that exit 2."""
    spaces = [(name, corpus.load(name)) for name in corpus.names()]
    for name, X in list(spaces):
        Y = barycentric_subdivision(X).complex
        if sum(len(Y.cells(k)) for k in range(Y.dim + 1)) < 400:
            spaces.append((f"sd-{name}", Y))
    calls = []
    for name, X in spaces:
        cx = write(tmp_path, f"{name}.facets", format_complex(X))
        pairs = random_morse_matching(X, random.Random(0)).pairs()
        collapse = write(tmp_path, f"{name}.matching", format_matching(pairs))
        first4 = write(tmp_path, f"{name}-4.matching", format_matching(pairs[:4]))
        dense = random_matching(X, random.Random(0), density=1.0)
        other = write(tmp_path, f"{name}-dense.matching", format_matching(dense))
        calls += [
            ["homology", cx],
            ["morse", cx],
            ["morse", cx, "--matching", collapse],
            ["morse", cx, "--matching", other],
            ["reduce", cx, "--matching", collapse],
            ["reduce", cx, "--matching", other],
            ["reduce", cx, "--matching", first4, "--all-orders"],
            ["euler", cx],
            ["subdivide", cx],
        ]
        if pairs:
            order = ",".join(map(str, reversed(range(len(pairs)))))
            calls.append(["reduce", cx, "--matching", collapse, "--order", order])
        M = second_complete_matching(X)
        if M is not None:
            chain = write(tmp_path, f"{name}.chain", format_chain(euler_chain_from_matching(X, M)))
            calls.append(["euler", cx, "--compare", chain])
    calls += [["product", str(m), str(n)] for m in range(3) for n in range(3)]
    circle = write(tmp_path, "circle.facets", CIRCLE)
    cycle = write(tmp_path, "cycle.matching", "0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    bad_bytes = tmp_path / "bad.facets"
    bad_bytes.write_bytes(b"0 1\n\xff\n")
    calls += [
        ["reduce", circle, "--matching", cycle],  # fails at step 2, exit 0
        ["reduce", circle, "--matching", cycle, "--all-orders"],
        ["homology", write(tmp_path, "empty.facets", "")],
        ["homology", str(tmp_path / "missing.facets")],
        ["homology", write(tmp_path, "repeated.facets", "0 0 1\n")],
        ["homology", str(bad_bytes)],
        ["morse", circle, "--matching", write(tmp_path, "twice.matching", "0 ; 0 1\n1 ; 0 1\n")],
        ["reduce", circle, "--matching", cycle, "--order", "0,0"],
        ["reduce", circle, "--matching", cycle, "--order", "0,x"],
        ["reduce", circle, "--matching", cycle, "--all-orders", "--max-orders", "0"],
        ["euler", circle, "--compare", write(tmp_path, "outside.chain", "7 ; 7 8\n")],
        ["product", "-1", "2"],
        ["product", "10", "10"],
    ]
    return calls


def test_every_report_matches_its_pinned_digest(tmp_path, capsys):
    # argv, exit status, stdout and stderr of each call in text and JSON,
    # with tmp_path replaced; a change that alters any report on purpose
    # re-pins this digest
    root = str(tmp_path)
    digest = hashlib.sha256()
    for argv in cli_calls(tmp_path):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, argv + extra)
            record = json.dumps([argv + extra, code, out, err]).replace(root, "TMP")
            digest.update(record.encode() + b"\n")
    assert digest.hexdigest() == "34a696fce8f210dacc67a88c417f13cb7e7236c3d9dcaf4f1bb776acd1ab14be"
