"""The four workloads: inputs made from a seed, the operations of one pass,
and the check of each operation's output against facts.py.

A workload's set-up returns a Plan. Every operation reaches the program
through attributes of the freshly imported package looked up at call
time, so a traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

import facts

# bundled facet file -> underlying space
BUNDLED = {
    "delta0": "ball", "delta1": "ball", "delta2": "ball", "delta3": "ball",
    "delta4": "ball", "sphere0": "S0", "sphere1": "S1", "sphere2": "S2",
    "sphere3": "S3", "torus": "torus", "projective_plane": "rp2",
    "klein_bottle": "klein", "square": "ball", "prism": "ball",
}


@dataclass
class Op:
    """One operation of a pass, with the check of its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    cells: int = 0                # cells of the complex the operation reads
    span: str | None = None       # span the harness records around the call
    counts: Callable[[Any], dict[str, int]] | None = None
    fault: bool = False           # a known fault of the program


@dataclass
class Plan:
    ops: list[Op]
    final_check: Callable[[], bool] = lambda: True


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def results(self) -> dict:
        return json.loads(self.out)["results"]


def cli_call(dm: ModuleType, argv: list[str]) -> CliResult:
    """``discmorse <argv>`` in-process; stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dm.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def bundled_facets(name: str) -> list[tuple[int, ...]]:
    """A bundled facet file, read here rather than through the program."""
    root = Path(__file__).resolve().parent.parent / "src" / "discmorse" / "data"
    rows = []
    for line in (root / f"{name}.facets").read_text().splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            rows.append(tuple(sorted(int(t) for t in body)))
    return rows


def relabel(facets, rng: random.Random) -> list[tuple[int, ...]]:
    """The same complex under an order-preserving vertex renaming into a
    seeded sparse id range, so cell order and cost do not change."""
    vs = sorted({v for f in facets for v in f})
    new = sorted(rng.sample(range(3 * len(vs) + 3), len(vs)))
    ren = dict(zip(vs, new))
    return [tuple(ren[v] for v in f) for f in facets]


def cell_text(cell, rng: random.Random) -> str:
    toks = [str(v) for v in cell]
    rng.shuffle(toks)
    return " ".join(toks)


def facet_text(facets, rng: random.Random) -> str:
    lines = [cell_text(f, rng) for f in facets]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def pairs_text(pairs, rng: random.Random) -> str:
    return "".join(f"{cell_text(a, rng)} ; {cell_text(b, rng)}\n" for a, b in pairs)


def segments_text(segments, rng: random.Random) -> str:
    """Unit segment lines; a negative multiplicity reverses the segment."""
    lines = []
    for a, b, m in segments:
        src, dst = (a, b) if m > 0 else (b, a)
        lines += [f"{cell_text(src, rng)} ; {cell_text(dst, rng)}"] * abs(m)
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def parse_cell(text: str) -> tuple[int, ...]:
    return tuple(sorted(int(t) for t in text.split()))


def parse_pair_lines(lines) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [tuple(parse_cell(h) for h in ln.split(";")) for ln in lines]


def subdivide(dm: ModuleType, X, k: int):
    """The k-th barycentric subdivision, by the program."""
    for _ in range(k):
        X = dm.barycentric_subdivision(X).complex
    return X


def crit_counts(n: list[int], pairs) -> list[int]:
    crit = list(n)
    for lo, hi in pairs:
        crit[len(lo) - 1] -= 1
        crit[len(hi) - 1] -= 1
    return crit


def morse_counts(crit, betti, torsion) -> dict[str, int]:
    bound = sum(facts.morse_bound(betti, torsion))
    return {
        "matchings.critical_cells": sum(crit),
        "matchings.morse_bound": bound,
        "matchings.morse_excess": sum(crit) - bound,
    }


class Space:
    """A complex the benchmark made, with the facts it knows about it."""

    def __init__(self, facets, space: str):
        self.facets = [tuple(f) for f in facets]
        self.cells = facts.closure(self.facets)
        self.cellset = {c for cs in self.cells.values() for c in cs}
        self.n = facts.counts(self.cells)
        self.dim = len(self.n) - 1
        self.chi = facts.euler_characteristic(self.n)
        self.betti, self.torsion = facts.known_homology(space, self.dim)
        if facts.euler_characteristic(self.betti) != self.chi:
            raise ValueError(f"cell counts {self.n} contradict the homology of {space}")

    def homology_ok(self, betti, torsion) -> bool:
        return tuple(betti) == self.betti and tuple(map(tuple, torsion)) == self.torsion

    def report_homology_ok(self, res: dict, key: str = "homology") -> bool:
        want = [facts.group_line(k, self.betti, self.torsion) for k in range(self.dim + 1)]
        return res[key] == want

    def cli_homology_ok(self, res: dict) -> bool:
        torsion_keys = {f"torsion_{k}": list(t) for k, t in enumerate(self.torsion) if t}
        return (
            res["betti"] == list(self.betti)
            and {k: v for k, v in res.items() if k.startswith("torsion_")} == torsion_keys
            and self.report_homology_ok(res)
            and res["cells"] == self.n
            and res["euler_characteristic"] == self.chi
        )


# --- homology-ladder -------------------------------------------------------

# bundled base, space, deepest subdivision
LADDER = [
    ("torus", "torus", 2), ("projective_plane", "rp2", 2),
    ("klein_bottle", "klein", 2), ("sphere2", "S2", 3),
    ("sphere3", "S3", 1), ("delta4", "ball", 1),
]


def homology_ladder(dm: ModuleType, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    ops, small = [], []
    for base, space, depth in LADDER:
        X = dm.SimplicialComplex.from_facets(bundled_facets(base))
        for k in range(depth + 1):
            if k:
                X = dm.barycentric_subdivision(X).complex
            sp = Space(relabel(X.facets(), rng), space)
            path = work / f"{base}-sd{k}.facets"
            path.write_text(facet_text(sp.facets, rng))
            op = _homology_op(dm, f"{base}-sd{k}", str(path), sp)
            ops.append(op)
            if k == 0:
                small.append((op, sp))

    def final_check() -> bool:
        # the invariant factors on the unsubdivided rungs, from sympy
        return all(
            op.check(op.run()) and sp.homology_ok(*facts.sympy_homology(sp.cells))
            for op, sp in small
        )

    return Plan(ops, final_check)


def _homology_op(dm, name: str, path: str, sp: Space) -> Op:
    return Op(
        f"homology {name}",
        lambda: cli_call(dm, ["homology", "--json", path]),
        lambda r: r.code == 0 and sp.cli_homology_ok(r.results()),
        cells=sum(sp.n),
        span="cli.homology_s",
    )


# --- morse-sweep -----------------------------------------------------------

# bundled base, space, subdivision depth, seeded collapses per pass, and
# whether the greedy matching runs too. The greedy matching on sd^2 S^3
# alone (1.2 s) would double the pass and halve the samples of each
# operation in a run. The six cheap operations on sd torus put the median
# operation of a pass among the sd^2 RP^2 collapses, whose times lie
# close together, not at a step between two groups of operations, where
# op_p50_ms would jump with the seed.
SWEEP = [
    ("torus", "torus", 1, 5, True),
    ("torus", "torus", 2, 3, True), ("projective_plane", "rp2", 2, 3, True),
    ("klein_bottle", "klein", 2, 3, True), ("sphere2", "S2", 2, 3, True),
    ("sphere3", "S3", 1, 3, True), ("delta4", "ball", 1, 3, True),
    ("sphere3", "S3", 2, 1, False),
]
ELIMINATION_RUNGS = ["torus", "projective_plane", "klein_bottle", "sphere2", "sphere3", "delta4"]


def morse_sweep(dm: ModuleType, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    ops = []
    for base, space, depth, collapses, greedy in SWEEP:
        X = subdivide(dm, dm.SimplicialComplex.from_facets(bundled_facets(base)), depth)
        sp = Space(X.facets(), space)
        seeds = [rng.randrange(2**32) for _ in range(collapses)] + ([None] if greedy else [])
        for s in seeds:
            ops.append(_sweep_op(dm, f"{base}-sd{depth} {'greedy' if s is None else f'collapse {s}'}", X, sp, s))

    def final_check() -> bool:
        # elimination of every pair equals the Thom-Smale complex
        for base in ELIMINATION_RUNGS:
            X = dm.SimplicialComplex.from_facets(bundled_facets(base))
            for M in (dm.random_morse_matching(X, random.Random(seed)), dm.greedy_morse_matching(X)):
                if dm.eliminate_sequence(dm.chain_complex(X), M) != dm.thom_smale_complex(X, M):
                    return False
        return True

    return Plan(ops, final_check)


def _sweep_op(dm, name: str, X, sp: Space, seed: int | None) -> Op:
    def run():
        M = dm.greedy_morse_matching(X) if seed is None else dm.random_morse_matching(X, random.Random(seed))
        ok = dm.is_morse(dm.hasse(X), M)
        T = dm.thom_smale_complex(X, M)
        return M, ok, [T.size(k) for k in range(T.top_dim + 1)], dm.homology(T)

    def check(out) -> bool:
        M, ok, sizes, h = out
        pairs = M.pairs()
        crit = crit_counts(sp.n, pairs)
        return (
            ok
            and facts.is_morse_matching(sp.cellset, pairs)
            and sizes == crit
            and facts.critical_counts_ok(crit, sp.betti, sp.torsion, sp.chi)
            and sp.homology_ok(h.betti, h.torsion)
        )

    return Op(
        name, run, check, cells=sum(sp.n),
        counts=lambda out: morse_counts(crit_counts(sp.n, out[0].pairs()), sp.betti, sp.torsion),
    )


# --- euler-structures ------------------------------------------------------


def euler_structures(dm: ModuleType, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    torus = dm.SimplicialComplex.from_facets(bundled_facets("torus"))
    klein = dm.SimplicialComplex.from_facets(bundled_facets("klein_bottle"))
    complexes = [
        ("S3", "S3", dm.SimplicialComplex.from_facets(bundled_facets("sphere3"))),
        ("dD1xD3", "S3", _product_boundary(dm, 1, 3)),
        ("dD2xD2", "S3", _product_boundary(dm, 2, 2)),
        ("torus", "torus", torus),
        ("klein", "klein", klein),
        ("sd-torus", "torus", dm.barycentric_subdivision(torus).complex),
        ("sd-klein", "klein", dm.barycentric_subdivision(klein).complex),
    ]
    # The comparisons of one pass: (complex, perturbation, verdict). One on
    # dD2xD2 or sd-klein (2.2 s and 1.9 s) would double the pass and halve
    # the samples of each operation in a run.
    compares = [
        ("S3", "boundary", True), ("S3", "relabel", True),
        ("dD1xD3", "boundary", True),
        ("torus", "boundary", True), ("torus", "loop", False),
        ("klein", "boundary", True), ("klein", "loop", False),
        ("sd-torus", "loop", False),
    ]
    state: dict[str, Any] = {}
    spaces = {}
    ops = []
    for name, space, X in complexes:
        sp = spaces[name] = Space(X.facets(), space)
        ops.append(_match_op(dm, name, X, sp, state))
    for name, kind, verdict in compares:
        X = next(c for n, _, c in complexes if n == name)
        sp = spaces[name]
        if kind == "boundary":
            segs = facts.flag_boundary_segments(sp.cells, rng, 3)
        elif kind == "loop":
            segs = facts.loop_segments(facts.essential_loop(sp.cells, sp.betti[2], rng))
        else:
            segs = _vertex_permutation(sp, rng)
        ops.append(_compare_op(dm, name, kind, X, sp, segs, verdict, state))
    return Plan(ops)


def _product_boundary(dm, m: int, n: int):
    P = dm.product_triangulation(m, n)
    return dm.SimplicialComplex.from_facets(facts.boundary_closure(P.cells(P.dim)))


def _vertex_permutation(sp: Space, rng: random.Random) -> dict[int, int]:
    vs = [c[0] for c in sp.cells[0]]
    while True:
        img = vs[:]
        rng.shuffle(img)
        if img != vs:
            return dict(zip(vs, img))


def _match_op(dm, name: str, X, sp: Space, state: dict) -> Op:
    def run():
        M = dm.complete_matching(dm.hasse(X))
        state[name] = (M, dm.euler_chain_from_matching(X, M))
        return state[name]

    def check(out) -> bool:
        M, xi = out
        return facts.is_complete_matching(sp.cellset, M.pairs()) and facts.euler_chain_boundary_ok(
            sp.cellset, xi.segments
        )

    return Op(f"complete matching {name}", run, check, cells=sum(sp.n))


def _compare_op(dm, name, kind, X, sp: Space, perturbation, verdict: bool, state: dict) -> Op:
    def run():
        M, xi = state[name]
        if kind == "relabel":
            perm = perturbation
            M2 = dm.Matching(
                (tuple(sorted(perm[v] for v in lo)), tuple(sorted(perm[v] for v in hi)))
                for lo, hi in M.pairs()
            )
            eta = dm.euler_chain_from_matching(X, M2)
        else:
            eta = dm.EulerChain.from_segments(list(xi.segments) + perturbation)
        return dm.homologous(X, xi, eta)

    return Op(f"homologous {name} {kind}", run, lambda v: v is verdict, cells=sum(sp.n))


# --- cli-corpus ------------------------------------------------------------

PRODUCTS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2)]
CLI_RUNGS = [("sphere1", "S1"), ("sphere2", "S2")]  # first subdivisions


def cli_corpus(dm: ModuleType, seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    inputs = [(name, space, bundled_facets(name)) for name, space in BUNDLED.items()]
    for name, space in CLI_RUNGS:
        X = dm.barycentric_subdivision(dm.SimplicialComplex.from_facets(bundled_facets(name))).complex
        inputs.append((f"{name}-sd1", space, X.facets()))
    ops = []
    for name, space, facets in inputs:
        ops += _cli_file_ops(dm, name, Space(relabel(facets, rng), space), rng, work)
    for m, n in PRODUCTS:
        ops.append(_product_op(dm, m, n))
    ops += _fault_ops(dm, work)
    return Plan(ops)


def _cli(dm, name: str, argv: list[str], check, cells: int, counts=None) -> Op:
    return Op(
        name, lambda: cli_call(dm, argv),
        lambda r: r.code == 0 and check(r.results()),
        cells=cells, span=f"cli.{argv[0]}_s", counts=counts,
    )


def _cli_file_ops(dm, name: str, sp: Space, rng: random.Random, work: Path) -> list[Op]:
    path = work / f"{name}.facets"
    path.write_text(facet_text(sp.facets, rng))
    cx, cells = str(path), sum(sp.n)

    def write(suffix: str, text: str) -> str:
        p = work / f"{name}.{suffix}"
        p.write_text(text)
        return str(p)

    def morse_ok(res: dict) -> bool:
        crit = res["critical"]
        return (
            res["morse"] is True
            and res["homology_match"] is True
            and facts.critical_counts_ok(crit, sp.betti, sp.torsion, sp.chi)
            and facts.is_morse_matching(sp.cellset, parse_pair_lines(res["matching"]))
            and crit == crit_counts(sp.n, parse_pair_lines(res["matching"]))
            and sp.report_homology_ok(res, "morse_homology")
        )

    def morse_tally(r: CliResult) -> dict[str, int]:
        return morse_counts(r.results()["critical"], sp.betti, sp.torsion)

    subdivided = facts.subdivision_counts(sp.n)
    ops = [
        _cli(dm, f"homology {name}", ["homology", "--json", cx], sp.cli_homology_ok, cells),
        _cli(dm, f"morse {name} greedy", ["morse", "--json", cx], morse_ok, cells, morse_tally),
        _cli(
            dm, f"subdivide {name}", ["subdivide", "--json", cx],
            lambda res: res["subdivision_cells"] == subdivided
            and res["euler_preserved"] is True
            and len(res["barycenters"]) == cells,
            cells,
        ),
    ]
    if sp.dim > 0:
        X = dm.SimplicialComplex.from_facets(sp.facets)
        pairs = list(dm.random_morse_matching(X, random.Random(rng.randrange(2**32))).pairs())
        if not facts.is_morse_matching(sp.cellset, pairs):
            raise ValueError(f"seeded collapse of {name} is not a Morse matching")
        rng.shuffle(pairs)
        sub = rng.sample(pairs, min(4, len(pairs)))
        mfile, subfile = write("matching", pairs_text(pairs, rng)), write("sub.matching", pairs_text(sub, rng))
        order = list(range(len(pairs)))
        rng.shuffle(order)
        crit = crit_counts(sp.n, pairs)
        ops += [
            _cli(
                dm, f"morse {name} matching", ["morse", "--json", cx, "--matching", mfile],
                lambda res: res["matching_valid"] is True and res["critical"] == crit and morse_ok(res),
                cells, morse_tally,
            ),
            _cli(
                dm, f"reduce {name} order", ["reduce", "--json", cx, "--matching", mfile, "--order", ",".join(map(str, order))],
                lambda res: res["morse"] is True and "failed_step" not in res
                and res["reduced_sizes"] == crit and res["matches_thom_smale"] is True,
                cells,
            ),
            _cli(
                dm, f"reduce {name} all-orders", ["reduce", "--json", cx, "--matching", subfile, "--all-orders"],
                lambda res: res["all_orders_agree"] is True and res["exhaustive"] is True
                and res["orders_tested"] == math.factorial(len(sub))
                and res["matches_thom_smale"] is True,
                cells,
            ),
        ]
    cycle = next(facts.fundamental_cycles(sp.cells, rng), None)
    if cycle is not None:
        # vertex i matched with the edge to vertex i+1: a closed V-path
        ring = [(a,) for a in cycle]
        bad = [((a,), (min(a, b), max(a, b))) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        if facts.is_morse_matching(sp.cellset, bad):
            raise ValueError(f"cycle matching on {name} is acyclic")
        nfile = write("cycle.matching", pairs_text(bad, rng))
        ops += [
            _cli(
                dm, f"morse {name} cycle", ["morse", "--json", cx, "--matching", nfile],
                lambda res: res["matching_valid"] is True and res["morse"] is False
                and facts.is_closed_vpath([parse_cell(c) for c in res["closed_vpath"].split("->")], bad)
                and set(ring) >= {parse_cell(c) for c in res["closed_vpath"].split("->")},
                cells,
            ),
            # the cycle's vertex-edge block has determinant 0, so some
            # elimination step must meet a pivot other than +-1
            _cli(
                dm, f"reduce {name} cycle", ["reduce", "--json", cx, "--matching", nfile],
                lambda res: res["morse"] is False and isinstance(res.get("failed_step"), int),
                cells,
            ),
        ]
    ops.append(_cli(dm, f"euler {name} search", ["euler", "--json", cx], _euler_search_check(sp), cells))
    if sp.chi == 0:
        ops += _euler_compare_ops(dm, name, cx, sp, rng, write)
    return ops


def _euler_search_check(sp: Space):
    def check(res: dict) -> bool:
        if sp.chi != 0:
            return res["complete"] is False
        pairs = parse_pair_lines(res["matching"])
        segs = [(a, b, 1) for a, b in parse_pair_lines(res["chain"])]
        return (
            res["complete"] is True
            and res["boundary_ok"] is True
            and facts.is_complete_matching(sp.cellset, pairs)
            and facts.euler_chain_boundary_ok(sp.cellset, segs)
        )

    return check


def _euler_compare_ops(dm, name, cx, sp: Space, rng, write) -> list[Op]:
    # a complete matching other than the one the search finds: search a
    # seeded non-monotone relabelling and map back; checked here
    vs = [c[0] for c in sp.cells[0]]
    img = vs[:]
    rng.shuffle(img)
    ren, back = dict(zip(vs, img)), dict(zip(img, vs))
    Y = dm.SimplicialComplex.from_facets([tuple(ren[v] for v in f) for f in sp.facets])
    M = dm.complete_matching(dm.hasse(Y))
    pairs = [(tuple(sorted(back[v] for v in lo)), tuple(sorted(back[v] for v in hi))) for lo, hi in M.pairs()]
    if not facts.is_complete_matching(sp.cellset, pairs):
        raise ValueError(f"no complete matching on {name}")
    mfile = write("complete.matching", pairs_text(pairs, rng))
    xi = facts.odd_to_even(pairs)
    cases = [("boundary", facts.flag_boundary_segments(sp.cells, rng, 2), True)]
    if sp.betti[1]:
        b2 = sp.betti[2] if sp.dim >= 2 else 0
        cases.append(("loop", facts.loop_segments(facts.essential_loop(sp.cells, b2, rng)), False))
    ops = []
    for kind, segs, verdict in cases:
        chain = write(f"{kind}.chain", segments_text(xi + segs, rng))
        ops.append(
            _cli(
                dm, f"euler {name} compare {kind}",
                ["euler", "--json", cx, "--matching", mfile, "--compare", chain],
                lambda res, verdict=verdict: res["matching_valid"] is True
                and res["complete"] is True and res["boundary_ok"] is True
                and res["comparable"] is True and res["homologous"] is verdict
                and facts.euler_chain_boundary_ok(
                    sp.cellset, [(a, b, 1) for a, b in parse_pair_lines(res["chain"])]
                ),
                sum(sp.n),
            )
        )
    return ops


def _product_op(dm, m: int, n: int) -> Op:
    top = math.comb(m + n, m)
    return _cli(
        dm, f"product {m} {n}", ["product", "--json", str(m), str(n)],
        lambda res: res["cells"][-1] == top and len(res["cells"]) == m + n + 1
        and len(res["facets"]) == top and res["euler_characteristic"] == 1,
        0,
    )


def _fault_ops(dm, work: Path) -> list[Op]:
    """Three malformed inputs that end in a traceback today. The right
    outcome is exit 2 with an ``error:`` line; a repeated matching line may
    instead be reduced as if given once. Inputs are fixed, not seeded."""
    circle = work / "fault-circle.facets"
    circle.write_text("0 1\n1 2\n0 2\n")
    dup = work / "fault-duplicate.matching"
    dup.write_text("0 ; 0 1\n1 ; 1 2\n0 ; 0 1\n")
    complete = work / "fault-complete.matching"
    complete.write_text("0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    outside = work / "fault-outside.chain"
    # the circle's Euler chain plus a closed loop on vertices it lacks
    outside.write_text(
        "0 1 ; 0\n1 2 ; 1\n0 2 ; 2\n"
        "100 ; 100 101\n100 101 ; 101\n101 ; 101 102\n101 102 ; 102\n102 ; 100 102\n100 102 ; 100\n"
    )

    def refused(r: CliResult) -> bool:
        return r.code == 2 and "error:" in r.err

    def dup_ok(r: CliResult) -> bool:
        if refused(r):
            return True
        res = r.results() if r.code == 0 else {}
        return (
            res.get("morse") is True and "failed_step" not in res
            and res.get("reduced_sizes") == [1, 1] and res.get("matches_thom_smale") is True
        )

    argvs = [
        (["product", "-1", "2"], refused),
        (["reduce", "--json", str(circle), "--matching", str(dup)], dup_ok),
        (["euler", "--json", str(circle), "--matching", str(complete), "--compare", str(outside)], refused),
    ]
    return [
        Op(f"fault {' '.join(a[:1] + a[-2:])}", lambda a=a: cli_call(dm, a), check,
           cells=0 if a[0] == "product" else 6, span=f"cli.{a[0]}_s", fault=True)
        for a, check in argvs
    ]


WORKLOADS: dict[str, Callable[[ModuleType, int, Path], Plan]] = {
    "homology-ladder": homology_ladder,
    "morse-sweep": morse_sweep,
    "euler-structures": euler_structures,
    "cli-corpus": cli_corpus,
}
