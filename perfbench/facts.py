"""Facts about the benchmark's inputs, derived without the program under test.

Known homology of the underlying spaces, cell counts of barycentric
subdivisions and staircase products, face closures and boundary columns
built here from facet lists, exact rank tests, and checks of matchings,
V-paths and Euler chains. Nothing in this module imports discmorse, so a
fault in the program cannot hide in its own expected answers.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Iterator, Sequence

Cell = tuple[int, ...]
Pair = tuple[Cell, Cell]

# (Betti numbers, torsion per degree) of each underlying space, for a
# triangulation of the space's own dimension. known_homology adds "ball",
# any contractible space.
SPACES = {
    "S0": ((2,), ((),)),
    "S1": ((1, 1), ((), ())),
    "S2": ((1, 0, 1), ((), (), ())),
    "S3": ((1, 0, 0, 1), ((), (), (), ())),
    "torus": ((1, 2, 1), ((), (), ())),
    "rp2": ((1, 0, 0), ((), (2,), ())),
    "klein": ((1, 1, 0), ((), (2,), ())),
}


def known_homology(space: str, dim: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Betti numbers and torsion factors, degrees 0..dim."""
    if space == "ball":
        return (1,) + (0,) * dim, ((),) * (dim + 1)
    betti, torsion = SPACES[space]
    if len(betti) != dim + 1:
        raise ValueError(f"{space} is not {dim}-dimensional")
    return betti, torsion


def group_line(k: int, betti: Sequence[int], torsion: Sequence[Sequence[int]]) -> str:
    """'H_k = Z^2 + Z/2' in the report format documented in the README."""
    parts = []
    b = betti[k]
    if b == 1:
        parts.append("Z")
    elif b > 1:
        parts.append(f"Z^{b}")
    parts.extend(f"Z/{d}" for d in torsion[k])
    return f"H_{k} = " + (" + ".join(parts) if parts else "0")


def closure(facets: Iterable[Iterable[int]]) -> dict[int, list[Cell]]:
    """Every face of the given facets, by dimension, lexicographic."""
    cells: set[Cell] = set()
    for f in facets:
        c = tuple(sorted(f))
        for r in range(1, len(c) + 1):
            cells.update(itertools.combinations(c, r))
    by_dim: dict[int, list[Cell]] = {}
    for c in cells:
        by_dim.setdefault(len(c) - 1, []).append(c)
    return {k: sorted(v) for k, v in sorted(by_dim.items())}


def counts(cells: dict[int, list[Cell]]) -> list[int]:
    return [len(cells.get(k, ())) for k in range(max(cells) + 1)]


def euler_characteristic(n: Sequence[int]) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(n))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the explicit sum."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def subdivision_counts(n: Sequence[int]) -> list[int]:
    """k-cells of the barycentric subdivision: a k-cell is a chain of k+1
    faces ending at some d-cell, i.e. an ordered partition of its d+1
    vertices into k+1 blocks, so sum over d of n_d (k+1)! S(d+1, k+1)."""
    return [
        sum(n[d] * math.factorial(k + 1) * stirling2(d + 1, k + 1) for d in range(len(n)))
        for k in range(len(n))
    ]


def boundary_closure(top_cells: Iterable[Cell]) -> list[Cell]:
    """Facets of the boundary of a pseudomanifold: the codimension-1 faces
    that lie in exactly one top cell."""
    seen: dict[Cell, int] = {}
    for t in top_cells:
        for i in range(len(t)):
            f = t[:i] + t[i + 1:]
            seen[f] = seen.get(f, 0) + 1
    return sorted(f for f, c in seen.items() if c == 1)


def morse_bound(betti: Sequence[int], torsion: Sequence[Sequence[int]]) -> list[int]:
    """Weak Morse inequality bound c_k >= b_k + t_k + t_(k-1) per degree."""
    t = [len(x) for x in torsion]
    return [betti[k] + t[k] + (t[k - 1] if k else 0) for k in range(len(betti))]


def critical_counts_ok(crit: Sequence[int], betti, torsion, chi: int) -> bool:
    bound = morse_bound(betti, torsion)
    return (
        len(crit) == len(bound)
        and all(c >= b for c, b in zip(crit, bound))
        and euler_characteristic(crit) == chi
    )


def _is_facet_pair(sigma: Cell, tau: Cell) -> bool:
    return len(tau) == len(sigma) + 1 and set(sigma) < set(tau)


def is_matching(cells: set[Cell], pairs: Iterable[Pair]) -> bool:
    """Pairs are codimension-1 face relations of the complex, no cell twice."""
    used: set[Cell] = set()
    for sigma, tau in pairs:
        if sigma not in cells or tau not in cells or not _is_facet_pair(sigma, tau):
            return False
        if sigma in used or tau in used:
            return False
        used.update((sigma, tau))
    return True


def is_morse_matching(cells: set[Cell], pairs: Sequence[Pair]) -> bool:
    """A valid matching whose modified Hasse digraph (matched edges up,
    all others down) has no directed cycle; Kahn's algorithm."""
    if not is_matching(cells, pairs):
        return False
    up = dict(pairs)
    succ: dict[Cell, list[Cell]] = {c: [] for c in cells}
    indeg = dict.fromkeys(cells, 0)
    for tau in cells:
        for i in range(len(tau) if len(tau) > 1 else 0):
            sigma = tau[:i] + tau[i + 1:]
            a, b = (sigma, tau) if up.get(sigma) == tau else (tau, sigma)
            succ[a].append(b)
            indeg[b] += 1
    ready = [c for c, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for nxt in succ[c]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return seen == len(cells)


def is_complete_matching(cells: set[Cell], pairs: Sequence[Pair]) -> bool:
    return is_matching(cells, pairs) and 2 * len(pairs) == len(cells)


def is_closed_vpath(path: Sequence[Cell], pairs: Sequence[Pair]) -> bool:
    """sigma_0, ..., sigma_r = sigma_0 with each sigma_(i+1) a face of the
    partner of sigma_i other than sigma_i itself."""
    up = dict(pairs)
    if len(path) < 3 or path[0] != path[-1]:
        return False
    for a, b in zip(path, path[1:]):
        tau = up.get(a)
        if tau is None or a == b or not _is_facet_pair(b, tau):
            return False
    return True


def euler_chain_boundary_ok(cells: Iterable[Cell], segments: Iterable[tuple[Cell, Cell, int]]) -> bool:
    """The chain's boundary (head minus tail per segment) is the
    alternating sum of barycenters, (-1)^dim sigma at each cell sigma."""
    acc: dict[Cell, int] = {}
    for a, b, m in segments:
        acc[b] = acc.get(b, 0) + m
        acc[a] = acc.get(a, 0) - m
    want = {c: (1 if len(c) % 2 == 1 else -1) for c in cells}
    return {c: v for c, v in acc.items() if v} == want


def odd_to_even(pairs: Iterable[Pair]) -> list[tuple[Cell, Cell, int]]:
    """Euler-chain segments of a complete matching: odd-dimensional cell to
    even-dimensional cell."""
    return [(tau, sigma, 1) if len(sigma) % 2 == 1 else (sigma, tau, 1) for sigma, tau in pairs]


# --- exact rank over a large prime field --------------------------------

PRIME = 2**31 - 1


def rank_mod_p(columns: Sequence[dict[int, int]]) -> int:
    """Rank over GF(p) of a matrix given as sparse columns. Over the
    integers the rational rank is at least this."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        v = {r: x % PRIME for r, x in col.items() if x % PRIME}
        while v:
            lead = max(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], PRIME - 2, PRIME)
                pivots[lead] = {r: x * inv % PRIME for r, x in v.items()}
                rank += 1
                break
            f = v[lead]
            for r, x in piv.items():
                y = (v.get(r, 0) - f * x) % PRIME
                if y:
                    v[r] = y
                else:
                    v.pop(r, None)
    return rank


def boundary_columns(cells: dict[int, list[Cell]], k: int) -> list[dict[int, int]]:
    """The degree-k boundary as sparse columns over the (k-1)-cells."""
    row = {c: i for i, c in enumerate(cells[k - 1])}
    return [
        {row[tau[:i] + tau[i + 1:]]: (-1) ** i for i in range(len(tau))}
        for tau in cells[k]
    ]


def loop_column(cells: dict[int, list[Cell]], loop: Sequence[int]) -> dict[int, int]:
    """A closed vertex walk as a 1-chain on the edges."""
    row = {c: i for i, c in enumerate(cells[1])}
    col: dict[int, int] = {}
    for a, b in zip(loop, loop[1:] + loop[:1]):
        i = row[(min(a, b), max(a, b))]
        col[i] = col.get(i, 0) + (1 if a < b else -1)
    return col


def fundamental_cycles(cells: dict[int, list[Cell]], rng: random.Random) -> Iterator[list[int]]:
    """Vertex cycles closed by the chords of a seeded spanning tree of the
    1-skeleton, in seeded order."""
    nbrs: dict[int, list[int]] = {v[0]: [] for v in cells[0]}
    for a, b in cells.get(1, ()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    root = rng.choice(sorted(nbrs))
    parent = {root: root}
    queue = [root]
    for v in queue:
        ws = nbrs[v][:]
        rng.shuffle(ws)
        for w in ws:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    chords = [e for e in cells.get(1, ()) if parent[e[0]] != e[1] and parent[e[1]] != e[0]]
    rng.shuffle(chords)
    for a, b in chords:
        yield _tree_path(parent, a, b)  # closed by the chord b-a


def essential_loop(cells: dict[int, list[Cell]], b2: int, rng: random.Random) -> list[int]:
    """A vertex cycle of a closed surface or graph whose class in H_1 has a
    nonzero free part. Certified over GF(p): once rank_p(d_2) equals the
    rational rank n_2 - b_2, a rank increase from appending the loop holds
    over Q too."""
    d2 = boundary_columns(cells, 2) if 2 in cells else []
    base = rank_mod_p(d2)
    if base != len(d2) - b2:
        raise ValueError("rank of d_2 mod p differs from its rational rank")
    for loop in fundamental_cycles(cells, rng):
        if rank_mod_p(d2 + [loop_column(cells, loop)]) == base + 1:
            return loop
    raise ValueError("no essential fundamental cycle")


def _tree_path(parent: dict[int, int], a: int, b: int) -> list[int]:
    """The vertices of the spanning-tree path from a to b."""
    up_a = [a]
    while parent[up_a[-1]] != up_a[-1]:
        up_a.append(parent[up_a[-1]])
    depth = {v: i for i, v in enumerate(up_a)}
    up_b = [b]
    while up_b[-1] not in depth:
        up_b.append(parent[up_b[-1]])
    return up_a[: depth[up_b[-1]] + 1] + up_b[-2::-1]


def loop_segments(loop: Sequence[int]) -> list[tuple[Cell, Cell, int]]:
    """The loop as unit barycenter segments: vertex, edge, next vertex."""
    segs = []
    for a, b in zip(loop, list(loop[1:]) + [loop[0]]):
        edge = (min(a, b), max(a, b))
        segs += [((a,), edge, 1), (edge, (b,), 1)]
    return segs


def flag_boundary_segments(cells: dict[int, list[Cell]], rng: random.Random, n: int) -> list[tuple[Cell, Cell, int]]:
    """Boundaries of n seeded triangles of the subdivision, each a flag
    sigma_0 < sigma_1 < sigma_2 of faces, as barycenter segments. Their
    sum is a boundary, so adding it never changes a homology class. On a
    graph there is none and the result is empty."""
    tops = [c for k in cells if k >= 2 for c in cells[k]]
    if not tops:
        return []  # a graph bounds nothing
    segs = []
    for _ in range(n):
        s2 = rng.choice(tops)
        s1 = tuple(sorted(rng.sample(s2, rng.randrange(2, len(s2)))))
        s0 = tuple(sorted(rng.sample(s1, rng.randrange(1, len(s1)))))
        segs += [(s0, s1, 1), (s1, s2, 1), (s2, s0, 1)]
    return segs


# --- homology from sympy's Smith normal form ----------------------------


def sympy_homology(cells: dict[int, list[Cell]]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Betti numbers and torsion from sympy's invariant factors of the
    boundary matrices built here."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    n = counts(cells)
    ranks = [0] * (len(n) + 1)
    torsion: list[tuple[int, ...]] = [()] * len(n)
    for k in range(1, len(n)):
        cols = boundary_columns(cells, k)
        dense = [[col.get(i, 0) for col in cols] for i in range(n[k - 1])]
        factors = [abs(int(d)) for d in invariant_factors(Matrix(dense), domain=ZZ) if d]
        ranks[k] = len(factors)
        torsion[k - 1] = tuple(sorted(d for d in factors if d > 1))
    betti = tuple(n[k] - ranks[k] - ranks[k + 1] for k in range(len(n)))
    return betti, tuple(torsion)
