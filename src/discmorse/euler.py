"""Euler chains realized by complete matchings on the Hasse diagram.

A complete matching covers every cell. Joining the barycenters of each
matched pair, oriented from the odd-dimensional cell to the even one,
gives a 1-chain on the barycentric subdivision whose boundary is the
alternating vertex chain sum((-1)^dim(sigma) * b_sigma). Such a chain
exists only when the Euler characteristic is zero, since a complete
matching forces equally many even and odd cells. Whether two such chains
are homologous is decided on the Thom-Smale complex of the seeded collapse
kept with the complex, one per complex whatever the number of comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import Cell, CellIndex, SimplicialComplex
from .errors import MatchingError, NotMorseError
from .homology import in_column_span
from .matchings import Matching, Pair, _field, _verdict
from .morse import _morse_column, _seeded, _signed_counts


def complete_matching(H: CellIndex) -> Matching | None:
    """A matching covering every cell, or None when none exists.

    Cells split by dimension parity into the two sides of a bipartite
    graph; augmenting paths (Kuhn's algorithm, iterative, on cell ids) grow
    a maximum matching, and completeness is checked at the end. Unequal
    parity counts, i.e. nonzero Euler characteristic, fail immediately.
    """
    cells, _, faces, cofaces = H
    evens = [i for i, c in enumerate(cells) if len(c) % 2 == 1]  # even dim = odd size
    odds = [i for i, c in enumerate(cells) if len(c) % 2 == 0]
    if len(evens) != len(odds):
        return None
    match_of = [-1] * len(cells)
    parent = [-1] * len(cells)  # odd cell -> even cell it was reached from
    visited = [-1] * len(cells)  # odd cell -> the start whose search saw it

    for start in evens:
        # iterative DFS for an augmenting path from this uncovered even cell
        stack = [start]
        augmented = False
        while stack and not augmented:
            even = stack.pop()
            # faces in sorted(hyperfaces) order, then cofaces
            for odd in faces[even][::-1] + cofaces[even]:
                if visited[odd] == start:
                    continue
                visited[odd] = start
                parent[odd] = even
                owner = match_of[odd]
                if owner < 0:
                    # flip the alternating path back to the start
                    while odd >= 0:
                        prev_even = parent[odd]
                        next_odd = match_of[prev_even]
                        match_of[odd] = prev_even
                        match_of[prev_even] = odd
                        odd = next_odd
                    augmented = True
                    break
                stack.append(owner)
        if not augmented:
            return None
    v = [-1] * len(cells)  # as from matchings._field
    for odd in odds:
        # ids rank dimension first, so the smaller id of a pair is its face
        face, coface = sorted((odd, match_of[odd]))
        v[face], v[coface] = coface, -2
    return Matching._trusted(H, v)


@dataclass(frozen=True)
class EulerChain:
    """An integer 1-chain of barycenter segments, named by original cells.

    Segments are (from_cell, to_cell, multiplicity) with from and to
    comparable cells of different dimension; storage is canonical: merged,
    zero-free, from < to in the face order, sorted. ``from_segments``
    makes raw segments canonical; direct construction must pass them
    canonical already, as the chains built here do, unchecked.
    """

    segments: tuple[tuple[Cell, Cell, int], ...]

    @classmethod
    def from_segments(
        cls, segments: Iterable[tuple[Cell, Cell, int]]
    ) -> "EulerChain":
        acc: dict[tuple[Cell, Cell], int] = {}
        for a, b, m in segments:
            if a == b:
                raise ValueError(f"degenerate segment at {a}")
            small, big = (a, b) if len(a) < len(b) else (b, a)
            if not set(small) < set(big):
                raise ValueError(f"segment {a} -> {b} joins incomparable cells")
            key = (small, big)
            acc[key] = acc.get(key, 0) + (m if (a, b) == key else -m)
        return cls(
            tuple(
                (a, b, m) for (a, b), m in sorted(acc.items()) if m
            )
        )

    def boundary_on_cells(self) -> dict[Cell, int]:
        """The boundary 0-chain, indexed by original cells."""
        out: dict[Cell, int] = {}
        for a, b, m in self.segments:
            out[b] = out.get(b, 0) + m
            out[a] = out.get(a, 0) - m
        return {c: v for c, v in out.items() if v}

    def __sub__(self, other: "EulerChain") -> "EulerChain":
        # both are canonical: one merge of the two sorted tuples, summing a
        # pair of cells found in both and dropping it when the sum is zero
        xs, ys = self.segments, other.segments
        out: list[tuple[Cell, Cell, int]] = []
        i = j = 0
        while i < len(xs) and j < len(ys):
            a, b, m = xs[i]
            c, d, n = ys[j]
            if (a, b) < (c, d):
                out.append(xs[i])
                i += 1
            elif (c, d) < (a, b):
                out.append((c, d, -n))
                j += 1
            else:
                if m != n:
                    out.append((a, b, m - n))
                i += 1
                j += 1
        out += xs[i:]
        out += [(c, d, -n) for c, d, n in ys[j:]]
        return EulerChain(tuple(out))

    def __len__(self) -> int:
        return len(self.segments)


def euler_chain_from_matching(X: SimplicialComplex, M: Matching) -> EulerChain:
    """The Euler chain of a complete matching: one segment per pair,
    oriented odd-dimensional cell -> even-dimensional cell. The segments
    come canonical from M's field on X: (face, coface, +1) when the face
    is odd-dimensional, (face, coface, -1) when it is even-dimensional.
    MatchingError names a pair with a cell outside X, or else the first
    cell M leaves uncovered."""
    H = X.index()
    cells = H.cells
    v = _field(H, M)
    uncovered = next((cells[c] for c, t in enumerate(v) if t == -1), None)
    if uncovered is not None:
        raise MatchingError(f"matching is not complete: {uncovered} uncovered", cell=uncovered)
    # a field pairs each cell once, so no two segments share their cells
    chain = EulerChain(tuple(sorted(
        (cells[c], cells[t], 1 if len(cells[c]) % 2 == 0 else -1)
        for c, t in enumerate(v) if t >= 0
    )))
    want = {c: (1 if len(c) % 2 == 1 else -1) for c in X.all_cells()}
    if chain.boundary_on_cells() != want:
        raise AssertionError("Euler chain boundary identity failed")
    return chain


def homologous(X: SimplicialComplex, xi: EulerChain, eta: EulerChain) -> bool:
    """Whether two chains with equal boundary differ by a boundary.

    The difference xi - eta is a 1-cycle on the barycentric subdivision.
    Sending each barycenter b_sigma to max(sigma) is a simplicial
    approximation of the identity sd(X) -> X, so it inverts the subdivision
    isomorphism on integral H_1, torsion included. A segment a -> b with
    multiplicity m maps to m times the edge [max a, max b] of X and
    vanishes when the two maxima agree.

    The image z is then decided on the Thom-Smale complex of the seeded
    collapse that ``simplicial_homology`` uses, kept with X. Forman's chain
    map psi sends an edge to its signed V-path counts on the critical
    edges, and is a chain equivalence (Forman, *Morse theory for cell
    complexes*, 1998), so z is a boundary in X exactly when psi(z) is an
    integer combination of the Morse boundaries of the critical triangles.
    Both depend on the matching only, so one seeded reduction serves every
    comparison on X: the first builds the Morse d_2 from the faces of the
    critical triangles and keeps it with the collapse, and each comparison
    walks from the edges of z and decides the span on a copy of its rows.
    Raises ValueError when a segment's cell is not in X or xi - eta is
    not a cycle.
    """
    diff = xi - eta
    image: dict[Cell, int] = {}
    for a, b, m in diff.segments:
        if a not in X or b not in X:
            raise ValueError(f"segment {a} -> {b} is not in the complex")
        if a[-1] != b[-1]:  # a is a face of b, so max a < max b
            edge = (a[-1], b[-1])
            image[edge] = image.get(edge, 0) + m
    if diff.boundary_on_cells():
        raise ValueError("the chains have different boundaries")
    image = {e: v for e, v in image.items() if v}
    if not image:
        return True
    H = X.index()
    cells, id_of, faces, _ = H
    seeded = _seeded(X)
    v, morse = _verdict(H, seeded.matching)
    if not morse:
        raise NotMorseError("matching has a closed V-path")
    if seeded.d2 is None:
        critical = [c for c, t in enumerate(v) if t == -1]
        row_of = {c: i for i, c in enumerate(c for c in critical if len(cells[c]) == 2)}
        triangles = [t for t in critical if len(cells[t]) == 3]
        counts = _signed_counts(faces, v, [s for t in triangles for s in faces[t]])
        rows: list[dict[int, int]] = [{} for _ in row_of]
        for j, t in enumerate(triangles):
            for c, n in _morse_column(faces, counts, t).items():
                rows[row_of[c]][j] = n
        seeded.d2 = (row_of, len(triangles), rows)
    row_of, n_triangles, rows = seeded.d2
    if not row_of:  # no critical edge: psi(z) = 0
        return True
    counts = _signed_counts(faces, v, [id_of[e] for e in image])
    psi: dict[int, int] = {}
    for e, m in image.items():
        for c, n in counts[id_of[e]].items():
            i = row_of[c]
            psi[i] = psi.get(i, 0) + m * n
    # in_column_span consumes its rows, and the kept ones serve every call
    return in_column_span([row.copy() for row in rows], n_triangles, psi)


def reroute_along_vpath(
    M: Matching, tau: Cell, path: Iterable[Cell]
) -> Matching:
    """Shift matched pairs along a V-path starting at a face of tau.

    With path sigma_0, ..., sigma_r: sigma_0 becomes matched with tau and
    each later sigma_i with the cell previously matched to sigma_(i-1).
    The last cell may be unmatched (critical); if it had a partner, that
    partner is left unmatched. Raises MatchingError when the path is not
    a V-path of M or the result covers a cell twice.
    """
    cells = tuple(path)
    if not cells:
        raise ValueError("the path must contain at least one cell")
    sigma0 = cells[0]
    if len(tau) != len(sigma0) + 1 or not set(sigma0) < set(tau):
        raise MatchingError(f"{sigma0} is not a codimension-1 face of {tau}")
    old: list[Pair] = []
    uppers: list[Cell] = []  # old partner of sigma_i, i < r
    for i, sigma in enumerate(cells[:-1]):
        partner = M.v(sigma)
        if partner is None:
            raise MatchingError(f"path cell {sigma} is not matched upward")
        old.append((sigma, partner))
        uppers.append(partner)
        nxt = cells[i + 1]
        if nxt == sigma or not set(nxt) < set(partner):
            raise MatchingError(
                f"{sigma} -> {nxt} is not a V-path step through {partner}"
            )
    last_partner = M.v(cells[-1])
    if last_partner is not None:
        old.append((cells[-1], last_partner))
    pairs = set(M.pairs()) - set(old)
    pairs.add((sigma0, tau))
    for i in range(1, len(cells)):
        pairs.add((cells[i], uppers[i - 1]))
    return Matching(pairs)  # double cover raises MatchingError


def cone_rewire(M: Matching, apex: int, triangle: Cell) -> Matching:
    """Free a cone triangle by rewiring three pairs around its apex.

    For a 2-cell z = (B, C, D) whose matched pairs look like the cone
    pattern (z, az), (BC, aBC), (B, aB) for apex a, replace them by
    (a, aB), (B, BC), (aBC, az). The triangle z becomes unmatched and the
    apex vertex becomes matched, which is what Euler-chain constructions
    over cones need.
    """
    if len(triangle) != 3:
        raise ValueError("the conflict cell must be a 2-cell")
    if apex in triangle:
        raise ValueError("the apex must not be a vertex of the triangle")
    b, c = triangle[0], triangle[1]
    az = tuple(sorted((apex,) + triangle))
    bc = (b, c)
    abc = tuple(sorted((apex, b, c)))
    ab = tuple(sorted((apex, b)))
    removed = [(triangle, az), (bc, abc), ((b,), ab)]
    for pair in removed:
        if pair not in M:
            raise MatchingError(f"cone pattern pair {pair} is missing")
    pairs = set(M.pairs()) - set(removed)
    pairs.update([((apex,), ab), ((b,), bc), (abc, az)])
    return Matching(pairs)
