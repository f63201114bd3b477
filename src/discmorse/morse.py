"""V-paths and the chain complex generated by critical cells.

For a Morse matching, critical cells of each dimension form the basis of a
chain complex whose differential counts V-paths between critical cells
with multiplicative signs. Its construction checks d o d = 0 and, by
design, its homology agrees with the simplicial homology of the
underlying complex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .chains import ChainComplex
from .complexes import Cell, Orientation, SimplicialComplex, hyperfaces, incidence
from .errors import NotMorseError
from .homology import HomologySummary, homology
from .matchings import (
    Matching, _acyclic, _field, _steps, critical_cells, hasse, is_morse, random_morse_matching
)


@dataclass(frozen=True)
class VPath:
    """A V-path: cells of equal dimension, each consecutive pair distinct
    and jointly contained in the matched coface of the earlier one."""

    cells: tuple[Cell, ...]

    @property
    def start(self) -> Cell:
        return self.cells[0]

    @property
    def end(self) -> Cell:
        return self.cells[-1]

    @property
    def length(self) -> int:
        return len(self.cells) - 1

    @property
    def is_stationary(self) -> bool:
        return len(self.cells) == 1


def _as_cells(gamma: VPath | Iterable[Cell]) -> tuple[Cell, ...]:
    if isinstance(gamma, VPath):
        return gamma.cells
    return tuple(gamma)


def multiplicity(
    X: SimplicialComplex,
    gamma: VPath | Iterable[Cell],
    orientation: Orientation | None = None,
) -> int:
    """The sign a V-path transports orientation with, always +1 or -1.

    Each step sigma -> sigma' contributes
    -<d u, sigma> * <d u, sigma'> where u = sigma union sigma' is the
    matched coface of sigma (for cells of equal dimension the union is the
    only candidate, so no matching argument is needed). Stationary paths
    have multiplicity +1.
    """
    cells = _as_cells(gamma)
    if not cells:
        raise ValueError("a V-path has at least one cell")
    m = 1
    for a, b in zip(cells, cells[1:]):
        if len(a) != len(b):
            raise ValueError(f"cells {a} and {b} differ in dimension")
        if a == b:
            raise ValueError(f"consecutive cells repeat: {a}")
        u = tuple(sorted(set(a) | set(b)))
        if len(u) != len(a) + 1 or u not in X:
            raise ValueError(f"no common coface in X for step {a} -> {b}")
        m *= -incidence(u, a, orientation) * incidence(u, b, orientation)
    return m


def vpaths(
    X: SimplicialComplex, M: Matching, start: Cell, end: Cell
) -> list[VPath]:
    """All V-paths of M from start to end, by exhaustive walk.

    Requires a Morse matching (otherwise the walk could cycle). Paths are
    returned in depth-first discovery order; a stationary path is included
    when start == end.
    """
    if start not in X or end not in X:
        raise ValueError("start and end must be cells of X")
    if not is_morse(hasse(X), M):
        raise NotMorseError("matching has a closed V-path")
    found: list[VPath] = []
    path: list[Cell] = [start]

    stack = [_steps(M, start)]
    if start == end:
        found.append(VPath((start,)))
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
            continue
        path.append(nxt)
        if nxt == end:
            found.append(VPath(tuple(path)))
        stack.append(_steps(M, nxt))
    return found


def _signed_counts(
    faces: tuple[tuple[int, ...], ...], v: list[int], starts: Iterable[int]
) -> dict[int, dict[int, int]]:
    """For each start cell id, the map critical cell id -> signed number of
    V-paths from it, canonically oriented (flips multiply a count by the
    signs of its two ends only); v is M as ``matchings._field`` gives it.
    Memoized over the acyclic V-digraph."""
    memo: dict[int, dict[int, int]] = {}
    nothing: dict[int, int] = {}  # shared by the cells matched downward
    work = [(s, False) for s in starts]
    while work:
        c, expanded = work.pop()
        if not expanded and c in memo:
            continue
        tau = v[c]
        if tau < 0:
            memo[c] = {c: 1} if tau == -1 else nothing
            continue
        if not expanded:
            work.append((c, True))
            work.extend((s, False) for s in faces[tau] if s != c and s not in memo)
            continue
        total: dict[int, int] = {}
        i = faces[tau].index(c)
        for j, s in enumerate(faces[tau]):
            if j == i:
                continue
            step = 1 if (i + j) % 2 else -1  # -<d tau, c> * <d tau, s>
            for crit, n in memo[s].items():
                total[crit] = total.get(crit, 0) + step * n
        memo[c] = {crit: n for crit, n in total.items() if n}
    return memo


def path_counts_signed(
    X: SimplicialComplex,
    M: Matching,
    sigma_tilde: Cell,
    orientation: Orientation | None = None,
) -> dict[Cell, int]:
    """Signed V-path counts from sigma_tilde to every reachable critical
    cell of the same dimension (zero totals omitted)."""
    if sigma_tilde not in X:
        raise ValueError("sigma_tilde must be a cell of X")
    if not is_morse(hasse(X), M):
        raise NotMorseError("matching has a closed V-path")
    index, o = X.index(), orientation or {}
    start = index.id_of[sigma_tilde]
    counts = _signed_counts(index.faces, _field(index.id_of, M), [start])[start]
    sign = o.get(sigma_tilde, 1)
    return {index.cells[c]: sign * o.get(index.cells[c], 1) * n for c, n in counts.items()}


def differential_entry(
    X: SimplicialComplex,
    M: Matching,
    tau: Cell,
    sigma: Cell,
    orientation: Orientation | None = None,
) -> int:
    """The coefficient of critical cell sigma in the differential of
    critical cell tau, by literal V-path enumeration:
    sum over hyperfaces s of tau of <d tau, s> * sum of multiplicities of
    V-paths from s to sigma."""
    if M.covers(tau) or M.covers(sigma):
        raise ValueError("tau and sigma must both be critical")
    if len(tau) != len(sigma) + 1:
        raise ValueError("tau must have dimension one above sigma")
    total = 0
    for s in hyperfaces(tau):
        inc = incidence(tau, s, orientation)
        for gamma in vpaths(X, M, s, sigma):
            total += inc * multiplicity(X, gamma, orientation)
    return total


class MorseComplex(ChainComplex):
    """The critical-cell chain complex, with its origins attached."""

    def __init__(self, bases, boundaries, complex: SimplicialComplex, matching: Matching):
        super().__init__(bases, boundaries)
        self.complex = complex
        self.matching = matching


def thom_smale_complex(
    X: SimplicialComplex,
    M: Matching,
    orientation: Orientation | None = None,
) -> MorseComplex:
    """The chain complex on critical cells of a Morse matching.

    Bases are the critical cells in lexicographic order per dimension,
    differentials the signed V-path counts. Construction fails loudly if
    the matching is not Morse or the resulting boundaries do not square to
    zero.
    """
    cells, id_of, faces, _ = X.index()
    v = _field(id_of, M)
    if not _acyclic(faces, v):
        raise NotMorseError("matching has a closed V-path")
    crit = critical_cells(X, M)
    bases = {k: crit.get(k, ()) for k in range(X.dim + 1)}
    o = orientation or {}
    boundaries: dict[int, dict[Cell, dict[Cell, int]]] = {}
    for k in range(1, X.dim + 1):
        taus = [id_of[tau] for tau in bases[k]]
        counts = _signed_counts(faces, v, sorted({s for t in taus for s in faces[t]}))
        boundaries[k] = {}
        for t in taus:
            acc: dict[int, int] = {}
            for j, s in enumerate(faces[t]):  # <d t, s> = (-1)**j
                for crit, n in counts[s].items():
                    acc[crit] = acc.get(crit, 0) + (-n if j % 2 else n)
            sign = o.get(cells[t], 1)
            boundaries[k][cells[t]] = {
                cells[c]: sign * o.get(cells[c], 1) * n for c, n in acc.items()
            }
    return MorseComplex(bases, boundaries, complex=X, matching=M)


def simplicial_homology(X: SimplicialComplex) -> HomologySummary:
    """Integral homology of X through its Thom-Smale complex.

    A seeded random collapse leaves few critical cells, and the Smith form
    runs on those only. Morse homology equals simplicial homology for every
    Morse matching, so the answer is ``homology(chain_complex(X))`` and the
    fixed seed affects only the speed.
    """
    return homology(thom_smale_complex(X, random_morse_matching(X, random.Random(0))))


def reorient(X: SimplicialComplex, flips: Iterable[Cell]) -> dict[Cell, int]:
    """Orientation table flipping the listed cells of X.

    The result maps each flipped cell to -1; pass it as the orientation
    argument of incidence, boundary matrices, or any of the V-path
    functions. Homology is unchanged by any choice of flips.
    """
    table: dict[Cell, int] = {}
    for c in flips:
        if c not in X:
            raise ValueError(f"flip target {c} is not a cell of X")
        table[c] = -1
    return table
