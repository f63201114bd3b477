"""The chain complex generated by critical cells, from signed V-path counts.

For a Morse matching, critical cells of each dimension form the basis of a
chain complex whose differential counts V-paths between critical cells
with multiplicative signs. Its construction checks d o d = 0 and, by
design, its homology agrees with the simplicial homology of the
underlying complex.
"""

from __future__ import annotations

import random
from typing import Iterable

from .chains import ChainComplex
from .complexes import Cell, Orientation, SimplicialComplex, _check_orientation
from .errors import NotMorseError
from .homology import HomologySummary, homology
from .matchings import Matching, _verdict, random_morse_matching


def _signed_counts(
    faces: tuple[tuple[int, ...], ...], v: list[int], starts: Iterable[int]
) -> dict[int, dict[int, int]]:
    """For each start cell id, the map critical cell id -> signed number of
    V-paths from it, canonically oriented (flips multiply a count by the
    signs of its two ends only); v is M as ``matchings._field`` gives it.
    Memoized over the acyclic V-digraph, so one call serves starts of
    every dimension; each empty map is one shared dict, to be read only."""
    memo: dict[int, dict[int, int]] = {}
    nothing: dict[int, int] = {}
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
        memo[c] = {crit: n for crit, n in total.items() if n} or nothing
    return memo


def _morse_column(
    faces: tuple[tuple[int, ...], ...], counts: dict[int, dict[int, int]], t: int
) -> dict[int, int]:
    """The Morse boundary of the critical cell t, critical cell id ->
    coefficient without zeros: sum_j (-1)**j counts[faces[t][j]], with
    counts from ``_signed_counts`` walked from every face of t."""
    acc: dict[int, int] = {}
    for j, s in enumerate(faces[t]):  # <d t, s> = (-1)**j
        for crit, n in counts[s].items():
            acc[crit] = acc.get(crit, 0) + (-n if j % 2 else n)
    return {crit: n for crit, n in acc.items() if n}


def thom_smale_complex(
    X: SimplicialComplex,
    M: Matching,
    orientation: Orientation | None = None,
) -> ChainComplex:
    """The chain complex on critical cells of a Morse matching.

    Bases are the critical cells in lexicographic order per dimension,
    differentials the signed V-path counts, from one walk over the faces
    of the critical k-cells for each k with a critical (k-1)-cell. Every
    V-path count lands on a critical cell one dimension down, so in the
    other degrees the differential is zero and nothing is walked (Forman,
    *Morse theory for cell complexes*, 1998). Construction fails loudly
    if the matching is not Morse, the orientation maps a cell outside X or
    to a value other than +1 or -1, or the boundaries do not square to 0.
    """
    _check_orientation(X, orientation)
    H = X.index()
    cells, _, faces, _ = H
    v, morse = _verdict(H, M)
    if not morse:
        raise NotMorseError("matching has a closed V-path")
    # ids ascending, so each basis comes out in lexicographic order
    critical = [c for c, t in enumerate(v) if t == -1]
    # every count lands on a critical cell one size down: without one there,
    # a critical cell's column is empty and its faces are not walked from
    sizes = {len(cells[c]) for c in critical}
    walked = [t for t in critical if len(cells[t]) - 1 in sizes]
    counts = _signed_counts(faces, v, [s for t in walked for s in faces[t]])
    o = orientation or {}
    bases: dict[int, list[Cell]] = {k: [] for k in range(X.dim + 1)}
    boundaries: dict[int, dict[Cell, dict[Cell, int]]] = {k: {} for k in range(1, X.dim + 1)}
    for t in critical:
        bases[len(cells[t]) - 1].append(cells[t])
    for t in walked:
        tau = cells[t]
        col = _morse_column(faces, counts, t)
        if col:
            sign = o.get(tau, 1)
            boundaries[len(tau) - 1][tau] = {
                cells[c]: sign * o.get(cells[c], 1) * n for c, n in col.items()
            }
    return ChainComplex(bases, boundaries)


class _Seeded:
    """The seeded reduction of one complex: its seed-0 collapse, whose
    field and Morse verdict on the complex's index ride on the matching,
    and, once ``homologous`` has built it, the Morse d_2 as (critical edge
    id -> row, number of critical triangles, sparse rows)."""

    __slots__ = ("matching", "d2")

    def __init__(self, matching: Matching):
        self.matching = matching
        self.d2: tuple[dict[int, int], int, list[dict[int, int]]] | None = None


def _seeded(X: SimplicialComplex) -> _Seeded:
    """The seeded reduction of X, made on first use and kept on X, which is
    immutable: ``random_morse_matching(X, random.Random(0))`` runs once per
    complex, and equal complexes built apart each make their own."""
    seeded = X._seeded
    if seeded is None:
        seeded = X._seeded = _Seeded(random_morse_matching(X, random.Random(0)))
    return seeded


def simplicial_homology(X: SimplicialComplex) -> HomologySummary:
    """Integral homology of X through its Thom-Smale complex.

    The seed-0 collapse kept with X (the one ``homologous`` reads; it runs
    once per complex) leaves few critical cells, and the Smith form runs on
    those only. Morse homology equals simplicial homology for every Morse
    matching, so the answer is ``homology(chain_complex(X))`` and the fixed
    seed affects only the speed.
    """
    return homology(thom_smale_complex(X, _seeded(X).matching))


def reorient(X: SimplicialComplex, flips: Iterable[Cell]) -> dict[Cell, int]:
    """Orientation table flipping the listed cells of X.

    The result maps each flipped cell to -1; pass it as the orientation
    argument of ``chain_complex`` or ``thom_smale_complex``.
    Homology is unchanged by any choice of flips.
    """
    table: dict[Cell, int] = {}
    for c in flips:
        if c not in X:
            raise ValueError(f"flip target {c} is not a cell of X")
        table[c] = -1
    return table
