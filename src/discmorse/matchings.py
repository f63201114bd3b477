"""Matchings on the Hasse diagram of a complex's face poset.

The Hasse diagram is the complex's cell index (``hasse(X)`` is
``X.index()``): its ``faces`` and ``cofaces`` are the cover relation down
and up. A matching pairs a cell with one of its codimension-1 cofaces, no
cell in two pairs. A matching is Morse when it admits no closed V-path. A
closed V-path alternates between a k-cell and its matched (k+1)-coface, so
only matched pairs can lie on one: the decision is one pass over the pairs
(Kahn's algorithm on their V-digraph), and a depth-first search over the
Hasse diagram runs only to find a witness once that pass finds a cycle.

The algorithms work on cell ids. A matching keeps its id field on one
cell index (see :func:`_field`) together with the verdict of that pass
once it has run, so the collapses, the greedy and the complete matchings
hand their fields on, and checking a matching and then building its
Thom-Smale complex maps its pairs to ids once and runs the pass once. A
matching handed on as a field makes its dict of cell pairs only when
something reads the pairs.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, Iterator, NamedTuple

from .complexes import Cell, CellIndex, SimplicialComplex, hyperfaces
from .errors import MatchingError

Pair = tuple[Cell, Cell]


def hasse(X: SimplicialComplex) -> CellIndex:
    """The Hasse diagram of X, that is its cell index."""
    return X.index()


class Matching:
    """A pairwise-disjoint set of (face, coface) pairs.

    The constructor rejects pairs that are not codimension-1 face relations
    and pairs that share a cell. Use :func:`validate_matching` to get a
    report instead of an exception for candidate edge sets.

    A matching also holds the cell index it was built or last checked on,
    its id field there and, once :func:`is_morse`, :func:`closed_vpath` or
    ``thom_smale_complex`` has decided it, whether it is Morse. That verdict
    is never assumed from how the matching was built. Equality and hashing
    see the pairs only.

    The constructor fills the dict of pairs, face -> coface. A matching the
    library builds as a field (a collapse, the greedy or a complete
    matching) makes that dict from the field when its pairs are first
    read, so ``is_morse`` and ``thom_smale_complex`` on its own index
    never make it.
    """

    __slots__ = ("_pairs", "_on")

    def __init__(self, pairs: Iterable[Pair]):
        up: dict[Cell, Cell] = {}
        down: dict[Cell, Cell] = {}
        for sigma, tau in pairs:
            if len(tau) != len(sigma) + 1 or not set(sigma) < set(tau):
                raise MatchingError(f"{sigma} is not a codimension-1 face of {tau}")
            if up.get(sigma) == tau:
                continue
            for cell in (sigma, tau):
                if cell in up or cell in down:
                    held = (cell, up[cell]) if cell in up else (down[cell], cell)
                    raise MatchingError(
                        f"cell {cell} covered by both {held} and {(sigma, tau)}", cell=cell
                    )
            up[sigma] = tau
            down[tau] = sigma
        self._pairs: dict[Cell, Cell] | None = up  # face -> coface; None until made from _on
        self._on: tuple[CellIndex, list[int], bool | None] | None = None  # (H, field, Morse)

    @classmethod
    def _trusted(cls, H: CellIndex, v: list[int]) -> "Matching":
        """The matching whose field on H is v (as :func:`_field` gives it),
        without checks: v must pair cells of H with cofaces, no cell twice."""
        M = cls.__new__(cls)
        M._pairs = None
        M._on = (H, v, None)
        return M

    @property
    def _up(self) -> dict[Cell, Cell]:
        """The pairs, face -> coface, made from the field on first use."""
        up = self._pairs
        if up is None:
            H, v, _ = self._on
            cells = H.cells
            up = self._pairs = {cells[c]: cells[t] for c, t in enumerate(v) if t >= 0}
        return up

    def v(self, sigma: Cell) -> Cell | None:
        """The discrete vector field: the matched coface, or None."""
        return self._up.get(sigma)

    def v_inverse(self, tau: Cell) -> Cell | None:
        """The matched face of tau, found among its hyperfaces, or None."""
        up = self._up
        return next((s for s in hyperfaces(tau) if up.get(s) == tau), None) if tau else None

    def covers(self, cell: Cell) -> bool:
        return cell in self._up or self.v_inverse(cell) is not None

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self._up.items()))

    def remove(self, edge: Pair) -> "Matching":
        """The matching without one pair. Submatchings of Morse stay Morse."""
        if edge not in self:
            raise ValueError(f"edge {edge} is not in the matching")
        return Matching(p for p in self._up.items() if p != edge)

    def __contains__(self, edge: object) -> bool:
        return edge in self._up.items()

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self._up)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._up == other._up

    def __hash__(self) -> int:
        return hash(frozenset(self._up.items()))

    def __repr__(self) -> str:
        return f"Matching({len(self._up)} pairs)"


class ValidationReport(NamedTuple):
    ok: bool
    problem: str | None


def validate_matching(H: CellIndex, pairs: Iterable[Pair]) -> ValidationReport:
    """Check that pairs are edges of H and pairwise disjoint.

    Reports the first missing edge or the first pair of edges sharing a
    cell; accepts any iterable of (face, coface) pairs, not just Matching.
    """
    pairs, id_of, faces = list(pairs), H.id_of, H.faces
    n = next(  # the first pair that is not a (face, coface) edge of H
        (i for i, (s, t) in enumerate(pairs)
         if t not in id_of or id_of.get(s) not in faces[id_of[t]]),
        len(pairs),
    )
    try:
        Matching(pairs[:n])  # the edges before the first non-edge
    except MatchingError as exc:
        return ValidationReport(False, str(exc))
    if n < len(pairs):
        return ValidationReport(False, f"{pairs[n][0]} -> {pairs[n][1]} is not a Hasse edge")
    return ValidationReport(True, None)


def critical_cells(X: SimplicialComplex, M: Matching) -> dict[int, tuple[Cell, ...]]:
    """Unmatched cells, grouped by dimension (every dimension 0..dim listed).
    A pair with a cell outside X raises MatchingError."""
    v = iter(_field(X.index(), M))  # in id order: cells(k) takes the next slice
    return {k: tuple(c for c, t in zip(X.cells(k), v) if t == -1) for k in range(X.dim + 1)}


def _field(H: CellIndex, M: Matching) -> list[int]:
    """M on the cell ids of H: the id of the matched coface, -2 for the
    upper cell of a pair, -1 for a critical cell.

    The field M holds for this very index is returned as it is; otherwise
    it is computed from M's pairs (made from the old field first, if they
    were never read) and M keeps it in place of any other. A pair with a
    cell outside H raises MatchingError.
    """
    if M._on is not None and M._on[0] is H:
        return M._on[1]
    id_of = H.id_of
    v = [-1] * len(id_of)
    for sigma, tau in M._up.items():
        s, t = id_of.get(sigma), id_of.get(tau)
        if s is None or t is None:
            raise MatchingError(
                f"pair {(sigma, tau)} names a cell outside the complex",
                cell=sigma if s is None else tau,
            )
        v[s] = t
        v[t] = -2
    M._on = (H, v, None)
    return v


def _acyclic(faces: tuple[tuple[int, ...], ...], v: list[int]) -> bool:
    """True when the V-digraph of v (M as :func:`_field` gives it) has no
    cycle, by Kahn's algorithm.

    Its nodes are the cells matched upward; sigma -> s for every face s of
    v(sigma) other than sigma that is itself matched upward. A closed
    V-path is exactly a cycle of it, in any dimension.
    """
    indeg = [0] * len(v)
    nodes = [c for c, t in enumerate(v) if t >= 0]
    for c in nodes:
        for s in faces[v[c]]:
            if s != c and v[s] >= 0:
                indeg[s] += 1
    ready = [c for c in nodes if not indeg[c]]
    removed = 0
    while ready:
        c = ready.pop()
        removed += 1
        for s in faces[v[c]]:
            if s != c and v[s] >= 0:
                indeg[s] -= 1
                if not indeg[s]:
                    ready.append(s)
    return removed == len(nodes)


def _verdict(H: CellIndex, M: Matching) -> tuple[list[int], bool]:
    """M's field on H and whether M is Morse. Kahn's pass runs at most once
    per (M, H): M keeps its verdict with the field."""
    v = _field(H, M)
    morse = M._on[2]
    if morse is None:
        morse = _acyclic(H.faces, v)
        M._on = (H, v, morse)
    return v, morse


def is_morse(H: CellIndex, M: Matching) -> bool:
    """True when M has no closed V-path, decided by one pass over the
    matched pairs."""
    return _verdict(H, M)[1]


def closed_vpath(H: CellIndex, M: Matching) -> tuple[Cell, ...] | None:
    """A closed V-path of M, or None when M is Morse.

    The pass of :func:`is_morse` decides; only when it finds a cycle does
    a linear DFS over the matched Hasse digraph look for the witness. A
    cycle of that digraph alternates between dimensions k and k+1, so its
    k-cells in stack order, closed up, are a V-path.
    """
    cells, faces = H.cells, H.faces
    v, morse = _verdict(H, M)
    if morse:
        return None
    color = bytearray(len(cells))  # 0 unseen, 1 on the stack, 2 done
    for start in range(len(cells)):
        path: list[int] = []
        stack = [iter((start,))]  # stack[i + 1] iterates the arcs out of path[i]
        while stack:
            for nxt in stack[-1]:
                if color[nxt] == 1:
                    cycle = [cells[c] for c in path[path.index(nxt):]]
                    low = min(map(len, cycle))
                    vpath = tuple(c for c in cycle if len(c) == low)
                    return vpath + vpath[:1]
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    # the matched edge up, then the other edges down in
                    # sorted(hyperfaces) order, i.e. ascending ids
                    down = [f for f in reversed(faces[nxt]) if v[f] != nxt]
                    stack.append(iter([v[nxt]] + down if v[nxt] >= 0 else down))
                    break
            else:
                stack.pop()
                if path:
                    color[path.pop()] = 2
    return None


def find_closed_vpath(X: SimplicialComplex, M: Matching) -> tuple[Cell, ...] | None:
    """A closed V-path found by literal enumeration, or None; an
    exponential test oracle for :func:`closed_vpath`.

    Walks V-paths cell by cell from every matched lower cell, restricted to
    paths without interior repeats; any closed V-path contains such a
    simple one, so this misses nothing and always terminates.
    """
    tails = sorted(c for c in X.all_cells() if M.v(c) is not None)
    for start in tails:
        path = [start]
        on_path = {start}
        stack: list[Iterator[Cell]] = [_steps(M, start)]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                on_path.discard(path.pop())
                continue
            if nxt == start:
                return tuple(path) + (start,)
            if nxt in on_path or M.v(nxt) is None:
                continue
            path.append(nxt)
            on_path.add(nxt)
            stack.append(_steps(M, nxt))
    return None


def _steps(M: Matching, sigma: Cell) -> Iterator[Cell]:
    tau = M.v(sigma)
    return iter(() if tau is None else [c for c in hyperfaces(tau) if c != sigma])


def _collapse_engine(X: SimplicialComplex, keep: Iterable[Cell], bits) -> list[int] | None:
    """Removal loop on cell ids, down to the subcomplex keep: take a free
    pair while one exists, else discard a coface-free cell as critical.
    Returns the collected pairs as a field on ``X.index()`` (see
    :func:`_field`).

    bits is an rng's ``getrandbits``: which of n candidates to try next is
    the draw ``rng.randrange(n)`` would make, one per candidate tried, stale
    ones included, so rng ends as after those randrange calls. Without bits
    the free pair with the smallest lower id is taken and nothing is
    discarded, so getting stuck gives None. Candidates start in
    sorted(cell) order, are added in hyperfaces order, and a stale one is
    dropped on contact by moving the last into its place. Removal times
    strictly increase along V-paths of the collected pairs, so they always
    form a Morse matching.
    """
    cells, id_of, faces, cofaces = X.index()
    v = [-1] * len(cells)
    alive = bytearray([1]) * len(cells)
    for c in keep:
        alive[id_of[c]] = 0
    left = alive.count(1)
    count = [len(ups) for ups in cofaces]  # a live cell's cofaces are all live
    free = sorted((c for c, n in enumerate(count) if n == 1 and alive[c]), key=cells.__getitem__)
    tops = sorted((c for c, n in enumerate(count) if n == 0 and alive[c]), key=cells.__getitem__)
    heap: list[int] = []
    while left:
        if bits is None:  # the smallest free id; a stale cell never turns live again
            while free:
                heapq.heappush(heap, free.pop())
            while heap:
                c = heapq.heappop(heap)
                if alive[c] and count[c] == 1:
                    break
            else:
                return None
            want = 1
        else:  # randrange's rejection loop, free cells first, then tops
            cands, want = free, 1
            while True:
                n = len(cands)
                if not n:
                    if not want:
                        return None
                    cands, want = tops, 0
                    continue
                k = n.bit_length()
                i = bits(k)
                while i >= n:
                    i = bits(k)
                c = cands[i]
                if alive[c] and count[c] == want:
                    del cands[i]
                    break
                cands[i] = cands[-1]
                cands.pop()
        if want:  # remove the pair (c, its one live coface), the coface first
            for tau in cofaces[c]:
                if alive[tau]:
                    break
            v[c], v[tau] = tau, -2
            dead: tuple[int, ...] = (tau, c)
        else:  # c stays critical
            dead = (c,)
        left -= len(dead)
        for d in dead:
            alive[d] = 0
            for f in faces[d]:
                if alive[f]:
                    n = count[f] - 1
                    count[f] = n
                    if n == 1:
                        free.append(f)
                    elif not n:
                        tops.append(f)
    return v


def find_collapse(X: SimplicialComplex, X0: SimplicialComplex) -> Matching | None:
    """Greedy collapse of X onto the subcomplex X0.

    Repeatedly removes the free pair with the lexicographically smallest
    lower cell (dimension first), i.e. the smallest id; returns None when
    the greedy sequence gets stuck before reaching X0.
    """
    if not X.contains_complex(X0):
        raise ValueError("X0 is not a subcomplex of X")
    v = _collapse_engine(X, X0.all_cells(), None)
    return None if v is None else Matching._trusted(X.index(), v)


def random_morse_matching(X: SimplicialComplex, rng: random.Random) -> Matching:
    """A random Morse matching built by randomized collapse.

    Takes a random free pair while one exists, otherwise discards a random
    coface-free cell as critical. Each candidate tried, stale ones
    included, costs the draw ``rng.randrange(n)`` makes among the n left.
    """
    v = _collapse_engine(X, (), rng.getrandbits)
    assert v is not None  # a live cell of top dimension is always coface-free
    return Matching._trusted(X.index(), v)


def greedy_morse_matching(X: SimplicialComplex) -> Matching:
    """Scan Hasse edges in (lower, upper) lexicographic order, adding every
    edge that keeps the matching disjoint and free of closed V-paths."""
    H = X.index()
    _, _, faces, cofaces = H
    v = [-1] * len(faces)  # as from _field: coface id, -2 matched down, -1 free

    def reaches(tau: int, sigma: int) -> bool:
        # a cycle through (sigma, tau) stays in their two dimensions: from a
        # coface t down to a face f but t's partner, then up along f's pair
        stack, seen = [tau], set()
        while stack:
            t = stack.pop()
            for f in faces[t]:
                u = v[f]
                if u != t:
                    if f == sigma:
                        return True
                    if u >= 0 and u not in seen:
                        seen.add(u)
                        stack.append(u)
        return False

    for sigma, ups in enumerate(cofaces):
        for tau in ups:
            if v[sigma] != -1:
                break
            if v[tau] == -1:
                # adding (sigma, tau) flips the arc tau->sigma to sigma->tau,
                # so a new cycle appears exactly when tau then reaches sigma
                v[sigma] = tau
                if reaches(tau, sigma):
                    v[sigma] = -1
                else:
                    v[tau] = -2
    return Matching._trusted(H, v)
