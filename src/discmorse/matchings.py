"""Hasse diagrams of face posets and matchings on them.

A matching pairs a cell with one of its codimension-1 cofaces, no cell in
two pairs. A matching is Morse when it admits no closed V-path, which is
the same as acyclicity of the Hasse diagram with matched edges pointing up
and all other edges pointing down.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, NamedTuple

from .complexes import Cell, SimplicialComplex, hyperfaces
from .errors import MatchingError

Pair = tuple[Cell, Cell]


class HasseDiagram:
    """The cover graph of the face poset: one edge per codimension-1 pair."""

    def __init__(self, X: SimplicialComplex):
        self._complex = X
        up: dict[Cell, list[Cell]] = {c: [] for c in X.all_cells()}
        for c in X.all_cells():
            for f in hyperfaces(c):
                up[f].append(c)
        self._up = {c: tuple(sorted(v)) for c, v in up.items()}
        self._down = {c: tuple(sorted(hyperfaces(c))) for c in X.all_cells()}

    @property
    def complex(self) -> SimplicialComplex:
        return self._complex

    def up(self, cell: Cell) -> tuple[Cell, ...]:
        return self._up[cell]

    def down(self, cell: Cell) -> tuple[Cell, ...]:
        return self._down[cell]

    def has_edge(self, sigma: Cell, tau: Cell) -> bool:
        return sigma in self._down.get(tau, ())

    def vertices(self) -> Iterator[Cell]:
        return self._complex.all_cells()

    def edges(self) -> Iterator[Pair]:
        """All (face, coface) edges, ordered by lower cell then upper cell."""
        for sigma in self._complex.all_cells():
            for tau in self._up[sigma]:
                yield (sigma, tau)

    @property
    def n_vertices(self) -> int:
        return self._complex.n_cells

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self._up.values())


def hasse(X: SimplicialComplex) -> HasseDiagram:
    return HasseDiagram(X)


class Matching:
    """A pairwise-disjoint set of (face, coface) pairs.

    The constructor rejects pairs that are not codimension-1 face relations
    and pairs that share a cell. Use :func:`validate_matching` to get a
    report instead of an exception for candidate edge sets.
    """

    def __init__(self, pairs: Iterable[Pair]):
        seen: dict[Cell, Pair] = {}
        up: dict[Cell, Cell] = {}
        down: dict[Cell, Cell] = {}
        canon: set[Pair] = set()
        for sigma, tau in pairs:
            if len(tau) != len(sigma) + 1 or not set(sigma) < set(tau):
                raise MatchingError(f"{sigma} is not a codimension-1 face of {tau}")
            pair = (sigma, tau)
            if pair in canon:
                continue
            for cell in pair:
                if cell in seen:
                    raise MatchingError(
                        f"cell {cell} covered by both {seen[cell]} and {pair}",
                        cell=cell,
                    )
                seen[cell] = pair
            canon.add(pair)
            up[sigma] = tau
            down[tau] = sigma
        self._pairs = frozenset(canon)
        self._up = up
        self._down = down

    def v(self, sigma: Cell) -> Cell | None:
        """The discrete vector field: the matched coface, or None."""
        return self._up.get(sigma)

    def v_inverse(self, tau: Cell) -> Cell | None:
        """The matched face of tau, or None."""
        return self._down.get(tau)

    def covers(self, cell: Cell) -> bool:
        return cell in self._up or cell in self._down

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self._pairs))

    def remove(self, edge: Pair) -> "Matching":
        """The matching without one pair. Submatchings of Morse stay Morse."""
        if edge not in self._pairs:
            raise ValueError(f"edge {edge} is not in the matching")
        return Matching(self._pairs - {edge})

    def __contains__(self, edge: object) -> bool:
        return edge in self._pairs

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Matching({len(self._pairs)} pairs)"


class ValidationReport(NamedTuple):
    ok: bool
    problem: str | None


def validate_matching(H: HasseDiagram, pairs: Iterable[Pair]) -> ValidationReport:
    """Check that pairs are edges of H and pairwise disjoint.

    Reports the first missing edge or the first pair of edges sharing a
    cell; accepts any iterable of (face, coface) pairs, not just Matching.
    """
    seen: dict[Cell, Pair] = {}
    checked: set[Pair] = set()
    for sigma, tau in pairs:
        pair = (sigma, tau)
        if not H.has_edge(sigma, tau):
            return ValidationReport(False, f"{sigma} -> {tau} is not a Hasse edge")
        if pair in checked:
            continue
        for cell in pair:
            if cell in seen:
                return ValidationReport(
                    False, f"cell {cell} covered by both {seen[cell]} and {pair}"
                )
            seen[cell] = pair
        checked.add(pair)
    return ValidationReport(True, None)


def critical_cells(X: SimplicialComplex, M: Matching) -> dict[int, tuple[Cell, ...]]:
    """Unmatched cells, grouped by dimension (every dimension 0..dim listed)."""
    return {
        k: tuple(c for c in X.cells(k) if not M.covers(c)) for k in range(X.dim + 1)
    }


def _successors(H: HasseDiagram, M: Matching, cell: Cell) -> list[Cell]:
    # arcs of the matched Hasse digraph: matched edges up, the rest down
    out = []
    up = M.v(cell)
    if up is not None:
        out.append(up)
    out.extend(f for f in H.down(cell) if M.v(f) != cell)
    return out


def is_morse(H: HasseDiagram, M: Matching) -> bool:
    """True when the matched Hasse digraph is acyclic (no closed V-path)."""
    return closed_vpath(H, M) is None


def closed_vpath(H: HasseDiagram, M: Matching) -> tuple[Cell, ...] | None:
    """A closed V-path of M, or None when M is Morse, by one linear DFS.

    A cycle of the matched Hasse digraph alternates between dimensions k
    and k+1, so its k-cells in stack order, closed up, are a V-path.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Cell, int] = {}
    for start in H.vertices():
        if color.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[Cell, Iterator[Cell]]] = [
            (start, iter(_successors(H, M, start)))
        ]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    cycle = [cell for cell, _ in stack]
                    cycle = cycle[cycle.index(nxt):]
                    low = min(len(cell) for cell in cycle)
                    path = tuple(cell for cell in cycle if len(cell) == low)
                    return path + path[:1]
                if c == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(_successors(H, M, nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
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


def _collapse_engine(
    X: SimplicialComplex,
    keep: frozenset[Cell],
    choose_pair,
    choose_top,
) -> Matching | None:
    """Shared removal loop: take free pairs while possible, else consult
    choose_top for a coface-free cell to discard as critical (None = give up).

    Removal times strictly increase along V-paths of the collected pairs,
    so the result is always a Morse matching.
    """
    current = set(X.all_cells()) - keep
    count = {c: 0 for c in current}
    up: dict[Cell, list[Cell]] = {c: [] for c in current}
    for c in current:
        for f in hyperfaces(c):
            if f in count:
                count[f] += 1
                up[f].append(c)
    free: list[Cell] = sorted(c for c, n in count.items() if n == 1)
    tops: list[Cell] = sorted(c for c, n in count.items() if n == 0)
    pairs: list[Pair] = []

    def remove_cell(c: Cell) -> None:
        current.discard(c)
        for f in hyperfaces(c):
            if f in current:
                count[f] -= 1
                if count[f] == 1:
                    free.append(f)
                elif count[f] == 0:
                    tops.append(f)

    while current:
        sigma = choose_pair(free, current, count)
        if sigma is not None:
            tau = next(c for c in up[sigma] if c in current)
            pairs.append((sigma, tau))
            remove_cell(tau)
            remove_cell(sigma)
            continue
        top = choose_top(tops, current, count)
        if top is None:
            return None
        remove_cell(top)
    return Matching(pairs)


def _pop_valid(cands: list[Cell], current: set, count: dict, want: int, pick) -> Cell | None:
    # candidates are kept lazily; stale entries are discarded on contact
    while cands:
        i = pick(len(cands))
        c = cands[i]
        if c in current and count[c] == want:
            del cands[i]
            return c
        cands[i] = cands[-1]
        cands.pop()
    return None


def find_collapse(X: SimplicialComplex, X0: SimplicialComplex) -> Matching | None:
    """Greedy collapse of X onto the subcomplex X0.

    Repeatedly removes the free pair with the lexicographically smallest
    lower cell (dimension first); returns None when the greedy sequence
    gets stuck before reaching X0.
    """
    if not X.contains_complex(X0):
        raise ValueError("X0 is not a subcomplex of X")

    def smallest(free, current, count):
        live = [c for c in free if c in current and count[c] == 1]
        if not live:
            return None
        best = min(live, key=lambda c: (len(c), c))
        free.remove(best)
        return best

    def never(tops, current, count):
        return None

    return _collapse_engine(X, frozenset(X0.all_cells()), smallest, never)


def random_morse_matching(
    X: SimplicialComplex, rng: random.Random, keep: float = 1.0
) -> Matching:
    """A random Morse matching built by randomized collapse.

    Takes a random free pair while one exists, otherwise discards a random
    coface-free cell as critical. With keep < 1 each collected pair is then
    kept with that probability, which stays Morse and varies the critical
    set.
    """

    def rand_pair(free, current, count):
        return _pop_valid(free, current, count, 1, lambda n: rng.randrange(n))

    def rand_top(tops, current, count):
        c = _pop_valid(tops, current, count, 0, lambda n: rng.randrange(n))
        if c is None:
            raise AssertionError("no free pair and no coface-free cell")
        return c

    M = _collapse_engine(X, frozenset(), rand_pair, rand_top)
    if keep < 1.0:
        M = Matching(p for p in M.pairs() if rng.random() < keep)
    return M


def random_matching(X: SimplicialComplex, rng: random.Random, density: float = 0.7) -> Matching:
    """A random valid matching with no Morse guarantee (for oracle tests)."""
    edges = list(hasse(X).edges())
    rng.shuffle(edges)
    covered: set[Cell] = set()
    pairs = []
    for sigma, tau in edges:
        if sigma in covered or tau in covered:
            continue
        if rng.random() < density:
            covered.update((sigma, tau))
            pairs.append((sigma, tau))
    return Matching(pairs)


def greedy_morse_matching(X: SimplicialComplex) -> Matching:
    """Scan Hasse edges in (lower, upper) lexicographic order, adding every
    edge that keeps the matching disjoint and free of closed V-paths."""
    H = hasse(X)
    up: dict[Cell, Cell] = {}
    down: dict[Cell, Cell] = {}

    def reaches(src: Cell, goal: Cell) -> bool:
        # search the digraph with the candidate pair already flipped in
        stack = [src]
        seen = {src}
        while stack:
            c = stack.pop()
            targets = []
            t = up.get(c)
            if t is not None:
                targets.append(t)
            targets.extend(f for f in H.down(c) if up.get(f) != c)
            for nxt in targets:
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for sigma, tau in H.edges():
        if sigma in up or sigma in down or tau in up or tau in down:
            continue
        # adding (sigma, tau) flips the arc tau->sigma to sigma->tau, so a
        # new cycle appears exactly when tau then reaches sigma
        up[sigma] = tau
        down[tau] = sigma
        if reaches(tau, sigma):
            del up[sigma]
            del down[tau]
    return Matching(up.items())
