"""Reference implementations the tests check the package against.

They follow the definitions literally: V-paths are enumerated one by one,
Smith forms track all four transforms and are checked by matrix products,
cycles are classified by those products, the Euler-chain boundary is
read off the subdivision, Euler chains are compared on the whole d_2 of
the complex, Morse-ness is compared with elimination over many orders,
elimination copies the complex for every pair, faces are cut out of cell
tuples by slicing, and the collapse engine keeps the nested-function form
it had before its one-loop rewrite. Several are exponential, cubic or
quadratic, so they are for small inputs, and no module of the package
imports them.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from discmorse.chains import ChainComplex, Column, Label, _add_scaled, chain_complex
from discmorse.complexes import (
    Cell, CellIndex, Orientation, SimplicialComplex, Subdivision, hyperfaces
)
from discmorse.elimination import EliminationStep, OrdersResult, all_orders_agree
from discmorse.errors import EliminationError, NotMorseError
from discmorse.euler import EulerChain
from discmorse.homology import CycleClass, SmithNormalForm, _SmithWorker, _smith, in_column_span
from discmorse.matchings import Matching, Pair, _field, _steps, hasse, is_morse
from discmorse.morse import _signed_counts

Matrix = list[list[int]]


def incidence(tau: Cell, sigma: Cell, orientation: Orientation | None = None) -> int:
    """Signed incidence number <d tau, sigma> in {-1, 0, +1}.

    Nonzero exactly when sigma is a codimension-1 face of tau; the sign is
    (-1)**i for the dropped vertex position, times any orientation flips.
    """
    if len(tau) != len(sigma) + 1:
        return 0
    sign = 0
    for i in range(len(tau)):
        if tau[:i] + tau[i + 1:] == sigma:
            sign = -1 if i % 2 else 1
            break
    if sign and orientation:
        sign *= orientation.get(tau, 1) * orientation.get(sigma, 1)
    return sign


def dense_boundary(C: ChainComplex, k: int) -> Matrix:
    """A dense copy of C's degree-k boundary; degree 0 is 0 x n_0."""
    if k == 0:
        return []
    if k < 1 or k > C.top_dim:
        raise ValueError(f"no boundary in degree {k}")
    rows = {sigma: i for i, sigma in enumerate(C.basis(k - 1))}
    mat = [[0] * C.size(k) for _ in rows]
    for j, tau in enumerate(C.basis(k)):
        for sigma, v in C.column(k, tau).items():
            mat[rows[sigma]][j] = v
    return mat


def hasse_edges(X: SimplicialComplex) -> list[Pair]:
    """All (face, coface) edges of the Hasse diagram, ordered by lower cell
    then upper cell."""
    cells, _, _, cofaces = X.index()
    return [(sigma, cells[j]) for sigma, ups in zip(cells, cofaces) for j in ups]


def v_inverse(M: Matching, tau: Cell) -> Cell | None:
    """The matched face of tau, found among its hyperfaces, or None."""
    return next((s for s in hyperfaces(tau) if M.v(s) == tau), None) if tau else None


def covers(M: Matching, cell: Cell) -> bool:
    """Whether cell lies in a pair of M, as its face or its coface."""
    return M.v(cell) is not None or v_inverse(M, cell) is not None


def random_matching(X: SimplicialComplex, rng: random.Random, density: float = 0.7) -> Matching:
    """A random valid matching with no Morse guarantee."""
    edges = hasse_edges(X)
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


def thin_matching(M: Matching, rng: random.Random, keep: float) -> Matching:
    """M with each pair kept with probability keep, which stays Morse when
    M is and varies the critical set: one ``rng.random()`` per pair, in
    ``M.pairs()`` order. M itself when keep >= 1, with no draw."""
    if keep >= 1.0:
        return M
    return Matching(p for p in M.pairs() if rng.random() < keep)


# --- V-paths, one by one ---


def multiplicity(
    X: SimplicialComplex, cells: Iterable[Cell], orientation: Orientation | None = None
) -> int:
    """The sign a V-path transports orientation with, always +1 or -1.

    Each step sigma -> sigma' contributes
    -<d u, sigma> * <d u, sigma'> where u = sigma union sigma' is the
    matched coface of sigma (for cells of equal dimension the union is the
    only candidate, so no matching argument is needed). Stationary paths
    have multiplicity +1.
    """
    cells = tuple(cells)
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


def vpaths(X: SimplicialComplex, M: Matching, start: Cell, end: Cell) -> list[tuple[Cell, ...]]:
    """All V-paths of M from start to end, as cell tuples, by exhaustive walk.

    Requires a Morse matching (otherwise the walk could cycle). Paths are
    returned in depth-first discovery order; a stationary path is included
    when start == end.
    """
    if start not in X or end not in X:
        raise ValueError("start and end must be cells of X")
    if not is_morse(hasse(X), M):
        raise NotMorseError("matching has a closed V-path")
    found = [(start,)] if start == end else []
    path = [start]
    stack = [_steps(M, start)]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
            continue
        path.append(nxt)
        if nxt == end:
            found.append(tuple(path))
        stack.append(_steps(M, nxt))
    return found


def path_counts_signed(X: SimplicialComplex, M: Matching, start: Cell) -> dict[Cell, int]:
    """The package's memoized signed V-path counts from start to every
    reachable critical cell (zero totals omitted), on cells instead of ids."""
    if start not in X:
        raise ValueError("start must be a cell of X")
    if not is_morse(hasse(X), M):
        raise NotMorseError("matching has a closed V-path")
    H = X.index()
    s = H.id_of[start]
    return {H.cells[c]: n for c, n in _signed_counts(H.faces, _field(H, M), [s])[s].items()}


def differential_entry(X: SimplicialComplex, M: Matching, tau: Cell, sigma: Cell) -> int:
    """The coefficient of critical cell sigma in the differential of
    critical cell tau: the sum over hyperfaces s of tau of <d tau, s> times
    the multiplicities of the V-paths from s to sigma."""
    if covers(M, tau) or covers(M, sigma):
        raise ValueError("tau and sigma must both be critical")
    if len(tau) != len(sigma) + 1:
        raise ValueError("tau must have dimension one above sigma")
    return sum(
        incidence(tau, s) * multiplicity(X, gamma)
        for s in hyperfaces(tau)
        for gamma in vpaths(X, M, s, sigma)
    )


# --- Smith normal form ---


def _matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], n_cols_b: int) -> list:
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(n_cols_b)] for row in A]


class TrackedSmith(_SmithWorker):
    """The package's Smith worker with all four transforms, U A V = D. U
    is carried by rows and V^-1 by columns, each from the identity; this
    class mirrors every operation onto U^-1, kept by columns indexed like
    the rows, and V, kept by columns on column keys. It replays the
    worker's own operations, so the transforms are those of the package's
    operation sequence."""

    def __init__(self, rows: list[dict[int, int]], n_cols: int):
        m = len(rows)
        super().__init__(
            rows, n_cols, [{i: 1} for i in range(m)], [{k: 1} for k in range(n_cols)]
        )
        self.U_inv = [{i: 1} for i in range(m)]
        self.V = [{k: 1} for k in range(n_cols)]

    def row_swap(self, i1: int, i2: int) -> None:
        super().row_swap(i1, i2)
        self.U_inv[i1], self.U_inv[i2] = self.U_inv[i2], self.U_inv[i1]

    def row_neg(self, i: int) -> None:
        super().row_neg(i)
        self.U_inv[i] = {j: -v for j, v in self.U_inv[i].items()}

    def row_add(self, dst: int, src: int, c: int) -> None:
        super().row_add(dst, src, c)
        if c:
            _add_scaled(self.U_inv[src], self.U_inv[dst], -c)

    def col_add(self, dst: int, src: int, c: int) -> None:
        super().col_add(dst, src, c)
        if c:
            _add_scaled(self.V[self.col[dst]], self.V[self.col[src]], c)


@dataclass
class TrackedSmithForm(SmithNormalForm):
    """A Smith form with its dense transforms, columns in position order."""

    U: Matrix
    V: Matrix
    U_inv: Matrix
    V_inv: Matrix


def tracked_smith(A: Sequence[Sequence[int]], n_cols: int | None = None) -> TrackedSmithForm:
    """``smith_normal_form`` of A with the transforms of ``TrackedSmith``."""
    if n_cols is None:
        n_cols = len(A[0]) if A else 0
    w = TrackedSmith([{j: v for j, v in enumerate(row) if v} for row in A], n_cols)
    s = _smith(w)
    m, keys = len(A), w.col
    return TrackedSmithForm(
        s.shape, s.diagonal, s.rank,
        U=[[row.get(j, 0) for j in range(m)] for row in w.row_carry],
        V=[[w.V[k].get(i, 0) for k in keys] for i in range(n_cols)],
        U_inv=[[column.get(i, 0) for column in w.U_inv] for i in range(m)],
        V_inv=[[w.col_carry[k].get(j, 0) for j in range(n_cols)] for k in keys],
    )


def snf_is_valid(A: Sequence[Sequence[int]], s: TrackedSmithForm) -> bool:
    """The full contract: U A V = D, the divisibility chain, zeros past the
    rank, and U U^-1 = I, V V^-1 = I. The last two on integer matrices give
    det U * det U^-1 = 1 in Z, so U and V are unimodular."""
    m, n = s.shape
    D = [[s.diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
    if _matmul(_matmul(s.U, A, n), s.V, n) != D:
        return False
    if any(a <= 0 or b % a for a, b in zip(s.factors, s.factors[1:])):
        return False
    if any(s.diagonal[s.rank:]):
        return False
    return all(
        _matmul(T, T_inv, k) == [[int(i == j) for j in range(k)] for i in range(k)]
        for T, T_inv, k in ((s.U, s.U_inv, m), (s.V, s.V_inv, n))
    )


def cycle_class_by_transforms(C: ChainComplex, k: int, z: dict[Label, int]) -> CycleClass:
    """``cycle_class`` by products with tracked transforms: w = V^-1 z for
    the V of d_k vanishes up to its rank, B = V^-1[rank:] d_(k+1) writes
    the boundaries in kernel coordinates, and U w[rank:], for the U of B,
    gives the class."""
    if k < 0 or k > C.top_dim:
        raise ValueError(f"degree {k} out of range")
    basis = C.basis(k)
    if not z.keys() <= set(basis):
        raise ValueError("labels outside the basis")
    s = tracked_smith(dense_boundary(C, k), len(basis))
    w = _matmul(s.V_inv, [[z.get(lab, 0)] for lab in basis], 1)
    if any(row[0] for row in w[: s.rank]):
        raise ValueError("z is not a cycle")
    n = C.size(k + 1)
    above = dense_boundary(C, k + 1) if k < C.top_dim else [[] for _ in basis]
    t = tracked_smith(_matmul(s.V_inv[s.rank:], above, n), n)
    u = [row[0] for row in _matmul(t.U, w[s.rank:], 1)]
    torsion = tuple((u[a] % d, d) for a, d in enumerate(t.factors) if d > 1)
    return CycleClass(k, torsion, tuple(u[t.rank:]))


# --- Euler chains ---


def boundary_zero_chain(sub: Subdivision, chain: EulerChain) -> dict[int, int]:
    """The boundary of an Euler chain as a 0-chain on subdivision vertices."""
    out: dict[int, int] = {}
    for cell, coeff in chain.boundary_on_cells().items():
        vid = sub.barycenter_of.get(cell)
        if vid is None:
            raise ValueError(f"{cell} has no barycenter in this subdivision")
        out[vid] = out.get(vid, 0) + coeff
    return {v: c for v, c in out.items() if c}


def homologous_on_complex(X: SimplicialComplex, xi: EulerChain, eta: EulerChain) -> bool:
    """Whether xi - eta is a boundary, decided on the whole d_2 of X: the
    image under b_sigma -> max(sigma) against one elimination over every
    edge and triangle, with homologous's ValueErrors."""
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
    # d_2 of X from the cell index: a row per edge, a column per triangle
    _, id_of, faces, _ = X.index()
    n0, n1, n2 = (len(X.cells(k)) for k in range(3))
    rows: list[dict[int, int]] = [{} for _ in range(n1)]
    for j in range(n2):
        for pos, e in enumerate(faces[n0 + n1 + j]):
            rows[e - n0][j] = -1 if pos % 2 else 1
    return in_column_span(rows, n2, {id_of[e] - n0: v for e, v in image.items()})


# --- Morse-ness against elimination ---


class MorseOrdersVerdict(NamedTuple):
    morse: bool
    all_orders_succeed: bool  # no tested order hit a non-invertible pivot
    consistent: bool          # the two verdicts coincide, as they must
    orders: OrdersResult


def morse_iff_all_orders(X: SimplicialComplex, M: Matching) -> MorseOrdersVerdict:
    """Check the equivalence 'Morse matching == every order eliminates'.

    Runs both sides independently: acyclicity of the matched Hasse diagram
    on one side, on the other ``all_orders_agree`` on the simplicial chain
    complex, which eliminates the sorted order there and every other
    order (all of them up to 8 pairs) on the pairs' own submatrix.
    """
    morse = is_morse(hasse(X), M)
    orders = all_orders_agree(chain_complex(X), M)
    succeed = orders.failure is None
    return MorseOrdersVerdict(morse, succeed, morse == succeed, orders)


# --- elimination, one copy per pair ---


def _without(entries: dict, drop: Label) -> dict:
    """entries less the key drop; entries itself when drop is absent."""
    if drop not in entries:
        return entries
    return {label: v for label, v in entries.items() if label != drop}


def _nonzero(entries: dict) -> dict:
    return {label: v for label, v in entries.items() if v}


def copying_eliminate(C: ChainComplex, step: EliminationStep | Pair) -> ChainComplex:
    """One (lower, upper) pair eliminated by rebuilding both basis dicts and
    every column of the two degrees it touches; raises like
    ``gaussian_eliminate``."""
    step = EliminationStep(*step)
    lower, upper = step
    i = next((k for k in range(1, C.top_dim + 1) if upper in C._bases[k]), 0)
    if not i or lower not in C._bases[i - 1]:
        raise ValueError(f"{upper!r} has no generator {lower!r} one degree below")
    gamma = C._columns[i].get(upper, {})
    pivot = gamma.get(lower, 0)
    if pivot not in (1, -1):
        raise EliminationError(
            f"pivot <d {upper!r}, {lower!r}> = {pivot} is not invertible",
            step=0,
            pair=tuple(step),
            pivot=pivot,
        )

    def update(col: Column) -> Column:
        # eps - gamma * pivot^-1 * delta, pivot^-1 = pivot; lower cancels
        a = col.get(lower)
        if a is None:
            return col
        out = dict(col)
        for sigma, v in gamma.items():
            out[sigma] = out.get(sigma, 0) - a * pivot * v
        return _nonzero(out)

    bases = dict(C._bases)
    for k, drop in ((i, upper), (i - 1, lower)):
        bases[k] = {label: p for p, label in enumerate(_without(bases[k], drop))}
    columns = dict(C._columns)
    columns[i] = _nonzero({t: update(c) for t, c in _without(columns[i], upper).items()})
    if i + 1 in columns:
        columns[i + 1] = _nonzero({r: _without(c, upper) for r, c in columns[i + 1].items()})
    if i - 1 in columns:
        columns[i - 1] = _without(columns[i - 1], lower)
    return ChainComplex._trusted(bases, columns)


def copying_sequence(C: ChainComplex, order: Sequence[Pair]) -> ChainComplex:
    """``copying_eliminate`` over the pairs in order; a failing step raises
    EliminationError with its 0-based index, pair and pivot."""
    current = C
    for idx, (sigma, tau) in enumerate(order):
        try:
            current = copying_eliminate(current, (sigma, tau))
        except EliminationError as exc:
            raise EliminationError(
                f"step {idx}: {exc.args[0]}", step=idx, pair=(sigma, tau), pivot=exc.pivot
            ) from None
    return current


# --- faces by slicing ---


def hyperfaces_by_slices(cell: Cell) -> list[Cell]:
    """Codimension-1 faces, the i-th one with vertex i cut out."""
    if len(cell) == 1:
        return []
    return [cell[:i] + cell[i + 1:] for i in range(len(cell))]


def index_by_slices(X: SimplicialComplex) -> CellIndex:
    """The cell index, built face by face from sliced cell tuples."""
    cells = tuple(X.all_cells())
    id_of = {c: i for i, c in enumerate(cells)}
    faces = tuple(tuple([id_of[f] for f in hyperfaces_by_slices(c)]) for c in cells)
    up: list[list[int]] = [[] for _ in cells]
    for i, fs in enumerate(faces):
        for f in fs:
            up[f].append(i)
    return CellIndex(cells, id_of, faces, tuple(map(tuple, up)))


def facets_by_slices(X: SimplicialComplex) -> tuple[Cell, ...]:
    """The cells of X that are no cell's sliced hyperface."""
    covered: set[Cell] = set()
    for c in X.all_cells():
        covered.update(hyperfaces_by_slices(c))
    return tuple(c for c in X.all_cells() if c not in covered)


# --- collapses ---


def reference_collapse(X: SimplicialComplex, keep: Iterable[Cell], pick) -> list[int] | None:
    """The collapse engine as the package had it before its one-loop
    rewrite, kept verbatim: nested functions for removal, draws and the
    smallest-id heap. random_morse_matching(X, rng) must give the field of
    reference_collapse(X, (), rng._randbelow) and leave rng in the same
    state; find_collapse(X, X0) that of reference_collapse(X, X0 cells,
    None), None included. Candidates start in sorted(cell) order, are
    added in hyperfaces order, and stale ones are dropped on contact.
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

    def remove_cell(c: int) -> None:
        alive[c] = 0
        for f in faces[c]:
            if alive[f]:
                count[f] -= 1
                if count[f] == 1:
                    free.append(f)
                elif count[f] == 0:
                    tops.append(f)

    def take(cands: list[int], want: int) -> int | None:
        while cands:
            i = pick(len(cands))
            c = cands[i]
            if alive[c] and count[c] == want:
                del cands[i]
                return c
            cands[i] = cands[-1]
            cands.pop()
        return None

    def smallest_free() -> int | None:
        while free:
            heapq.heappush(heap, free.pop())
        while heap:
            c = heapq.heappop(heap)
            if alive[c] and count[c] == 1:  # a stale cell never turns live again
                return c
        return None

    while left:
        sigma = take(free, 1) if pick else smallest_free()
        if sigma is not None:
            tau = next(t for t in cofaces[sigma] if alive[t])
            v[sigma], v[tau] = tau, -2
            remove_cell(tau)
            remove_cell(sigma)
            left -= 2
            continue
        top = take(tops, 0) if pick else None
        if top is None:
            return None
        remove_cell(top)
        left -= 1
    return v
