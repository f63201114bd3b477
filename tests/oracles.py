"""Reference implementations the tests check the package against.

They follow the definitions literally: V-paths are enumerated one by one,
Smith forms are checked by matrix products, the Euler-chain boundary is
read off the subdivision, and Morse-ness is compared with elimination over
many orders. Several are exponential or cubic, so they are for small
inputs, and no module of the package imports them.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Sequence

from discmorse.chains import chain_complex
from discmorse.complexes import (
    Cell, Orientation, SimplicialComplex, Subdivision, hyperfaces, incidence
)
from discmorse.elimination import OrdersResult, all_orders_agree
from discmorse.errors import NotMorseError
from discmorse.euler import EulerChain
from discmorse.homology import SmithNormalForm
from discmorse.matchings import Matching, Pair, _field, _steps, hasse, is_morse
from discmorse.morse import _signed_counts


def hasse_edges(X: SimplicialComplex) -> list[Pair]:
    """All (face, coface) edges of the Hasse diagram, ordered by lower cell
    then upper cell."""
    cells, _, _, cofaces = X.index()
    return [(sigma, cells[j]) for sigma, ups in zip(cells, cofaces) for j in ups]


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
    if M.covers(tau) or M.covers(sigma):
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


def snf_is_valid(A: Sequence[Sequence[int]], s: SmithNormalForm) -> bool:
    """The full contract: U A V = D, the divisibility chain, zeros past the
    rank, and U U^-1 = I, V V^-1 = I. The last two on integer matrices give
    det U * det U^-1 = 1 in Z, so U and V are unimodular."""
    m, n = s.shape
    if s.U is None:
        raise ValueError("transforms were not tracked")
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


# --- Morse-ness against elimination ---


class MorseOrdersVerdict(NamedTuple):
    morse: bool
    all_orders_succeed: bool  # no tested order hit a non-invertible pivot
    consistent: bool          # the two verdicts coincide, as they must
    orders: OrdersResult


def morse_iff_all_orders(X: SimplicialComplex, M: Matching) -> MorseOrdersVerdict:
    """Check the equivalence 'Morse matching == every order eliminates'.

    Runs both sides independently: acyclicity of the matched Hasse diagram
    on one side, elimination over orders of the simplicial chain complex on
    the other.
    """
    morse = is_morse(hasse(X), M)
    orders = all_orders_agree(chain_complex(X), M)
    succeed = orders.failure is None
    return MorseOrdersVerdict(morse, succeed, morse == succeed, orders)
