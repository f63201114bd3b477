"""Gaussian elimination of unit pivots inside an integer chain complex.

Eliminating a basis pair (lower, upper) with pivot +-1 removes one
generator from two consecutive degrees and replaces the boundary in the
upper degree by eps - gamma * pivot**-1 * delta, where the pivot's row and
column are deleted. The degree above only loses the row of the upper
generator and the degree below only loses the column of the lower one.
The result is again a chain complex with the same homology.

Eliminating the pairs of a Morse matching runs to completion in every
order. With unit pivots, the complex after a set S of pairs is the Schur
complement on S whatever order S went in (the quotient property), so
every order that succeeds yields the same reduced complex, and the pivot
the next pair meets depends on S alone; ``all_orders_agree`` looks only
for an order that fails.

Cost model: one reduction copies the complex's outer dicts once and keeps
a row index (label -> the columns holding it). A step runs one column
update twice, on its own degree and on the one above, and each run
rewrites only the columns holding its label, each into a new dict. One
step loop serves every caller. Basis positions are renumbered once per
reduction, at the end, so a sequence of pairs costs about the entries it
rewrites rather than the size of the complex at every step.
``all_orders_agree`` reduces the complex once; its other orders run on
the pairs' own submatrix, 2|M| generators read from the |M| matched
columns, and up to 8 pairs take one reduction of it per set of pairs
reached, at most 2**|M|, rather than one of the complex per order. Past 8
pairs the orders are sampled from one fixed sequence of shuffles, which a
larger budget only extends.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, Sequence

from .chains import ChainComplex, Column, Label, _add_scaled
from .errors import EliminationError
from .matchings import Matching, Pair


class EliminationStep(NamedTuple):
    lower: Label  # generator of degree i-1 (a row of the degree-i boundary)
    upper: Label  # generator of degree i (a column of the same matrix)


class _Reduction:
    """Matched pairs of C eliminated one step at a time, without copies.

    The outer dicts of C are copied once; C's columns are shared until a
    step changes them, and a changed column becomes a new dict. ``rows[k]``
    lists, for each degree-(k-1) label, the degree-k columns that held it
    when last seen: it is built on first use, entries go stale when a
    column loses the label, and a step skips stale entries on contact.
    """

    __slots__ = ("bases", "columns", "rows")

    def __init__(self, C: ChainComplex):
        self.bases = {k: dict(b) for k, b in C._bases.items()}
        self.columns = {k: dict(cols) for k, cols in C._columns.items()}
        self.rows: dict[int, dict[Label, list[Label]]] = {}

    def _holders(self, k: int) -> dict[Label, list[Label]]:
        rows = self.rows.get(k)
        if rows is None:
            rows = self.rows[k] = defaultdict(list)
            for tau, col in self.columns[k].items():
                for sigma in col:
                    rows[sigma].append(tau)
        return rows

    def eliminate(self, lower: Label, upper: Label) -> int:
        """Eliminate one pair and return its pivot, +1 or -1. Raises
        ValueError unless upper is a generator and lower one a degree
        below it, and EliminationError (step 0) for any other pivot;
        either way nothing has changed."""
        bases = self.bases
        i = next((k for k in range(1, len(bases)) if upper in bases[k]), 0)
        if not i or lower not in bases[i - 1]:
            raise ValueError(f"{upper!r} has no generator {lower!r} one degree below")
        cols = self.columns[i]
        gamma = cols.get(upper, {})
        pivot = gamma.get(lower, 0)
        if pivot not in (1, -1):
            raise EliminationError(
                f"pivot <d {upper!r}, {lower!r}> = {pivot} is not invertible",
                step=0,
                pair=(lower, upper),
                pivot=pivot,
            )
        del bases[i][upper], bases[i - 1][lower], cols[upper]
        # eps - gamma * pivot^-1 * delta, pivot^-1 = pivot; lower cancels
        self._cancel(i, lower, gamma, pivot)
        if i + 1 in self.columns:
            self._cancel(i + 1, upper, {upper: 1}, 1)
        if i - 1 in self.columns:
            self.columns[i - 1].pop(lower, None)
        return pivot

    def _cancel(self, k: int, label: Label, gamma: Column, scale: int) -> None:
        """Every degree-k column t holding label becomes the new dict
        t - t[label] * scale * gamma; a column that comes to zero goes."""
        cols, rows = self.columns[k], self._holders(k)
        for t in rows.pop(label, ()):
            old = cols.get(t)
            if old is None or label not in old:
                continue  # stale: t is gone, or has lost label already
            col = dict(old)
            _add_scaled(col, gamma, -old[label] * scale)
            if col:
                cols[t] = col
                for sigma in gamma:
                    if sigma not in old:
                        rows[sigma].append(t)
            else:
                del cols[t]

    def run(self, pairs: Iterable[Pair]) -> tuple[list[int], EliminationError | None]:
        """Eliminate (lower, upper) pairs in order up to the first failure:
        the pivots of the steps taken, and that failure with its 0-based
        step index, pair and pivot, or None."""
        pivots: list[int] = []
        for idx, (sigma, tau) in enumerate(pairs):
            try:
                pivots.append(self.eliminate(sigma, tau))
            except EliminationError as exc:
                return pivots, EliminationError(
                    f"step {idx}: {exc.args[0]}", step=idx, pair=(sigma, tau), pivot=exc.pivot
                )
        return pivots, None

    def complex(self) -> ChainComplex:
        """The reduced complex, basis positions renumbered."""
        bases = {k: {label: p for p, label in enumerate(b)} for k, b in self.bases.items()}
        return ChainComplex._trusted(bases, self.columns)


def gaussian_eliminate(C: ChainComplex, step: EliminationStep | Pair) -> ChainComplex:
    """Eliminate one (lower, upper) pair; the pivot must be +1 or -1. The
    result shares with C every column that contains neither generator.

    Cost: the step rewrites only the columns holding lower or upper, each
    into a new dict, and basis positions are renumbered once, as at the
    end of every reduction; C itself is left as it was."""
    lower, upper = EliminationStep(*step)
    R = _Reduction(C)
    R.eliminate(lower, upper)
    return R.complex()


def eliminate_sequence(
    C: ChainComplex, M: Matching, order: Sequence[Pair] | None = None
) -> ChainComplex:
    """Eliminate every pair of M in the given order (default: sorted pairs).

    Raises EliminationError carrying the 0-based step index, the pair, and
    the pivot value when a step finds a non-invertible pivot.
    """
    pairs = M.pairs() if order is None else tuple(order)
    if sorted(pairs) != sorted(M.pairs()):
        raise ValueError("order must be a permutation of the matching's pairs")
    R = _Reduction(C)
    if (failure := R.run(pairs)[1]) is not None:
        raise failure
    return R.complex()


class OrdersResult(NamedTuple):
    agree: bool                      # every tested order succeeded, same result
    orders_tested: int
    exhaustive: bool
    reduced: ChainComplex | None     # the common reduction when agree
    failure: EliminationError | None  # first failure encountered, if any
    failing_order: tuple[Pair, ...] | None


def _sampled_orders(pairs: tuple[Pair, ...], max_orders: int) -> Iterator[tuple[Pair, ...]]:
    """The orders tested past 8 pairs after pairs as given: the first
    max_orders - 1 shuffles of ``random.Random(0)``, so a larger budget
    extends a smaller one's."""
    rng = random.Random(0)
    for _ in range(max_orders - 1):
        order = list(pairs)
        rng.shuffle(order)
        yield tuple(order)


def _pair_submatrix(C: ChainComplex, pairs: Sequence[Pair]) -> ChainComplex:
    """The matched generators of C alone, each upper one's column cut down
    to the rows of the lower ones; read from the pairs' own columns. Every
    pivot an order of the pairs meets is an entry of this matrix's Schur
    complements, and no step on it touches the degree above or below."""
    lowers = {sigma for sigma, _ in pairs}
    bases: dict[int, dict[Label, int]] = {k: {} for k in C._bases}
    columns: dict[int, dict[Label, Column]] = {k: {} for k in C._columns}
    for sigma, tau in pairs:
        i = next(k for k in columns if tau in C._bases[k])
        bases[i - 1][sigma], bases[i][tau] = len(bases[i - 1]), len(bases[i])
        col = {s: v for s, v in C._columns[i].get(tau, {}).items() if s in lowers}
        if col:
            columns[i][tau] = col
    return ChainComplex._trusted(bases, columns)


def _first_failing_order(
    sub: ChainComplex, pairs: tuple[Pair, ...]
) -> tuple[int, tuple[Pair, ...] | None]:
    """Walk the orders of pairs in lexicographic order of positions, one
    reduction of sub per set of pairs done: the orders tested up to and
    including the first that fails, and that order; or |pairs|! and None.

    After a set S, the Schur complement on S is the same whatever order S
    went in, so a set that some order reaches has one state, and the pivot
    it offers pair j is a unit exactly when S + j is reached too (their
    determinants differ by that pivot). A set after which no order fails
    is walked once; its later visits add (|pairs| - |S|)! unwalked.
    """
    n = len(pairs)
    states: dict[int, _Reduction | None] = {0: _Reduction(sub)}  # None: unreachable
    clean = {(1 << n) - 1}  # sets after which every order succeeds

    def walk(S: int, done: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
        if S in clean:
            return math.factorial(n - len(done)), None
        tested = 0
        for j in range(n):
            if S >> j & 1:
                continue
            T = S | 1 << j
            if T not in states:
                parent = states[S]
                R = states[T] = _Reduction(ChainComplex._trusted(parent.bases, parent.columns))
                try:
                    R.eliminate(*pairs[j])
                except EliminationError:
                    states[T] = None
            if states[T] is None:  # every order from done + (j,) fails at j
                return tested + 1, done + (j,) + tuple(k for k in range(n) if not T >> k & 1)
            more, failing = walk(T, done + (j,))
            tested += more
            if failing is not None:
                return tested, failing
        clean.add(S)
        return tested, None

    tested, failing = walk(0, ())
    return tested, failing and tuple(pairs[j] for j in failing)


def all_orders_agree(C: ChainComplex, M: Matching, max_orders: int = 100) -> OrdersResult:
    """Eliminate the pairs of M in many orders; agree when none fails.

    The sorted order runs on C and gives the reduced complex, or a
    ValueError for a pair that is not one. Every other order runs on the
    pairs' own submatrix, whose Schur complements hold every pivot an
    order meets: exhaustively over all |M|! permutations for |M| <= 8, as
    a walk over the sets of pairs done that stops at the first failing
    order in permutation order; otherwise over the sorted order and then
    the shuffles of ``random.Random(0)``, max_orders orders in all, so a
    larger max_orders tests every order a smaller one does. Orders that
    succeed give the same complex (the quotient property of Schur
    complements), so only failures are looked for. Raises ValueError when
    max_orders < 1.
    """
    if max_orders < 1:
        raise ValueError(f"max_orders must be at least 1, got {max_orders}")
    pairs = M.pairs()
    exhaustive = len(pairs) <= 8
    R = _Reduction(C)
    if (failure := R.run(pairs)[1]) is not None:
        return OrdersResult(False, 1, exhaustive, None, failure, pairs)
    sub = _pair_submatrix(C, pairs)
    if exhaustive:
        tested, order = _first_failing_order(sub, pairs)
    else:
        tested, order = max_orders, None
        for t, shuffled in enumerate(_sampled_orders(pairs, max_orders), 2):
            if _Reduction(sub).run(shuffled)[1] is not None:
                tested, order = t, shuffled
                break
    if order is None:
        return OrdersResult(True, tested, exhaustive, R.complex(), None, None)
    failure = _Reduction(sub).run(order)[1]
    return OrdersResult(False, tested, exhaustive, None, failure, order)
