"""Gaussian elimination of unit pivots inside an integer chain complex.

Eliminating a basis pair (lower, upper) with pivot +-1 removes one
generator from two consecutive degrees and replaces the boundary in the
upper degree by eps - gamma * pivot**-1 * delta, where the pivot's row and
column are deleted. The degree above only loses the row of the upper
generator and the degree below only loses the column of the lower one.
The result is again a chain complex with the same homology.

Eliminating the pairs of a Morse matching runs to completion in every
order, and every order yields the same reduced complex because surviving
labels keep their identity and order; ``all_orders_agree`` tries orders
and compares their outcomes.

Cost model: one reduction copies the complex's outer dicts once and keeps
a row index (label -> the columns holding it). A step runs one column
update twice, on its own degree and on the one above, and each run
rewrites only the columns holding its label, each into a new dict. One
step loop serves every caller. Basis positions are renumbered once per
reduction, at the end, so a sequence of pairs costs about the entries it
rewrites rather than the size of the complex at every step.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

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


def _iter_orders(
    pairs: tuple[Pair, ...], max_orders: int, seed: int
) -> tuple[bool, Iterable[tuple[Pair, ...]]]:
    if len(pairs) <= 8:
        return True, itertools.permutations(pairs)
    rng = random.Random(seed)

    def sample():
        yield pairs
        for _ in range(max_orders - 1):
            order = list(pairs)
            rng.shuffle(order)
            yield tuple(order)

    return False, sample()


def all_orders_agree(
    C: ChainComplex, M: Matching, max_orders: int = 100, seed: int = 0
) -> OrdersResult:
    """Try elimination orders and compare outcomes.

    Exhaustive over all |M|! permutations for |M| <= 8, otherwise the
    sorted order plus seeded random shuffles, max_orders in total; raises
    ValueError when max_orders < 1.
    """
    if max_orders < 1:
        raise ValueError(f"max_orders must be at least 1, got {max_orders}")
    pairs = M.pairs()
    exhaustive, orders = _iter_orders(pairs, max_orders, seed)
    reference: ChainComplex | None = None
    tested = 0
    for order in orders:
        tested += 1
        R = _Reduction(C)
        if (failure := R.run(order)[1]) is not None:
            return OrdersResult(False, tested, exhaustive, None, failure, tuple(order))
        reduced = R.complex()
        if reference is None:
            reference = reduced
        elif reduced != reference:
            return OrdersResult(False, tested, exhaustive, None, None, tuple(order))
    return OrdersResult(True, tested, exhaustive, reference, None, None)
