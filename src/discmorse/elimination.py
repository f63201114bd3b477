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
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, NamedTuple, Sequence

from .chains import ChainComplex, Column, Label
from .errors import EliminationError
from .matchings import Matching, Pair


class EliminationStep(NamedTuple):
    lower: Label  # generator of degree i-1 (a row of the degree-i boundary)
    upper: Label  # generator of degree i (a column of the same matrix)


def _without(entries: dict, drop: Label) -> dict:
    """entries less the key drop; entries itself when drop is absent."""
    if drop not in entries:
        return entries
    return {label: v for label, v in entries.items() if label != drop}


def _nonzero(entries: dict) -> dict:
    return {label: v for label, v in entries.items() if v}


def gaussian_eliminate(C: ChainComplex, step: EliminationStep | Pair) -> ChainComplex:
    """Eliminate one (lower, upper) pair; the pivot must be +1 or -1. The
    result shares with C every column that contains neither generator."""
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
    current = C
    for idx, (sigma, tau) in enumerate(pairs):
        try:
            current = gaussian_eliminate(current, EliminationStep(sigma, tau))
        except EliminationError as exc:
            raise EliminationError(
                f"step {idx}: {exc.args[0]}",
                step=idx,
                pair=(sigma, tau),
                pivot=exc.pivot,
            ) from None
    return current


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
    sorted order plus seeded random shuffles, max_orders in total.
    """
    pairs = M.pairs()
    exhaustive, orders = _iter_orders(pairs, max_orders, seed)
    reference: ChainComplex | None = None
    tested = 0
    for order in orders:
        tested += 1
        try:
            reduced = eliminate_sequence(C, M, order)
        except EliminationError as exc:
            return OrdersResult(False, tested, exhaustive, None, exc, tuple(order))
        if reference is None:
            reference = reduced
        elif reduced != reference:
            return OrdersResult(False, tested, exhaustive, None, None, tuple(order))
    return OrdersResult(True, tested, exhaustive, reference, None, None)
