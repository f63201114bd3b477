"""Text formats for complexes, matchings, and Euler chains.

Facet files: one facet per line, whitespace-separated vertex tokens,
``#`` starts a comment, blank lines are skipped. When every token is a
string of ASCII digits the tokens are used as vertex ids directly;
otherwise the sorted distinct tokens are numbered 0, 1, ... and that
symbol table travels with the complex. Each token is checked once, where
it is read; a line becomes a canonical facet there, and the facets go to
the complex's closure without a second check.

Matching files: one pair per line, ``lower-cell ; upper-cell``, each side
a vertex list in the same token language as the complex it belongs to.
Euler chain files: one segment per line, ``from-cell ; to-cell``.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import Cell, SimplicialComplex
from .errors import ParseError
from .euler import EulerChain
from .matchings import Matching, Pair


class SymbolTable:
    """Bidirectional vertex-token map; ``names=None`` means numeric ids."""

    def __init__(self, names: tuple[str, ...] | None = None):
        self.names = names
        self._index = {} if names is None else {s: i for i, s in enumerate(names)}

    @property
    def numeric(self) -> bool:
        return self.names is None

    def encode(self, token: str, line: int | None = None) -> int:
        if self.names is None:
            try:
                if _is_numeric(token):
                    return int(token)
            except ValueError:  # more digits than int() converts
                pass
            raise ParseError(f"unknown vertex token {token!r}", line)
        try:
            return self._index[token]
        except KeyError:
            raise ParseError(f"unknown vertex token {token!r}", line) from None

    def decode(self, vid: int) -> str:
        if self.names is None:
            return str(vid)
        return self.names[vid]

    def decode_cell(self, cell: Cell) -> str:
        names = map(str, cell) if self.names is None else map(self.names.__getitem__, cell)
        return " ".join(names)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _is_numeric(token: str) -> bool:
    return token.isascii() and token.isdigit()


def parse_complex(text: str) -> tuple[SimplicialComplex, SymbolTable]:
    """Parse a facet file into a complex and its symbol table.

    Each content line becomes a canonical facet where it is read: its
    vertex ids sorted, a repeated one refused with the line's number. The
    facets then go to the closure shared with ``from_facets``, which
    builds and numbers the faces one dimension at a time, without being
    checked again.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            rows.append((lineno, tokens))
    if not rows:
        raise ParseError("no facets found")
    if _is_numeric("".join([t for _, tokens in rows for t in tokens])):  # tokens are never empty
        table = SymbolTable()
        convert = int
    else:
        table = SymbolTable(tuple(sorted({t for _, tokens in rows for t in tokens})))
        convert = table._index.__getitem__
    facets = []
    for lineno, tokens in rows:
        try:
            facet = sorted(map(convert, tokens))
        except ValueError:  # more digits than int() converts: encode says so
            facet = [table.encode(t, lineno) for t in tokens]
        if len(set(facet)) != len(facet):
            raise ParseError("facet repeats a vertex", lineno)
        facets.append(tuple(facet))
    del rows  # the token lists are not kept through the closure
    # ids from ASCII digits or from the symbol table are non-negative ints
    return SimplicialComplex._closure(facets), table


def format_complex(X: SimplicialComplex, table: SymbolTable | None = None) -> str:
    table = table or SymbolTable()
    return "\n".join(table.decode_cell(f) for f in X.facets()) + "\n"


def _parse_cell_pair_lines(
    text: str, table: SymbolTable, what: str
) -> list[tuple[int, Cell, Cell]]:
    out = []
    for lineno, body in _content_lines(text):
        halves = body.split(";")
        if len(halves) != 2:
            raise ParseError(
                f"expected 'cell ; cell' for a {what}, got {body!r}", lineno
            )
        cells = []
        for half in halves:
            tokens = half.split()
            if not tokens:
                raise ParseError(f"empty cell in {what}", lineno)
            cells.append(tuple(sorted(table.encode(t, lineno) for t in tokens)))
        out.append((lineno, cells[0], cells[1]))
    return out


def parse_matching(text: str, table: SymbolTable) -> list[Pair]:
    """Parse matching lines into raw (lower, upper) pairs.

    Pairs are returned unvalidated so that callers can report problems
    against a specific complex; wrap in Matching to enforce disjointness.
    """
    pairs = []
    for lineno, lower, upper in _parse_cell_pair_lines(text, table, "matching pair"):
        if len(upper) != len(lower) + 1:
            raise ParseError(
                "matched cells must differ by exactly one vertex", lineno
            )
        pairs.append((lower, upper))
    return pairs


def format_matching(M: Matching | Iterable[Pair], table: SymbolTable | None = None) -> str:
    table = table or SymbolTable()
    pairs = M.pairs() if isinstance(M, Matching) else sorted(M)
    lines = [
        f"{table.decode_cell(lo)} ; {table.decode_cell(hi)}" for lo, hi in pairs
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_chain(text: str, table: SymbolTable) -> EulerChain:
    """Parse segment lines (one unit segment per line) into a chain."""
    segs = [
        (a, b, 1) for _, a, b in _parse_cell_pair_lines(text, table, "segment")
    ]
    if not segs:
        raise ParseError("no segments found")
    try:
        return EulerChain.from_segments(segs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_chain(chain: EulerChain, table: SymbolTable | None = None) -> str:
    table = table or SymbolTable()
    lines = []
    for a, b, m in chain.segments:
        src, dst = (a, b) if m > 0 else (b, a)
        lines.extend(
            [f"{table.decode_cell(src)} ; {table.decode_cell(dst)}"] * abs(m)
        )
    return "\n".join(lines) + ("\n" if lines else "")
