import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discmorse.complexes import SimplicialComplex
from discmorse.errors import ParseError
from discmorse.euler import EulerChain
from discmorse.io import (
    SymbolTable,
    format_chain,
    format_complex,
    format_matching,
    parse_chain,
    parse_complex,
    parse_matching,
)
from discmorse.matchings import Matching
from oracles import hasse_edges, random_matching
from strategies import small_complexes


def test_parse_complex_numeric():
    X, table = parse_complex("0 1 2\n0 2 3  # a comment\n\n")
    assert table.numeric
    assert X.facets() == ((0, 1, 2), (0, 2, 3))
    assert X.cells(0) == ((0,), (1,), (2,), (3,))


def test_parse_complex_symbolic():
    text = "a b c\nb c d\n"
    X, table = parse_complex(text)
    assert not table.numeric
    assert table.names == ("a", "b", "c", "d")
    assert table.encode("c") == 2
    assert table.decode(3) == "d"
    assert X.facets() == ((0, 1, 2), (1, 2, 3))
    assert table.decode_cell((0, 2)) == "a c"


def test_parse_complex_mixed_tokens_become_symbols():
    X, table = parse_complex("x 1\n")
    # one non-numeric token switches the whole file to symbol mode
    assert table.names == ("1", "x")
    assert X.facets() == ((0, 1),)


def test_parse_complex_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_complex("# only a comment\n")
    with pytest.raises(ParseError) as exc:
        parse_complex("0 1\n2 2\n")
    assert "line 2" in str(exc.value)


def test_format_complex_round_trip():
    X, table = parse_complex("0 1 2\n1 2 3\n")
    Y, _ = parse_complex(format_complex(X, table))
    assert X == Y


def test_format_complex_symbolic_round_trip():
    X, table = parse_complex("east west\nnorth west\n")
    text = format_complex(X, table)
    assert "east west" in text
    Y, table2 = parse_complex(text)
    assert X == Y and table2.names == table.names


def test_symbol_table_rejects_unknown_tokens():
    table = SymbolTable(("a", "b"))
    with pytest.raises(ParseError):
        table.encode("zzz")
    numeric = SymbolTable()
    with pytest.raises(ParseError):
        numeric.encode("abc")
    with pytest.raises(ParseError):
        numeric.encode("-3")


def test_numeric_vertex_tokens_are_ascii_digits_only():
    # other Unicode digits make a file symbolic, like any other word
    for text, names in (("\u0661 1\n", ("1", "\u0661")), ("\u00b2 1\n", ("1", "\u00b2"))):
        X, table = parse_complex(text)
        assert table.names == names and X.facets() == ((0, 1),)
    X, table = parse_complex("0 1\n")
    assert table.numeric
    for token in ("+0", "0_1", "\u0660", " 0", "-0"):
        with pytest.raises(ParseError, match="unknown vertex token"):
            table.encode(token)
    with pytest.raises(ParseError, match="unknown vertex token"):
        parse_matching("+0 ; 0 1\n", table)
    with pytest.raises(ParseError, match="unknown vertex token"):
        parse_chain("0_1 ; 0\n", table)
    assert parse_matching("0 ; 0 1\n", table) == parse_matching("00 ; 0 01\n", table)
    with pytest.raises(ParseError, match="unknown vertex token"):  # past int()'s limit
        parse_complex("1" * 5000 + " 1\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        # a 5,000-digit token is past int()'s limit, on whichever line
        ("0 1\n1 2\n2 " + "7" * 5000 + "\n", 3, "unknown vertex token '777"),
        ("0 1\n" + "7" * 5000 + " 2\n", 2, "unknown vertex token '777"),
        ("0 1\n1 2\n2 3 2\n", 3, "facet repeats a vertex"),
        ("0 1\n1 01\n", 2, "facet repeats a vertex"),  # both are vertex 1
        ("a b\nb c b\n", 2, "facet repeats a vertex"),
        ("0 1\n\u0661 \u0661\n", 2, "facet repeats a vertex"),
        ("\n# none\n   \n", None, "no facets found"),
    ],
)
def test_parse_complex_errors_keep_their_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_complex(text)
    assert exc.value.line == line and message in str(exc.value)
    if line is not None:
        assert str(exc.value).startswith(f"line {line}: ")


def test_parse_complex_numbers_symbolic_and_non_ascii_tokens():
    # a non-ASCII digit anywhere makes every token a symbol, numbered in order
    X, table = parse_complex("10 2\n2 \u0663\n")
    assert table.names == ("10", "2", "\u0663")
    assert X.facets() == ((0, 1), (1, 2))
    X, table = parse_complex("b a\n# c d\nc a\n")
    assert table.names == ("a", "b", "c") and X.facets() == ((0, 1), (0, 2))
    X, table = parse_complex("007 10\n10 3\n")
    assert table.numeric and X.facets() == ((3, 10), (7, 10))


def test_parse_matching():
    _, table = parse_complex("0 1 2\n")
    pairs = parse_matching("0 ; 0 1\n1 ; 1 2  # matched\n", table)
    assert pairs == [((0,), (0, 1)), ((1,), (1, 2))]
    with pytest.raises(ParseError):
        parse_matching("0 1\n", table)  # missing separator
    with pytest.raises(ParseError):
        parse_matching("0 ; 0 1 2\n", table)  # codimension 2
    with pytest.raises(ParseError):
        parse_matching("0 ; \n", table)  # empty side


def test_format_matching_round_trip():
    _, table = parse_complex("0 1 2\n")
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    text = format_matching(M, table)
    assert parse_matching(text, table) == list(M.pairs())
    assert format_matching(Matching(()), table) == ""


def test_format_matching_symbolic():
    _, table = parse_complex("a b c\n")
    M = Matching([((0,), (0, 1))])
    assert format_matching(M, table) == "a ; a b\n"
    assert parse_matching("a ; a b\n", table) == [((0,), (0, 1))]


def test_parse_chain_builds_unit_segments():
    _, table = parse_complex("0 1 2\n")
    chain = parse_chain("0 ; 0 1\n0 ; 0 1\n0 1 ; 1\n", table)
    assert chain.segments == (
        ((0,), (0, 1), 2),
        ((1,), (0, 1), -1),
    )
    with pytest.raises(ParseError):
        parse_chain("", table)
    with pytest.raises(ParseError):
        parse_chain("0 ; 1 2\n", table)  # incomparable cells


def test_format_chain_round_trip_with_multiplicities():
    _, table = parse_complex("0 1 2\n")
    chain = EulerChain.from_segments(
        [((0,), (0, 1), 2), ((0, 1), (1,), 1), ((2,), (1, 2), -1)]
    )
    text = format_chain(chain, table)
    # negative multiplicities are written with the segment reversed
    assert text.count("\n") == 4
    again = parse_chain(text, table)
    assert again == chain
    assert format_chain(EulerChain(()), table) == ""


# --- round trips of random objects, numeric and symbolic ---

# vertex names without digits, so that a file in them is read symbolically
names = st.lists(
    st.text(alphabet="abcxyz_-.", min_size=1, max_size=4), min_size=7, max_size=7, unique=True
)


tables = st.one_of(st.just(SymbolTable()), names.map(lambda ns: SymbolTable(tuple(ns))))


def named_cells(X, table):
    return {frozenset(table.decode(v) for v in c) for c in X.all_cells()}


@settings(max_examples=100)
@given(small_complexes, tables)
def test_complexes_round_trip(X, table):
    Y, table2 = parse_complex(format_complex(X, table))
    assert named_cells(Y, table2) == named_cells(X, table)
    assert table2.numeric == table.numeric
    if table.numeric:
        assert Y == X


@settings(max_examples=100)
@given(small_complexes, tables, st.integers(0, 2**32 - 1))
def test_matchings_round_trip(X, table, seed):
    M = random_matching(X, random.Random(seed))
    assert Matching(parse_matching(format_matching(M, table), table)) == M


@settings(max_examples=100)
@given(small_complexes, tables, st.data())
def test_chains_round_trip(X, table, data):
    edges = hasse_edges(X)
    assume(edges)
    segments = data.draw(st.lists(
        st.tuples(st.sampled_from(edges), st.booleans(), st.integers(-3, 3)), min_size=1
    ))
    chain = EulerChain.from_segments(
        (b, a, m) if flip else (a, b, m) for (a, b), flip, m in segments
    )
    assume(len(chain))
    assert parse_chain(format_chain(chain, table), table) == chain


# --- the parse path against from_facets ---


@st.composite
def facet_texts(draw):
    """Noisy facet text for a small complex, and each line's tokens.

    Lines and their tokens are shuffled; some facets are written twice,
    some faces of facets and some lone vertices are written as facets of
    their own; comments, blank lines and tabs are mixed in. Tokens are
    symbols, or numbers with leading zeros."""
    X, table = draw(small_complexes), draw(tables)
    extra = st.lists(st.sampled_from(list(X.all_cells())), max_size=4)
    lone = st.lists(st.integers(0, 6).map(lambda v: (v,)), max_size=2)
    lines, rows = [], []
    for cell in draw(st.permutations(list(X.facets()) + draw(extra) + draw(lone))):
        tokens = [table.decode(v) for v in draw(st.permutations(cell))]
        if table.numeric:
            tokens = ["0" * draw(st.integers(0, 2)) + t for t in tokens]
        rows.append(tokens)
        comment = draw(st.sampled_from(["", " # 0 1 x", "#a#"]))
        lines.append(draw(st.sampled_from([" ", "\t", " \t "])).join(tokens) + comment)
        lines += draw(st.lists(st.sampled_from(["", "  ", "# 7 8", "\t# y"]), max_size=1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), rows


def assert_parses_as_from_facets(text, rows):
    X, table = parse_complex(text)
    facets = [[table.encode(t) for t in tokens] for tokens in rows]
    Y = SimplicialComplex.from_facets(facets)
    assert (X._cells, X._id_of, X._starts) == (Y._cells, Y._id_of, Y._starts)
    assert list(X._id_of.items()) == list(zip(X._cells, range(X.n_cells)))
    assert X.index() == Y.index()
    # (dimension, lexicographic) rank, from every subset of every facet
    closure = {
        f for c in map(sorted, facets)
        for r in range(1, len(c) + 1) for f in itertools.combinations(c, r)
    }
    assert list(X._cells) == sorted(closure, key=lambda c: (len(c), c))
    sizes = [sum(len(c) == k + 1 for c in closure) for k in range(X.dim + 1)]
    assert X._starts == tuple(itertools.accumulate(sizes, initial=0))


@settings(max_examples=150)
@given(facet_texts())
def test_parse_complex_numbers_cells_as_from_facets_does(case):
    assert_parses_as_from_facets(*case)


@pytest.mark.parametrize(
    "text",
    [
        "3\n",  # one vertex
        "5\n# c\n0\n\n005 2\n",  # vertices only, then an edge
        "2 0\n1 2\n0 1\n2\n",  # only edges, one vertex repeated as a facet
        "b a\nc b\nz\n",  # symbolic edges and a lone vertex
    ],
)
def test_parse_complex_in_dimensions_0_and_1(text):
    rows = [tokens for line in text.splitlines() if (tokens := line.split("#")[0].split())]
    assert_parses_as_from_facets(text, rows)
