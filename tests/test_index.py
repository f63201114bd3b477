"""The cell index kept on SimplicialComplex, which is also its Hasse
diagram, against brute-force builds from cell tuples."""

import pytest
from hypothesis import given, settings

from discmorse import corpus
from discmorse.complexes import SimplicialComplex, barycentric_subdivision, hyperfaces
from discmorse.matchings import hasse, validate_matching
from discmorse.morse import simplicial_homology
from oracles import facets_by_slices, hasse_edges, hyperfaces_by_slices, index_by_slices
from strategies import small_complexes


@settings(max_examples=100)
@given(small_complexes)
def test_index_agrees_with_the_cell_tuples(X):
    index = X.index()
    assert index is X.index()
    cells = list(X.all_cells())
    assert list(index.cells) == cells
    assert index.id_of == {c: i for i, c in enumerate(cells)}
    for i, c in enumerate(cells):
        assert [cells[j] for j in index.faces[i]] == hyperfaces(c)
        covers = [d for d in cells if len(d) == len(c) + 1 and set(c) < set(d)]
        assert [cells[j] for j in index.cofaces[i]] == covers


@settings(max_examples=100)
@given(small_complexes)
def test_hasse_is_the_index_and_its_edges_are_the_cover_pairs(X):
    H = hasse(X)
    assert H is X.index()
    cells = list(X.all_cells())
    up: dict = {c: [] for c in cells}
    for c in cells:
        for f in hyperfaces(c):
            up[f].append(c)
    edges = [(f, c) for f in cells for c in sorted(up[f])]
    assert hasse_edges(X) == edges
    covers = set(edges)
    for sigma in cells:
        for tau in cells:
            assert validate_matching(H, [(sigma, tau)]).ok == ((sigma, tau) in covers)
    assert not validate_matching(H, [((99,), cells[-1])]).ok
    assert not validate_matching(H, [(cells[0], (99,))]).ok


@settings(max_examples=100)
@given(small_complexes, small_complexes)
def test_equality_and_hash_do_not_see_the_index(X, Y):
    same = SimplicialComplex(list(X.all_cells()))
    X.index()
    simplicial_homology(X)  # builds and keeps X's seeded reduction
    assert X._seeded is not None and same._seeded is None
    assert X == same and hash(X) == hash(same) == hash(frozenset(X.all_cells()))
    assert (X == Y) == (set(X.all_cells()) == set(Y.all_cells()))
    assert X.contains_complex(Y) == (set(Y.all_cells()) <= set(X.all_cells()))
    assert X != tuple(X.all_cells())


def assert_counts_match_the_cells(X: SimplicialComplex) -> None:
    cells = tuple(X.all_cells())
    sizes = [sum(len(c) == k + 1 for c in cells) for k in range(X.dim + 1)]
    assert X.cells(-1) == X.cells(X.dim + 1) == ()
    assert sum((X.cells(k) for k in range(X.dim + 1)), ()) == cells
    assert X.n_cells == len(cells) == sum(sizes)
    assert X.vertices() == tuple(c[0] for c in cells if len(c) == 1)
    assert X.euler_characteristic() == sum((-1) ** k * n for k, n in enumerate(sizes))
    assert repr(X) == f"SimplicialComplex(dim={X.dim}, cells=({','.join(map(str, sizes))}))"


def assert_faces_match_the_slices(X: SimplicialComplex) -> None:
    assert X.index() == index_by_slices(X)
    assert X.facets() == facets_by_slices(X)
    for c in X.all_cells():
        assert hyperfaces(c) == hyperfaces_by_slices(c)


@pytest.mark.parametrize("name", corpus.names())
def test_faces_match_the_slices_on_the_corpus_and_its_subdivisions(name):
    X = corpus.load(name)
    assert_faces_match_the_slices(X)
    assert_counts_match_the_cells(X)
    for _ in range(2):  # sd X, sd^2 X
        X = barycentric_subdivision(X).complex
        assert_faces_match_the_slices(X)
        assert_counts_match_the_cells(X)


@settings(max_examples=100)
@given(small_complexes)
def test_faces_match_the_slices(X):
    assert_faces_match_the_slices(X)
    assert_counts_match_the_cells(X)
    # the checked constructor, on cells given as shuffled vertex lists
    cells = [list(reversed(c)) for c in X.all_cells()]
    cells.reverse()
    Y = SimplicialComplex(cells)
    assert Y == X and Y.index() == X.index() and Y.facets() == X.facets()
