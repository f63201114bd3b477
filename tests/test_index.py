"""The cell index kept on SimplicialComplex, and the Hasse diagram view on it,
against brute-force builds from cell tuples."""

from hypothesis import given, settings

from discmorse.complexes import SimplicialComplex, hyperfaces
from discmorse.matchings import hasse
from strategies import small_complexes


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=100, deadline=None)
@given(small_complexes)
def test_hasse_view_agrees_with_a_brute_force_build(X):
    cells = list(X.all_cells())
    up: dict = {c: [] for c in cells}
    for c in cells:
        for f in hyperfaces(c):
            up[f].append(c)
    H = hasse(X)
    assert list(H.vertices()) == cells and H.n_vertices == len(cells)
    for c in cells:
        assert H.up(c) == tuple(sorted(up[c]))
        assert H.down(c) == tuple(sorted(hyperfaces(c)))
    edges = [(f, c) for f in cells for c in sorted(up[f])]
    assert list(H.edges()) == edges and H.n_edges == len(edges)
    for sigma in cells:
        for tau in cells:
            assert H.has_edge(sigma, tau) == ((sigma, tau) in edges)
    assert not H.has_edge((99,), cells[-1]) and not H.has_edge(cells[0], (99,))


@settings(max_examples=100, deadline=None)
@given(small_complexes, small_complexes)
def test_equality_and_hash_do_not_see_the_index(X, Y):
    same = SimplicialComplex(list(X.all_cells()))
    X.index()
    assert X == same and hash(X) == hash(same) == hash(frozenset(X.all_cells()))
    assert (X == Y) == (set(X.all_cells()) == set(Y.all_cells()))
    assert X != tuple(X.all_cells())
