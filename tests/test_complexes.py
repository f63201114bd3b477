import itertools

import pytest

from discmorse import complexes, corpus
from discmorse.chains import ChainComplex
from discmorse.complexes import (
    MAX_FACET_CELLS,
    SimplicialComplex,
    as_cell,
    barycentric_subdivision,
    hyperfaces,
    product_triangulation,
)
from discmorse.errors import ParseError
from oracles import incidence


def test_as_cell_sorts_and_validates():
    assert as_cell([2, 0, 1]) == (0, 1, 2)
    assert as_cell((5,)) == (5,)
    with pytest.raises(ValueError):
        as_cell([0, 0])
    with pytest.raises(ValueError):
        as_cell([-1])
    with pytest.raises(ValueError):
        as_cell([True])  # bools are not vertex labels
    with pytest.raises(ValueError):
        as_cell([])


def test_as_cell_names_the_sorted_cell_of_a_repeated_vertex():
    # a one-shot iterable is spent by the time the error is written
    with pytest.raises(ValueError, match=r"duplicate vertex 1 in cell \(1, 1\)$"):
        as_cell(iter([1, 1]))
    with pytest.raises(ValueError, match=r"duplicate vertex 2 in cell \(2, 2\)$"):
        SimplicialComplex([(0, 1), iter([2, 2])])
    with pytest.raises(ValueError, match=r"duplicate vertex 2 in cell \(1, 2, 2\)$"):
        as_cell([2, 1, 2])


def test_as_cell_checks_every_input_outside_plain_ints():
    assert as_cell(iter([3, 1, 2])) == (1, 2, 3)
    assert as_cell(range(4)) == (0, 1, 2, 3)
    builds = (
        as_cell,
        lambda c: as_cell(iter(c)),
        lambda c: SimplicialComplex.from_facets([(0, 1), c]),
        lambda c: SimplicialComplex([(0,), c]),
    )
    for bad, message in (
        ([1, True], "must be integers"),
        ([0, 1.0], "must be integers"),
        ([-2, 1], "non-negative"),
        ((), "at least one vertex"),
        # labels that do not compare: the first bad one is named
        ((1, "a"), "must be integers, got 'a'$"),
        ((None, 1), "must be integers, got None$"),
        (("x", 0, None), "must be integers, got 'x'$"),
    ):
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: SimplicialComplex([]), "a complex needs at least one cell"),
    (lambda: SimplicialComplex.from_facets([]), "at least one facet is required"),
    (lambda: ChainComplex({}, {}), "a chain complex needs at least degree 0"),
    (lambda: corpus.simplex(-1), "dimension must be non-negative"),
    (lambda: corpus.sphere(-1), "dimension must be non-negative"),
    (lambda: corpus.data_text("moebius"), "unknown corpus complex 'moebius'"),
], ids=["complex", "from_facets", "chain_complex", "simplex", "sphere", "data_text"])
def test_empty_or_unknown_inputs_are_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message


class Vertex(int):
    """An int subclass: a valid vertex label that is not a plain int."""


def test_as_cell_accepts_int_subclasses_through_the_full_checks():
    cell = as_cell([Vertex(2), Vertex(0)])
    assert cell == (0, 2) and all(type(v) is Vertex for v in cell)
    with pytest.raises(ValueError, match="duplicate vertex"):
        as_cell([Vertex(1), 1])


def test_cell_dim_and_faces():
    assert hyperfaces((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
    assert hyperfaces((3,)) == []


def test_incidence_signs():
    # deleting the vertex at position i contributes (-1)^i
    assert incidence((0, 1), (1,)) == 1
    assert incidence((0, 1), (0,)) == -1
    assert incidence((0, 1, 2), (1, 2)) == 1
    assert incidence((0, 1, 2), (0, 2)) == -1
    assert incidence((0, 1, 2), (0, 1)) == 1
    # zero whenever sigma is not a codimension-1 face
    assert incidence((0, 1, 2), (0,)) == 0
    assert incidence((0, 1, 2), (3, 4)) == 0


def test_incidence_with_orientation_flips():
    flip_upper = {(0, 1): -1}
    flip_lower = {(0,): -1}
    assert incidence((0, 1), (0,), flip_upper) == 1
    assert incidence((0, 1), (0,), flip_lower) == 1
    assert incidence((0, 1), (0,), {**flip_upper, **flip_lower}) == -1
    assert incidence((0, 1), (1,), flip_upper) == -1


def test_from_facets_builds_the_closure():
    X = SimplicialComplex.from_facets([(0, 1, 2)])
    assert X.dim == 2
    assert X.n_cells == 7
    assert X.cells(0) == ((0,), (1,), (2,))
    assert X.cells(1) == ((0, 1), (0, 2), (1, 2))
    assert X.cells(2) == ((0, 1, 2),)
    assert X.facets() == ((0, 1, 2),)
    assert X.vertices() == (0, 1, 2)
    assert (0, 2) in X and (0, 3) not in X
    assert X.euler_characteristic() == 1


def test_constructor_rejects_unclosed_cell_sets():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)])
    SimplicialComplex([(0,), (1,), (0, 1)])  # closed, fine


def test_all_cells_orders_by_dimension_then_lex():
    X = SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])
    assert tuple(X.all_cells()) == (
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
    )


def test_contains_complex_and_equality():
    X = SimplicialComplex.from_facets([(0, 1, 2)])
    edge = SimplicialComplex.from_facets([(0, 1)])
    assert X.contains_complex(edge)
    assert not edge.contains_complex(X)
    assert X == SimplicialComplex.from_facets([(2, 1, 0)])
    assert hash(X) == hash(SimplicialComplex.from_facets([(0, 1, 2)]))


def test_barycentric_subdivision_of_an_edge():
    sub = barycentric_subdivision(SimplicialComplex.from_facets([(0, 1)]))
    assert sub.complex.cells(0) == ((0,), (1,), (2,))
    assert sub.complex.cells(1) == ((0, 2), (1, 2))
    # barycenter ids: vertices first in lex order, then higher cells
    assert sub.barycenter_of == {(0,): 0, (1,): 1, (0, 1): 2}
    assert sub.cell_of == {0: (0,), 1: (1,), 2: (0, 1)}
    # the maps are the caller's own: changing one leaves the edge as it was
    edge = SimplicialComplex.from_facets([(0, 1)])
    index = edge.index()
    barycentric_subdivision(edge).barycenter_of[(0, 1)] = 7
    assert edge.index() is index and index.id_of == {(0,): 0, (1,): 1, (0, 1): 2}
    assert (0, 1) in edge and edge.n_cells == 3


def test_barycentric_subdivision_counts_and_euler():
    # Sd cell count in dim k = number of length-(k+1) chains in the face poset
    tri = SimplicialComplex.from_facets([(0, 1, 2)])
    sub = barycentric_subdivision(tri)
    assert [len(sub.complex.cells(k)) for k in range(3)] == [7, 12, 6]
    assert sub.complex.euler_characteristic() == tri.euler_characteristic()

    circle = SimplicialComplex.from_facets(
        itertools.combinations(range(3), 2)
    )
    sub2 = barycentric_subdivision(circle)
    assert [len(sub2.complex.cells(k)) for k in range(2)] == [6, 6]
    # barycenters biject with original cells
    assert sorted(sub2.cell_of) == list(range(circle.n_cells))
    assert {sub2.barycenter_of[c] for c in circle.all_cells()} == set(
        range(circle.n_cells)
    )


@pytest.mark.parametrize("name", corpus.names())
def test_barycentric_subdivision_passes_the_checked_constructor(name):
    X = corpus.load(name)
    sub = barycentric_subdivision(X)
    # barycenters are numbered as X's cell index numbers the cells
    assert sub.barycenter_of == X.index().id_of
    assert sub.cell_of == dict(enumerate(X.index().cells))
    sd = sub.complex
    checked = SimplicialComplex(sd.all_cells())
    assert sd == checked
    assert [sd.cells(k) for k in range(sd.dim + 1)] == [
        checked.cells(k) for k in range(checked.dim + 1)
    ]


@pytest.mark.parametrize("name", corpus.names())
def test_barycentric_subdivision_refuses_more_cells_than_the_budget(monkeypatch, name):
    # the count made before building is exact: sd^2 X fits a budget of its
    # own size and is refused by one less
    sd1 = barycentric_subdivision(corpus.load(name)).complex
    n = barycentric_subdivision(sd1).complex.n_cells
    monkeypatch.setattr(complexes, "MAX_FACET_CELLS", n)
    assert barycentric_subdivision(sd1).complex.n_cells == n
    monkeypatch.setattr(complexes, "MAX_FACET_CELLS", n - 1)
    with pytest.raises(ParseError, match=f"subdivision has more than {n - 1} cells"):
        barycentric_subdivision(sd1)


def test_product_triangulation_square_and_prism():
    sq = product_triangulation(1, 1)
    assert [len(sq.cells(k)) for k in range(3)] == [4, 5, 2]
    assert sq.cells(2) == ((0, 1, 3), (0, 2, 3))
    assert sq.euler_characteristic() == 1

    prism = product_triangulation(2, 1)
    assert [len(prism.cells(k)) for k in range(4)] == [6, 12, 10, 3]
    assert prism.euler_characteristic() == 1


def test_product_triangulation_facet_count_is_binomial():
    import math

    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        X = product_triangulation(m, n)
        assert len(X.cells(m + n)) == math.comb(m + n, m)
        assert len(X.cells(0)) == (m + 1) * (n + 1)


def test_product_triangulation_refuses_oversized_products_before_enumerating():
    # C(20, 10) = 184,756 facets of 21 vertices each; the second would
    # overflow any budget, and must not compute its binomial either
    for m, n in ((10, 10), (1_000_000, 1_000_000)):
        with pytest.raises(ParseError, match="facets expand to more than"):
            product_triangulation(m, n)


def test_from_facets_refuses_expansions_over_budget():
    # refused before expanding: building the 2**40 - 1 faces would not end
    with pytest.raises(ParseError, match="facets expand to more than"):
        SimplicialComplex.from_facets([range(40)])
    # the budget counts every facet's faces, repeats included
    k = MAX_FACET_CELLS.bit_length() - 1  # one k-vertex facet fits
    with pytest.raises(ParseError):
        SimplicialComplex.from_facets([range(k), range(1, k + 1)])
    assert SimplicialComplex.from_facets([range(12)]).n_cells == 2**12 - 1
