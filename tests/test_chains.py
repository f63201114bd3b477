import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmorse import corpus
from discmorse.chains import ChainComplex, chain_complex
from discmorse.complexes import SimplicialComplex
from discmorse.elimination import eliminate_sequence
from discmorse.homology import homology
from discmorse.matchings import random_morse_matching
from discmorse.morse import reorient, simplicial_homology, thom_smale_complex
from oracles import dense_boundary, incidence, thin_matching
from strategies import small_complexes


def triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def test_boundary_matrix_frozen_for_the_triangle():
    C = chain_complex(triangle())
    assert dense_boundary(C, 0) == []
    assert dense_boundary(C, 1) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert dense_boundary(C, 2) == [[1], [-1], [1]]


def test_boundary_matrix_respects_orientation():
    flipped = dense_boundary(chain_complex(triangle(), orientation={(0, 1, 2): -1}), 2)
    assert flipped == [[-1], [1], [-1]]


@pytest.mark.parametrize("entry", ["chain_complex", "thom_smale_complex"])
def test_orientation_values_other_than_one_are_refused(entry):
    X = corpus.torus()
    M = random_morse_matching(X, random.Random(0))
    build = {
        "chain_complex": lambda o: chain_complex(X, o),
        "thom_smale_complex": lambda o: thom_smale_complex(X, M, o),
    }[entry]
    # doubling every edge keeps d o d = 0 but changes the homology
    with pytest.raises(ValueError, match=r"orientation of \(0, 1\) is 2, not \+1 or -1"):
        build({e: 2 for e in X.cells(1)})
    with pytest.raises(ValueError, match=r"orientation of \(0, 1, 3\) is 0, not"):
        build({(0, 1): -1, (0, 1, 3): 0})
    # -1.0 and True compare equal to -1 and 1, but are not integers
    for value in (-1.0, True):
        with pytest.raises(ValueError, match=rf"orientation of \(0, 1, 3\) is {value}, not"):
            build({(0, 1, 3): value})
    assert build({(0, 1): -1, (0, 1, 3): 1}) == build(reorient(X, [(0, 1)]))


@pytest.mark.parametrize("entry", ["chain_complex", "thom_smale_complex"])
def test_orientation_cells_outside_the_complex_are_refused(entry):
    X = corpus.torus()
    M = random_morse_matching(X, random.Random(0))
    build = {
        "chain_complex": lambda o: chain_complex(X, o),
        "thom_smale_complex": lambda o: thom_smale_complex(X, M, o),
    }[entry]
    with pytest.raises(ValueError, match=r"\(0, 99\), which is not a cell of X"):
        build({(0, 99): -1})
    with pytest.raises(ValueError, match=r"\(5, 6, 7, 8\), which is not a cell of X"):
        build({(0, 1): -1, (5, 6, 7, 8): -1})


def test_chain_complex_wraps_a_simplicial_complex():
    C = chain_complex(triangle())
    assert C.top_dim == 2
    assert C.basis(0) == ((0,), (1,), (2,))
    assert C.basis(2) == ((0, 1, 2),)
    assert [C.size(k) for k in range(3)] == [3, 3, 1]
    assert dense_boundary(C, 0) == []
    assert C.euler_characteristic() == 1


def test_boundary_returns_a_copy():
    C = chain_complex(triangle())
    m = dense_boundary(C, 1)
    m[0][0] = 99
    assert dense_boundary(C, 1)[0][0] == -1


def test_constructor_checks_d_squared():
    with pytest.raises(ValueError):
        ChainComplex(
            {0: ["a", "b"], 1: ["e"], 2: ["f"]},
            {1: {"e": {"a": 1, "b": 1}}, 2: {"f": {"e": 1}}},
        )
    # the same data with a consistent differential passes
    ChainComplex(
        {0: ["a", "b"], 1: ["e"], 2: ["f"]},
        {1: {"e": {"a": -1, "b": 1}}, 2: {"f": {"e": 0}}},
    )


def test_column_is_a_sparse_copy():
    C = chain_complex(triangle())
    col = C.column(1, (0, 1))
    assert col == {(0,): -1, (1,): 1}
    col[(0,)] = 99
    assert C.column(1, (0, 1)) == {(0,): -1, (1,): 1}
    assert C.column(0, (2,)) == {}
    with pytest.raises(ValueError):
        C.column(1, (0, 2, 9))


def test_constructor_drops_zeros():
    A = ChainComplex({0: ["a", "b"], 1: ["e", "f"]}, {1: {"e": {"a": 1, "b": 0}, "f": {}}})
    B = ChainComplex({0: ["a", "b"], 1: ["e", "f"]}, {1: {"e": {"a": 1}}})
    assert A == B
    assert A.column(1, "f") == {}
    assert dense_boundary(A, 1) == [[1, 0], [0, 0]]


def test_constructor_checks_shapes_and_labels():
    with pytest.raises(ValueError):
        ChainComplex({0: ["a", "a"]}, {})
    with pytest.raises(ValueError):
        ChainComplex({0: ["a"], 2: ["b"]}, {})  # degree gap
    with pytest.raises(ValueError):
        ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"e": {"c": 1}}})  # no row "c"
    with pytest.raises(ValueError):
        ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"g": {"a": 1}}})  # no column "g"
    with pytest.raises(ValueError):
        ChainComplex({0: ["a"]}, {1: {}})  # no degree 1
    for bad in (2.5, True, 1.0):  # coefficients are integers only
        with pytest.raises(ValueError, match=rf"boundary of 'e' has the non-int entry {bad}"):
            ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"e": {"a": -1, "b": bad}}})


def test_equality_is_by_bases_and_matrices():
    A = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"e": {"a": -1, "b": 1}}})
    B = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"e": {"a": -1, "b": 1}}})
    C = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"e": {"a": 1, "b": -1}}})
    assert A == B
    assert A != C


@st.composite
def oriented_matchings(draw):
    """A small complex, an orientation flipping random cells, and a random
    Morse matching."""
    X = draw(small_complexes)
    cells = list(X.all_cells())
    flips = draw(st.lists(st.sampled_from(cells), max_size=len(cells)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    M = thin_matching(random_morse_matching(X, rng), rng, draw(st.sampled_from([1.0, 0.75, 0.5])))
    return X, reorient(X, flips), M


@settings(max_examples=100)
@given(oriented_matchings())
def test_sparse_storage_agrees_with_the_incidence_oracle(case):
    X, orientation, M = case
    C = chain_complex(X, orientation)
    for k in range(1, X.dim + 1):
        assert dense_boundary(C, k) == [
            [incidence(tau, sigma, orientation) for tau in X.cells(k)]
            for sigma in X.cells(k - 1)
        ]
    # chain_complex skips the constructor's checks; its parts pass them
    checked = ChainComplex(
        {k: C.basis(k) for k in range(C.top_dim + 1)},
        {k: {tau: C.column(k, tau) for tau in C.basis(k)} for k in range(1, C.top_dim + 1)},
    )
    assert checked == C
    T = thom_smale_complex(X, M, orientation)
    assert eliminate_sequence(C, M) == T
    # the homology of the reoriented Morse complex is that of X
    assert homology(T) == homology(C) == homology(chain_complex(X))


@settings(max_examples=100)
@given(small_complexes)
def test_simplicial_homology_agrees_with_the_dense_route(X):
    assert simplicial_homology(X) == homology(chain_complex(X))
