import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmorse import corpus, morse
from discmorse.chains import ChainComplex, chain_complex
from discmorse.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    hyperfaces,
    product_triangulation,
)
from discmorse.errors import NotMorseError
from discmorse.homology import homology
from discmorse.matchings import Matching, closed_vpath, hasse, is_morse, random_morse_matching
from discmorse.morse import reorient, simplicial_homology, thom_smale_complex
from oracles import (
    covers, dense_boundary, differential_entry, multiplicity, path_counts_signed, thin_matching,
    vpaths,
)
from strategies import small_complexes


def circle():
    return SimplicialComplex.from_facets(itertools.combinations(range(3), 2))


def triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def torus():
    facets = [tuple(sorted([i, (i + 1) % 7, (i + 3) % 7])) for i in range(7)]
    facets += [tuple(sorted([i, (i + 2) % 7, (i + 3) % 7])) for i in range(7)]
    return SimplicialComplex.from_facets(facets)


# --- multiplicity ---


def test_multiplicity_of_single_steps():
    X = triangle()
    # step through (0,1): -<d(01),(0)> <d(01),(1)> = -(-1)(+1) = 1
    assert multiplicity(X, [(0,), (1,)]) == 1
    assert multiplicity(X, [(1,), (0,)]) == 1
    # step through (0,1,2) between edges
    assert multiplicity(X, [(0, 1), (0, 2)]) == 1
    assert multiplicity(X, [(0, 1), (1, 2)]) == -1


def test_multiplicity_stationary_and_composition():
    X = circle()
    assert multiplicity(X, [(0,)]) == 1
    m01 = multiplicity(X, [(0,), (1,)])
    m12 = multiplicity(X, [(1,), (2,)])
    assert multiplicity(X, [(0,), (1,), (2,)]) == m01 * m12


def test_multiplicity_reacts_to_orientation_of_the_ends():
    X = triangle()
    base = multiplicity(X, [(0,), (1,)])
    # flipping the shared coface cancels out; flipping an endpoint does not
    assert multiplicity(X, [(0,), (1,)], {(0, 1): -1}) == base
    assert multiplicity(X, [(0,), (1,)], {(0,): -1}) == -base


def test_multiplicity_rejects_bad_paths():
    X = triangle()
    with pytest.raises(ValueError):
        multiplicity(X, [])
    with pytest.raises(ValueError):
        multiplicity(X, [(0,), (0,)])
    with pytest.raises(ValueError):
        multiplicity(X, [(0,), (0, 1)])
    Y = SimplicialComplex.from_facets([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        multiplicity(Y, [(0,), (2,)])  # (0,2) is not a cell of Y


# --- V-path enumeration ---


def test_vpaths_on_the_circle():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    found = vpaths(X, M, (0,), (2,))
    assert found == [((0,), (1,), (2,))]
    assert vpaths(X, M, (2,), (2,)) == [((2,),)]
    assert vpaths(X, M, (2,), (0,)) == []


def test_vpaths_requires_a_morse_matching():
    X = circle()
    cyc = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    with pytest.raises(NotMorseError):
        vpaths(X, cyc, (0,), (2,))


def _assert_counts_match_enumeration(X, M):
    for k in range(X.dim + 1):
        for start in X.cells(k):
            counts = path_counts_signed(X, M, start)
            brute = {}
            for end in X.cells(k):
                if covers(M, end):
                    continue
                total = sum(multiplicity(X, g) for g in vpaths(X, M, start, end))
                if total:
                    brute[end] = total
            assert counts == brute, (start, M.pairs())


def test_path_counts_signed_agrees_with_enumeration():
    rng = random.Random(23)
    for X in (circle(), triangle(), torus()):
        for _ in range(6):
            _assert_counts_match_enumeration(X, thin_matching(random_morse_matching(X, rng), rng, 0.7))


@settings(max_examples=60)
@given(
    small_complexes.filter(lambda X: X.dim <= 2),
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.4, 0.7, 1.0)),
)
def test_path_counts_signed_agrees_with_enumeration_on_drawn_matchings(X, seed, keep):
    rng = random.Random(seed)
    _assert_counts_match_enumeration(X, thin_matching(random_morse_matching(X, rng), rng, keep))


@settings(max_examples=60)
@given(small_complexes, st.integers(0, 2**32 - 1), st.sampled_from((0.4, 0.7, 1.0)))
def test_thom_smale_columns_agree_with_enumeration(X, seed, keep):
    rng = random.Random(seed)
    M = thin_matching(random_morse_matching(X, rng), rng, keep)
    ts = thom_smale_complex(X, M)
    assert ts.top_dim == X.dim
    for k in range(X.dim + 1):
        assert ts.basis(k) == tuple(c for c in X.cells(k) if not covers(M, c))
    for k in range(1, X.dim + 1):
        for tau in ts.basis(k):
            want = {s: differential_entry(X, M, tau, s) for s in ts.basis(k - 1)}
            assert ts.column(k, tau) == {s: n for s, n in want.items() if n}, (tau, M.pairs())


def test_differential_entry_frozen_on_the_circle():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    # both faces of the critical edge flow to the critical vertex and cancel
    assert differential_entry(X, M, (0, 2), (2,)) == 0
    with pytest.raises(ValueError):
        differential_entry(X, M, (0, 1), (2,))  # (0,1) is matched


# --- the critical-cell complex ---


def test_thom_smale_complex_on_the_circle():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    ts = thom_smale_complex(X, M)
    assert ts.basis(0) == ((2,),)
    assert ts.basis(1) == ((0, 2),)
    assert dense_boundary(ts, 1) == [[0]]
    assert type(ts) is ChainComplex


def test_thom_smale_complex_with_one_pair_on_the_triangle():
    X = triangle()
    ts = thom_smale_complex(X, Matching([((0,), (0, 1))]))
    assert ts.basis(0) == ((1,), (2,))
    assert ts.basis(1) == ((0, 2), (1, 2))
    assert ts.basis(2) == ((0, 1, 2),)
    assert dense_boundary(ts, 1) == [[-1, -1], [1, 1]]
    assert dense_boundary(ts, 2) == [[-1], [1]]


def test_thom_smale_empty_matching_is_the_chain_complex():
    for X in (circle(), triangle(), product_triangulation(1, 1)):
        ts = thom_smale_complex(X, Matching(()))
        C = chain_complex(X)
        assert ts == C


def test_one_walk_serves_every_degree(monkeypatch):
    walks = []
    walk = morse._signed_counts

    def spy(faces, v, starts):
        walks.append(starts)
        return walk(faces, v, starts)

    monkeypatch.setattr(morse, "_signed_counts", spy)
    X = product_triangulation(2, 1)
    rng = random.Random(1)
    M = thin_matching(random_morse_matching(X, rng), rng, 0.5)
    ts = thom_smale_complex(X, M)  # a nonzero differential in each degree
    assert [ts.size(k) for k in range(4)] == [3, 6, 6, 2]
    assert len(walks) == 1
    assert homology(ts) == homology(chain_complex(X))


@pytest.mark.parametrize(
    "X, sizes",
    [
        (barycentric_subdivision(corpus.sphere(3)).complex, [1, 0, 0, 1]),
        (corpus.torus(), [1, 2, 1]),
    ],
    ids=["sd_sphere3", "torus"],
)
def test_only_degrees_with_a_critical_cell_below_are_walked(monkeypatch, X, sizes):
    walks = []
    walk = morse._signed_counts

    def spy(faces, v, starts):
        walks.append(list(starts))
        return walk(faces, v, walks[-1])

    monkeypatch.setattr(morse, "_signed_counts", spy)
    M = random_morse_matching(X, random.Random(0))
    ts = thom_smale_complex(X, M)
    assert [ts.size(k) for k in range(X.dim + 1)] == sizes
    H = hasse(X)
    critical = [c for c in X.all_cells() if not covers(M, c)]
    dims = {len(c) - 1 for c in critical}
    want = [H.id_of[s] for c in critical if len(c) - 2 in dims for s in hyperfaces(c)]
    assert walks == [want]
    assert homology(ts) == homology(chain_complex(X))


def test_thom_smale_rejects_non_morse_matchings():
    cyc = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    with pytest.raises(NotMorseError):
        thom_smale_complex(circle(), cyc)


# closed V-paths above the vertices, with acyclic vertex-edge pairs: on the
# boundary of the tetrahedron the edges at vertex 0 run 01 -> 03 -> 02 -> 01
# through their matched triangles; on three tetrahedra around the edge 01
# the triangles run 012 -> 013 -> 014 -> 012 through theirs
@pytest.mark.parametrize(
    "facets, cycle",
    [
        (
            list(itertools.combinations(range(4), 3)),
            [((0, 1), (0, 1, 3)), ((0, 3), (0, 2, 3)), ((0, 2), (0, 1, 2))],
        ),
        (
            [(0, 1, 2, 3), (0, 1, 3, 4), (0, 1, 2, 4)],
            [((0, 1, 2), (0, 1, 2, 3)), ((0, 1, 3), (0, 1, 3, 4)), ((0, 1, 4), (0, 1, 2, 4))],
        ),
    ],
    ids=["edges", "triangles"],
)
def test_thom_smale_rejects_closed_vpaths_above_the_vertices(facets, cycle):
    X = SimplicialComplex.from_facets(facets)
    low = Matching([((1,), (1, 2)), ((2,), (2, 3))])
    M = Matching(low.pairs() + tuple(cycle))
    H = hasse(X)
    assert is_morse(H, low)
    assert not is_morse(H, M)
    assert set(closed_vpath(H, M)) == {sigma for sigma, _ in cycle}
    with pytest.raises(NotMorseError):
        thom_smale_complex(X, M)


def test_thom_smale_preserves_homology_on_random_matchings():
    rng = random.Random(40)
    for X in (circle(), torus(), product_triangulation(2, 1)):
        hX = homology(chain_complex(X))
        for _ in range(15):
            keep = rng.choice((0.6, 1.0))
            M = thin_matching(random_morse_matching(X, rng), rng, keep)
            assert homology(thom_smale_complex(X, M)) == hX


@settings(max_examples=60)
@given(small_complexes, st.integers(0, 2**32 - 1), st.sampled_from((0.4, 0.7, 1.0)))
def test_thom_smale_preserves_homology_on_drawn_matchings(X, seed, keep):
    rng = random.Random(seed)
    M = thin_matching(random_morse_matching(X, rng), rng, keep)
    assert homology(thom_smale_complex(X, M)) == homology(chain_complex(X))


def test_reorient_validates_and_flips():
    X = triangle()
    table = reorient(X, [(0, 1), (0, 1, 2)])
    assert table == {(0, 1): -1, (0, 1, 2): -1}
    with pytest.raises(ValueError):
        reorient(X, [(0, 3)])


def test_homology_is_orientation_independent():
    # thinned collapses leave nonzero differentials, where a sign slip
    # shows: a whole collapse of the torus leaves only zero ones
    rng = random.Random(8)
    X = torus()
    hX = homology(chain_complex(X))
    cells = list(X.all_cells())
    flipped = 0  # nonzero entries whose sign the orientation changes
    for _ in range(5):
        flips = [c for c in cells if rng.random() < 0.4]
        table = reorient(X, flips)
        M = thin_matching(random_morse_matching(X, rng), rng, 0.7)
        T, plain = thom_smale_complex(X, M, orientation=table), thom_smale_complex(X, M)
        assert homology(T) == hX
        for k in range(1, X.dim + 1):
            assert T.basis(k) == plain.basis(k)
            for tau in plain.basis(k):
                col = plain.column(k, tau)
                assert T.column(k, tau) == {
                    sigma: n * table.get(tau, 1) * table.get(sigma, 1) for sigma, n in col.items()
                }
                flipped += sum(table.get(tau, 1) * table.get(sigma, 1) < 0 for sigma in col)
    assert flipped


# --- simplicial homology through the Morse complex ---


def sd(X, times=1):
    for _ in range(times):
        X = barycentric_subdivision(X).complex
    return X


def test_simplicial_homology_on_the_corpus_and_subdivisions():
    cases = [corpus.build(name) for name in corpus.names()]
    cases += [sd(X) for X in cases]
    cases += [sd(corpus.build(name), 2) for name in ("torus", "projective_plane", "klein_bottle")]
    for X in cases:
        assert simplicial_homology(X) == homology(chain_complex(X)), X
    # sd^2 of the Klein bottle keeps its Z/2 torsion
    h = simplicial_homology(cases[-1])
    assert h.betti == (1, 1, 0) and h.torsion == ((), (2,), ())


def test_simplicial_homology_matches_sympy_on_the_corpus():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    for name in corpus.names():
        X = corpus.build(name)
        C = chain_complex(X)
        ranks = [0] * (X.dim + 2)
        torsion = [()] * (X.dim + 1)
        for k in range(1, X.dim + 1):
            D = sym_snf(sympy.Matrix(dense_boundary(C, k)))
            diag = [abs(D[i, i]) for i in range(min(D.shape))]
            ranks[k] = sum(1 for d in diag if d)
            torsion[k - 1] = tuple(sorted(int(d) for d in diag if d > 1))
        betti = tuple(C.size(k) - ranks[k] - ranks[k + 1] for k in range(X.dim + 1))
        h = simplicial_homology(X)
        assert (h.betti, h.torsion) == (betti, tuple(torsion)), name
