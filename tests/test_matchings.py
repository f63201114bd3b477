import contextlib
import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmorse import corpus, matchings
from discmorse.chains import chain_complex
from discmorse.complexes import SimplicialComplex, barycentric_subdivision, product_triangulation
from discmorse.errors import MatchingError, NotMorseError
from discmorse.euler import complete_matching
from discmorse.homology import homology
from discmorse.matchings import (
    Matching,
    closed_vpath,
    critical_cells,
    find_closed_vpath,
    find_collapse,
    greedy_morse_matching,
    hasse,
    is_morse,
    random_morse_matching,
    validate_matching,
)
from discmorse.morse import thom_smale_complex
from oracles import (
    covers, differential_entry, hasse_edges, random_matching, reference_collapse, thin_matching,
    v_inverse,
)
from strategies import small_complexes, tetrahedra_rings


def circle():
    return SimplicialComplex.from_facets(itertools.combinations(range(3), 2))


def triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def torus():
    facets = [tuple(sorted([i, (i + 1) % 7, (i + 3) % 7])) for i in range(7)]
    facets += [tuple(sorted([i, (i + 2) % 7, (i + 3) % 7])) for i in range(7)]
    return SimplicialComplex.from_facets(facets)


# --- Matching basics ---


def test_matching_accessors():
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    assert len(M) == 2
    assert M.v((0,)) == (0, 1)
    assert M.v((2,)) is None
    assert v_inverse(M, (1, 2)) == (1,)
    assert covers(M, (0, 1)) and not covers(M, (2,))
    assert ((0,), (0, 1)) in M
    assert M.pairs() == (((0,), (0, 1)), ((1,), (1, 2)))
    assert set(M) == set(M.pairs())


def test_matching_rejects_bad_pairs():
    with pytest.raises(MatchingError):
        Matching([((0,), (1, 2))])  # not a face
    with pytest.raises(MatchingError):
        Matching([((0,), (0, 1, 2))])  # codimension 2
    with pytest.raises(MatchingError) as exc:
        Matching([((0,), (0, 1)), ((0,), (0, 2))])
    assert exc.value.cell == (0,)


def test_matching_equality_and_hash():
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    assert M != Matching([((1,), (1, 2))]) and M != Matching([((0,), (0, 2)), ((1,), (1, 2))])
    assert M == Matching(reversed(M.pairs()))
    assert hash(M) == hash(Matching(M.pairs()))


def test_validate_matching_accepts_the_hasse_edges_only():
    X = triangle()
    H = hasse(X)
    edges = hasse_edges(X)
    assert len(edges) == 6 + 3  # 2 per edge cell, 3 into the triangle
    assert edges[0] == ((0,), (0, 1))
    assert all(validate_matching(H, [pair]).ok for pair in edges)
    for pair in [
        ((0,), (0, 1, 2)),  # codimension 2 is not a cover
        ((0,), (1, 2)),  # not a face
        ((0, 1), (0, 1, 3)),  # a cover pair, but its coface is not in X
        ((99,), (0, 1, 2)),  # a face outside X
        ((0,), (99,)),  # a coface outside X
    ]:
        bad = validate_matching(H, [pair])
        assert not bad.ok and "not a Hasse edge" in bad.problem, pair


def test_validate_matching_reports_first_problem():
    H = hasse(circle())
    ok = validate_matching(H, [((0,), (0, 1)), ((1,), (1, 2))])
    assert ok.ok and ok.problem is None
    bad = validate_matching(H, [((0,), (1, 2))])
    assert not bad.ok and "not a Hasse edge" in bad.problem
    dup = validate_matching(H, [((0,), (0, 1)), ((1,), (0, 1))])
    assert not dup.ok and "covered by both" in dup.problem


@pytest.mark.parametrize("density", [0.3, 0.5, 0.7, 1.0])
def test_v_inverse_and_covers_agree_with_the_pairs(density):
    X = corpus.torus()
    outside = [(), (0,), (90,), (0, 90), (90, 91), (1, 0), (0, 1, 2, 3, 4)]
    for seed in range(5):
        M = random_matching(X, random.Random(seed), density)
        down = {tau: sigma for sigma, tau in M.pairs()}
        for c in list(X.all_cells()) + outside:
            assert v_inverse(M, c) == down.get(c)
            assert covers(M, c) == (M.v(c) is not None or c in down)


def test_critical_cells_lists_every_dimension():
    X = triangle()
    M = Matching([((0,), (0, 1)), ((0, 2), (0, 1, 2)), ((1,), (1, 2))])
    assert critical_cells(X, M) == {0: ((2,),), 1: (), 2: ()}
    assert critical_cells(X, Matching(())) == {
        0: X.cells(0), 1: X.cells(1), 2: X.cells(2),
    }
    # a pair outside X is refused, as thom_smale_complex and is_morse refuse it
    outside = Matching([((0,), (0, 1)), ((90,), (90, 91))])
    with pytest.raises(MatchingError, match="names a cell outside the complex") as exc:
        critical_cells(torus(), outside)
    assert exc.value.cell == (90,)


# --- acyclicity and closed V-paths ---


def test_is_morse_on_the_circle():
    X = circle()
    H = hasse(X)
    assert is_morse(H, Matching(()))
    assert is_morse(H, Matching([((0,), (0, 1)), ((1,), (1, 2))]))
    # matching every vertex around the circle creates a closed V-path
    cyc = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    assert not is_morse(H, cyc)


def test_find_closed_vpath_witness():
    X = circle()
    cyc = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    w = find_closed_vpath(X, cyc)
    assert w is not None
    assert w[0] == w[-1]
    assert len(w) >= 3
    # each step moves to the other face of the matched coface
    for a, b in zip(w, w[1:]):
        tau = cyc.v(a)
        assert tau is not None and set(b) < set(tau) and b != a
    assert find_closed_vpath(X, Matching([((0,), (0, 1))])) is None


def every_matching(X):
    """Every set of pairwise disjoint Hasse edges of X, the empty one included."""
    edges = hasse_edges(X)

    def extend(i, used):
        if i == len(edges):
            yield ()
            return
        yield from extend(i + 1, used)
        lo, hi = edges[i]
        if lo not in used and hi not in used:
            for rest in extend(i + 1, used | {lo, hi}):
                yield (edges[i],) + rest

    return [Matching(pairs) for pairs in extend(0, frozenset())]


def is_closed_vpath(M, path):
    return (
        len(path) >= 3
        and path[0] == path[-1]
        and all(
            M.v(a) is not None and b != a and len(b) == len(a) and set(b) < set(M.v(a))
            for a, b in zip(path, path[1:])
        )
    )


def test_closed_vpath_witness_agrees_with_the_oracle():
    cases = [(X, every_matching(X)) for X in (circle(), product_triangulation(1, 1))]
    rng = random.Random(7)
    T = torus()
    cases.append(
        (T, [random_matching(T, rng, density=rng.choice((0.4, 0.8, 1.0))) for _ in range(150)])
    )
    found = 0
    for X, matchings in cases:
        H = hasse(X)
        for M in matchings:
            w = closed_vpath(H, M)
            assert (w is None) == (find_closed_vpath(X, M) is None)
            if w is not None:
                assert is_closed_vpath(M, w), (M.pairs(), w)
                found += 1
    assert found > 0


seeded_random_matchings = st.builds(
    lambda X, seed, density: (X, random_matching(X, random.Random(seed), density=density)),
    small_complexes,
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.4, 0.7, 1.0)),
)


@settings(max_examples=300)
@given(st.one_of(seeded_random_matchings, tetrahedra_rings()))
def test_is_morse_and_witness_agree_with_the_oracle_up_to_dimension_3(X_and_M):
    X, M = X_and_M
    H = hasse(X)
    morse = find_closed_vpath(X, M) is None
    assert is_morse(H, M) == morse
    w = closed_vpath(H, M)
    assert (w is None) == morse
    if w is not None:
        assert is_closed_vpath(M, w), (M.pairs(), w)


def test_bruteforce_oracle_matches_is_morse_on_random_matchings():
    X = torus()
    H = hasse(X)
    rng = random.Random(11)
    seen_not_morse = 0
    for _ in range(150):
        M = random_matching(X, rng, density=rng.choice((0.4, 0.8, 1.0)))
        verdict = is_morse(H, M)
        assert verdict == (find_closed_vpath(X, M) is None)
        seen_not_morse += not verdict
    assert seen_not_morse > 0  # the sample actually exercises both answers


# --- collapses ---


def test_find_collapse_of_the_triangle_to_a_vertex():
    X = triangle()
    M = find_collapse(X, SimplicialComplex([(0,)]))
    assert M is not None and len(M) == 3
    assert critical_cells(X, M) == {0: ((0,),), 1: (), 2: ()}
    assert is_morse(hasse(X), M)


def test_find_collapse_fails_on_the_circle():
    assert find_collapse(circle(), SimplicialComplex([(0,)])) is None


def test_find_collapse_requires_a_subcomplex():
    with pytest.raises(ValueError):
        find_collapse(circle(), SimplicialComplex([(9,)]))


def test_find_collapse_prism_onto_its_bottom_face():
    prism = product_triangulation(2, 1)
    bottom = SimplicialComplex.from_facets([(0, 2, 4)])
    M = find_collapse(prism, bottom)
    assert M is not None and len(M) == 12
    crit = critical_cells(prism, M)
    crit_cells = {c for cells in crit.values() for c in cells}
    assert crit_cells == set(bottom.all_cells())


def _random_subcomplex(X: SimplicialComplex, rng: random.Random) -> SimplicialComplex:
    """The closure of a random nonempty set of cells of X."""
    cells = list(X.all_cells())
    return SimplicialComplex.from_facets(rng.sample(cells, rng.randint(1, min(4, len(cells)))))


def _check_collapses_against_the_reference(X: SimplicialComplex, seeds) -> None:
    H = X.index()
    for s in seeds:
        rng, ref_rng = random.Random(s), random.Random(s)
        M = random_morse_matching(X, rng)
        assert matchings._field(H, M) == reference_collapse(X, (), ref_rng._randbelow)
        assert rng.getstate() == ref_rng.getstate()  # later draws of rng stay the same
        X0 = SimplicialComplex([X.cells(0)[s % len(X.cells(0))]])
        for sub in (X0, _random_subcomplex(X, random.Random(s))):
            got, want = find_collapse(X, sub), reference_collapse(X, sub.all_cells(), None)
            assert (None if got is None else matchings._field(H, got)) == want


@settings(max_examples=200)
@given(small_complexes, st.integers(0, 2**32 - 1))
def test_collapses_equal_the_reference_engine(X, seed):
    _check_collapses_against_the_reference(X, [seed, seed + 1])


@pytest.mark.parametrize("name", corpus.names())
def test_collapses_of_subdivided_corpus_equal_the_reference_engine(name):
    sd1 = barycentric_subdivision(corpus.build(name)).complex
    sd2 = barycentric_subdivision(sd1).complex
    _check_collapses_against_the_reference(sd1, range(4))
    _check_collapses_against_the_reference(sd2, range(2 if sd2.n_cells < 20000 else 1))


def test_random_morse_matching_needs_an_rng():
    X = circle()
    for rng in (None, object()):
        with pytest.raises(AttributeError):
            random_morse_matching(X, rng)


# --- random and greedy constructions ---


def test_random_morse_matching_is_always_morse():
    rng = random.Random(3)
    for X in (circle(), triangle(), torus(), product_triangulation(2, 1)):
        H = hasse(X)
        for _ in range(25):
            M = random_morse_matching(X, rng)
            assert is_morse(H, M)
            thinned = thin_matching(random_morse_matching(X, rng), rng, 0.5)
            assert is_morse(H, thinned)
            assert len(thinned) <= X.n_cells // 2


def test_random_matching_is_valid_but_not_necessarily_morse():
    X = torus()
    H = hasse(X)
    rng = random.Random(5)
    for _ in range(40):
        M = random_matching(X, rng)
        assert validate_matching(H, M.pairs()).ok


def test_greedy_is_frozen_on_small_complexes():
    assert greedy_morse_matching(circle()).pairs() == (
        ((0,), (0, 1)),
        ((1,), (1, 2)),
    )
    g = greedy_morse_matching(triangle())
    assert g.pairs() == (
        ((0,), (0, 1)),
        ((0, 2), (0, 1, 2)),
        ((1,), (1, 2)),
    )


def test_greedy_is_morse_and_homology_preserving():
    for X in (circle(), triangle(), torus(), product_triangulation(1, 1)):
        M = greedy_morse_matching(X)
        assert is_morse(hasse(X), M)
    # greedy on the torus leaves few critical cells but exact homology
    X = torus()
    M = greedy_morse_matching(X)
    assert homology(thom_smale_complex(X, M)) == homology(chain_complex(X))


# --- the id field and the verdict a matching keeps ---


def test_a_pair_outside_the_complex_is_refused_by_name():
    X = torus()
    M = Matching([((0,), (0, 99))])
    checks = [
        lambda: is_morse(hasse(X), M),
        lambda: closed_vpath(hasse(X), M),
        lambda: thom_smale_complex(X, M),
    ]
    for check in checks:
        with pytest.raises(MatchingError, match=r"\(\(0,\), \(0, 99\)\)") as exc:
            check()
        assert exc.value.cell == (0, 99)


def _answer(call, X, M):
    """What one call says about M on X; None for a refused Thom-Smale complex."""
    if call == "is_morse":
        return is_morse(hasse(X), M)
    if call == "closed_vpath":
        return closed_vpath(hasse(X), M)
    try:
        return thom_smale_complex(X, M)
    except NotMorseError:
        return None


@settings(max_examples=150)
@given(
    st.one_of(seeded_random_matchings, tetrahedra_rings()),
    st.permutations(("is_morse", "closed_vpath", "thom_smale_complex")),
)
def test_any_call_order_agrees_with_the_oracles_on_any_equal_complex(X_and_M, order):
    X, M = X_and_M
    fresh = Matching(M.pairs())  # the oracles' copy, which M's calls never touch
    morse = find_closed_vpath(X, fresh) is None
    for call in order:
        got = _answer(call, X, M)
        if call == "is_morse":
            assert got == morse
        elif call == "closed_vpath":
            assert (got is None) == morse
            assert morse or is_closed_vpath(M, got)
        elif not morse:
            assert got is None
        else:
            for k in range(1, got.top_dim + 1):
                for tau in got.basis(k):
                    want = {s: differential_entry(X, fresh, tau, s) for s in got.basis(k - 1)}
                    assert got.column(k, tau) == {s: n for s, n in want.items() if n}
    Y = SimplicialComplex.from_facets(X.facets())
    assert Y == X and hasse(Y) is not hasse(X)
    assert is_morse(hasse(Y), M) == morse
    assert (closed_vpath(hasse(Y), M) is None) == morse
    assert _answer("is_morse", X, M) == morse
    # Kahn's pass, wherever a module of the package holds it, runs once
    kahn = matchings._acyclic
    spy = mock.Mock(wraps=kahn)
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("discmorse") and getattr(module, "_acyclic", None) is kahn:
                stack.enter_context(mock.patch.object(module, "_acyclic", spy))
        N = Matching(M.pairs())
        assert is_morse(hasse(X), N) == morse
        assert (_answer("thom_smale_complex", X, N) is None) == (not morse)
    assert spy.call_count == 1


def library_matchings():
    """(complex, build) for every way the library builds a matching, where
    build() builds that matching afresh."""
    sd_s2 = barycentric_subdivision(corpus.sphere(2)).complex
    for X in (corpus.torus(), corpus.projective_plane(), sd_s2, product_triangulation(2, 1)):
        for s in range(6):
            yield X, lambda X=X, s=s: random_morse_matching(X, random.Random(s))
        yield X, lambda X=X: greedy_morse_matching(X)
        yield X, lambda X=X: find_collapse(X, SimplicialComplex([X.cells(0)[0]]))
    for X in (corpus.torus(), corpus.sphere(3), circle()):
        yield X, lambda X=X: complete_matching(hasse(X))


def test_library_built_matchings_equal_their_checked_copies():
    built = 0
    for X, build in library_matchings():
        if build() is None:  # find_collapse stuck, e.g. on the torus
            continue
        built += 1
        # the checked copy is made from the field, so no pair read goes into it
        H = hasse(X)
        v = matchings._field(H, build())
        N = Matching((H.cells[c], H.cells[t]) for c, t in enumerate(v) if t >= 0)
        Y = SimplicialComplex.from_facets(X.facets())
        assert Y == X and hasse(Y) is not hasse(X)
        cells, edges = list(X.all_cells()), hasse_edges(X)
        checks = {
            "==": lambda M: M == N and N == M,
            "hash": lambda M: hash(M) == hash(N),
            "len": lambda M: len(M) == len(N),
            "v": lambda M: [M.v(c) for c in cells] == [N.v(c) for c in cells],
            "v_inverse": lambda M: [v_inverse(M, c) for c in cells]
            == [v_inverse(N, c) for c in cells],
            "covers": lambda M: [covers(M, c) for c in cells] == [covers(N, c) for c in cells],
            "in": lambda M: [e in M for e in edges] == [e in N for e in edges],
            # re-keyed onto an equal complex's own index, then back
            "is_morse": lambda M: is_morse(hasse(Y), M) == is_morse(hasse(X), N)
            and M == N and critical_cells(X, M) == critical_cells(X, N),
        }
        for name, check in checks.items():
            M = build()
            assert M._pairs is None, name  # made from its field, no pair read yet
            assert check(M), name
        assert M.pairs() == N.pairs()
    assert built >= 25


def test_a_collapse_and_its_thom_smale_complex_read_no_pair():
    X = barycentric_subdivision(corpus.torus()).complex
    M = random_morse_matching(X, random.Random(0))
    thom_smale_complex(X, M)
    assert M._pairs is None
