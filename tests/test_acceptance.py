"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
(visible with ``pytest -s`` or in captured output), and enforces a wall
clock budget. The corpus: the solid simplices up to dimension 4, their
boundary spheres, the 7-vertex torus, the 6-vertex projective plane, the
8-vertex Klein bottle, the staircase square and prism, and one
barycentric subdivision of each.
"""

import random
import time
from contextlib import contextmanager

from discmorse import corpus
from discmorse.chains import chain_complex
from discmorse.complexes import SimplicialComplex, barycentric_subdivision
from discmorse.euler import (
    EulerChain,
    complete_matching,
    euler_chain_from_matching,
    homologous,
    reroute_along_vpath,
)
from discmorse.homology import homology
from discmorse.matchings import (
    Matching,
    critical_cells,
    find_closed_vpath,
    find_collapse,
    greedy_morse_matching,
    hasse,
    is_morse,
    random_morse_matching,
)
from discmorse.morse import reorient, thom_smale_complex
from oracles import (
    boundary_zero_chain, hasse_edges, morse_iff_all_orders, random_matching, thin_matching
)


@contextmanager
def criterion(number: int, budget: float, detail: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({detail})")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"criterion {number}: FAIL ({detail}; {elapsed:.2f}s over budget {budget:g}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget:g}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {number}: PASS ({detail}; {elapsed:.2f}s, budget {budget:g}s)")


def full_corpus():
    """Every named complex and one barycentric subdivision of each."""
    out = []
    for name in corpus.names():
        X = corpus.build(name)
        out.append((name, X))
        out.append((f"sd_{name}", barycentric_subdivision(X).complex))
    return out


def all_matchings(X):
    """Every pairwise-disjoint subset of Hasse edges, the empty one included."""
    edges = hasse_edges(X)
    found = []

    def extend(i, used, acc):
        if i == len(edges):
            found.append(tuple(acc))
            return
        extend(i + 1, used, acc)
        lo, hi = edges[i]
        if lo not in used and hi not in used:
            used |= {lo, hi}
            acc.append(edges[i])
            extend(i + 1, used, acc)
            acc.pop()
            used -= {lo, hi}

    extend(0, set(), [])
    return found


def test_criterion_1_boundary_squares_to_zero():
    with criterion(1, 1.0, "d o d = 0 across the corpus"):
        complexes = full_corpus()
        assert len(complexes) == 28
        for name, X in complexes:
            chain_complex(X)  # raises if d o d != 0


def test_criterion_2_morse_differential_squares_to_zero():
    with criterion(2, 30.0, "Morse d o d = 0: empty, greedy, 200 random each"):
        rng = random.Random(0)
        for name, X in full_corpus():
            thom_smale_complex(X, Matching(()))
            thom_smale_complex(X, greedy_morse_matching(X))
            for i in range(200):
                keep = 1.0 if i % 2 == 0 else 0.75
                M = thin_matching(random_morse_matching(X, rng), rng, keep)
                thom_smale_complex(X, M)  # constructor checks d o d = 0


def test_criterion_3_morse_homology_matches_simplicial():
    with criterion(3, 30.0, "Morse homology == simplicial homology"):
        rng = random.Random(0)
        for name, X in full_corpus():
            hX = homology(chain_complex(X))
            for M in (Matching(()), greedy_morse_matching(X)):
                assert homology(thom_smale_complex(X, M)) == hX, name
            for i in range(200):
                keep = 1.0 if i % 2 == 0 else 0.75
                M = thin_matching(random_morse_matching(X, rng), rng, keep)
                assert homology(thom_smale_complex(X, M)) == hX, name
        # frozen reference values
        ht = homology(chain_complex(corpus.torus()))
        assert ht.betti == (1, 2, 1) and ht.torsion == ((), (), ())
        hp = homology(chain_complex(corpus.projective_plane()))
        assert hp.betti == (1, 0, 0) and hp.torsion == ((), (2,), ())
        hk = homology(chain_complex(corpus.klein_bottle()))
        assert hk.betti == (1, 1, 0) and hk.torsion == ((), (2,), ())


def test_criterion_4_morse_iff_every_elimination_order_succeeds():
    with criterion(4, 60.0, "exhaustive matchings of the circle and the square"):
        for name in ("sphere1", "square"):
            X = corpus.build(name)
            matchings = all_matchings(X)
            assert len(matchings) > 1
            for pairs in matchings:
                M = Matching(pairs)
                v = morse_iff_all_orders(X, M)
                assert v.orders.exhaustive
                assert v.consistent, (name, pairs)
                if v.morse:
                    assert v.orders.agree, (name, pairs)
                    assert v.orders.reduced == thom_smale_complex(X, M), (name, pairs)


def test_criterion_5_acyclicity_equals_no_closed_vpath():
    with criterion(5, 60.0, "is_morse == no closed V-path, exhaustive + 1000 random"):
        for name in ("sphere1", "square"):
            X = corpus.build(name)
            H = hasse(X)
            for pairs in all_matchings(X):
                M = Matching(pairs)
                assert is_morse(H, M) == (find_closed_vpath(X, M) is None)
        T = corpus.torus()
        HT = hasse(T)
        rng = random.Random(42)
        for _ in range(1000):
            M = random_matching(T, rng, density=rng.choice((0.3, 0.5, 0.7, 0.9, 1.0)))
            assert is_morse(HT, M) == (find_closed_vpath(T, M) is None)


def test_criterion_6_collapses():
    with criterion(6, 5.0, "simplices collapse to a point, prism to its bottom"):
        for n in range(5):
            X = corpus.simplex(n)
            M = find_collapse(X, SimplicialComplex([(0,)]))
            assert M is not None, n
            crit = [c for cells in critical_cells(X, M).values() for c in cells]
            assert crit == [(0,)], n
            h = homology(thom_smale_complex(X, M))
            assert h.betti == (1,) + (0,) * n and not any(h.torsion), n
        prism = corpus.build("prism")
        bottom = SimplicialComplex.from_facets([(0, 2, 4)])
        M = find_collapse(prism, bottom)
        assert M is not None
        crit = {c for cells in critical_cells(prism, M).values() for c in cells}
        assert crit == set(bottom.all_cells())


def test_criterion_7_complete_matchings_and_euler_chains():
    with criterion(7, 5.0, "complete matchings, chain boundary, rerouting"):
        circle = corpus.sphere(1)
        M = complete_matching(hasse(circle))
        assert M is not None and len(M) == 3

        s3 = corpus.sphere(3)
        assert s3.n_cells == 30
        M3 = complete_matching(hasse(s3))
        assert M3 is not None and len(M3) == 15

        assert complete_matching(hasse(corpus.simplex(2))) is None  # chi = 1

        for X, cm in ((circle, M), (s3, M3)):
            chain = euler_chain_from_matching(X, cm)
            sub = barycentric_subdivision(X)
            want = {
                sub.barycenter_of[c]: (1 if len(c) % 2 == 1 else -1)
                for c in X.all_cells()
            }
            assert boundary_zero_chain(sub, chain) == want

        # rerouting the two-critical-cell collapse yields a complete matching
        partial = Matching([((0,), (0, 1)), ((1,), (1, 2))])
        assert len(critical_cells(circle, partial)[0]) == 1
        assert len(critical_cells(circle, partial)[1]) == 1
        rerouted = reroute_along_vpath(partial, (0, 2), ((0,), (1,), (2,)))
        assert rerouted.pairs() == (
            ((0,), (0, 2)), ((1,), (0, 1)), ((2,), (1, 2)),
        )
        assert all(rerouted.covers(c) for c in circle.all_cells())
        euler_chain_from_matching(circle, rerouted)


def test_criterion_8_homologous_and_non_homologous_chains():
    # A 2-sphere has nonzero Euler characteristic, so no complete matching
    # exists there; the comparison runs on the boundary of the 4-simplex.
    with criterion(8, 10.0, "chain comparison on the 3-sphere and the torus"):
        assert complete_matching(hasse(corpus.sphere(2))) is None

        s3 = corpus.sphere(3)
        M1 = complete_matching(hasse(s3))
        perm = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
        M2 = Matching(
            (tuple(sorted(perm[v] for v in lo)), tuple(sorted(perm[v] for v in hi)))
            for lo, hi in M1.pairs()
        )
        assert M1 != M2
        assert all(M2.covers(c) for c in s3.all_cells())
        xi = euler_chain_from_matching(s3, M1)
        eta = euler_chain_from_matching(s3, M2)
        assert homologous(s3, xi, eta)  # H_1 of the 3-sphere vanishes

        T = corpus.torus()
        MT = complete_matching(hasse(T))
        chain = euler_chain_from_matching(T, MT)
        loop = []
        for i in range(7):
            u, v = (i,), ((i + 1) % 7,)
            e = tuple(sorted(u + v))
            loop.extend([(u, e, 1), (e, v, 1)])
        shifted = EulerChain.from_segments(list(chain.segments) + loop)
        assert shifted.boundary_on_cells() == chain.boundary_on_cells()
        assert not homologous(T, chain, shifted)


def test_criterion_9_orientation_independence():
    with criterion(9, 10.0, "50 random orientation flips on the torus and RP2"):
        rng = random.Random(7)
        for X in (corpus.torus(), corpus.projective_plane()):
            base = homology(chain_complex(X))
            cells = list(X.all_cells())
            for _ in range(50):
                flips = [c for c in cells if rng.random() < 0.5]
                table = reorient(X, flips)
                assert homology(chain_complex(X, table)) == base
                M = random_morse_matching(X, rng)
                assert homology(thom_smale_complex(X, M, orientation=table)) == base
