import itertools
import random

import pytest

from discmorse.chains import ChainComplex, chain_complex
from discmorse.complexes import SimplicialComplex, product_triangulation
from discmorse.elimination import (
    EliminationStep,
    all_orders_agree,
    eliminate_sequence,
    gaussian_eliminate,
)
from discmorse.errors import EliminationError
from discmorse.matchings import Matching, random_morse_matching
from discmorse.morse import thom_smale_complex
from oracles import morse_iff_all_orders, random_matching


def circle():
    return SimplicialComplex.from_facets(itertools.combinations(range(3), 2))


def triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def test_gaussian_eliminate_one_pair_on_the_circle():
    C = chain_complex(circle())
    R = gaussian_eliminate(C, ((0,), (0, 1)))
    assert R.basis(0) == ((1,), (2,))
    assert R.basis(1) == ((0, 2), (1, 2))
    assert R.boundary(1) == [[-1, -1], [1, 1]]


def test_gaussian_eliminate_updates_neighbor_degrees():
    C = chain_complex(triangle())
    R = gaussian_eliminate(C, EliminationStep((0, 1), (0, 1, 2)))
    # the degree-2 column disappears, degree 1 loses the (0,1) row
    assert R.basis(2) == ()
    assert R.basis(1) == ((0, 2), (1, 2))
    assert R.boundary(1) == [[-1, 0], [0, -1], [1, 1]]
    assert R.boundary(2) == [[], []]


def test_gaussian_eliminate_rejects_non_unit_pivots():
    C = chain_complex(circle())
    # <d(0,1), (2,)> = 0
    with pytest.raises(EliminationError) as exc:
        gaussian_eliminate(C, ((2,), (0, 1)))
    assert exc.value.pivot == 0
    with pytest.raises(ValueError):
        gaussian_eliminate(C, ((2,), (0, 0, 7)))  # unknown generator
    doubled = ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: {"e": {"a": -2, "b": 2}}})
    with pytest.raises(EliminationError):
        gaussian_eliminate(doubled, ("a", "e"))


def test_eliminate_sequence_matches_thom_smale_on_the_circle():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    red = eliminate_sequence(chain_complex(X), M)
    assert red == thom_smale_complex(X, M)


def test_eliminate_sequence_checks_the_order():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    C = chain_complex(X)
    with pytest.raises(ValueError):
        eliminate_sequence(C, M, order=[((0,), (0, 1))])  # not a permutation
    both = list(reversed(M.pairs()))
    assert eliminate_sequence(C, M, order=both) == eliminate_sequence(C, M)


def test_cyclic_matching_fails_with_a_zero_pivot():
    X = circle()
    cyc = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    with pytest.raises(EliminationError) as exc:
        eliminate_sequence(chain_complex(X), cyc, order=cyc.pairs())
    # after eliminating two pairs, the remaining pivot has been cancelled
    assert exc.value.step == 2
    assert exc.value.pair == ((2,), (0, 2))
    assert exc.value.pivot == 0


def test_all_orders_agree_is_exhaustive_for_small_matchings():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    res = all_orders_agree(chain_complex(X), M)
    assert res.agree and res.exhaustive and res.orders_tested == 2
    assert res.reduced == thom_smale_complex(X, M)
    assert res.failure is None and res.failing_order is None


def test_all_orders_agree_reports_failures():
    X = circle()
    cyc = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    res = all_orders_agree(chain_complex(X), cyc)
    assert not res.agree
    assert res.failure is not None and res.failing_order is not None
    assert res.reduced is None


def test_all_orders_agree_samples_large_matchings():
    X = product_triangulation(2, 2)
    M = random_morse_matching(X, random.Random(1))
    assert len(M) > 8
    res = all_orders_agree(chain_complex(X), M, max_orders=12, seed=4)
    assert res.agree and not res.exhaustive and res.orders_tested == 12
    assert res.reduced == thom_smale_complex(X, M)


def test_morse_iff_all_orders_on_random_matchings():
    X = circle()
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(30):
        M = random_matching(X, rng, density=1.0)
        v = morse_iff_all_orders(X, M)
        assert v.consistent
        assert v.all_orders_succeed == (v.orders.failure is None)
        seen[v.morse] += 1
    assert seen[True] and seen[False]


def test_every_order_of_a_morse_matching_gives_the_same_reduction():
    X = triangle()
    M = Matching([((0,), (0, 1)), ((0, 2), (0, 1, 2)), ((1,), (1, 2))])
    res = all_orders_agree(chain_complex(X), M)
    assert res.agree and res.exhaustive and res.orders_tested == 6
    assert res.reduced == thom_smale_complex(X, M)
    assert res.reduced.basis(0) == ((2,),)
    assert [res.reduced.size(k) for k in range(3)] == [1, 0, 0]
