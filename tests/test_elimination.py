import copy
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from discmorse import corpus, elimination
from discmorse.chains import ChainComplex, chain_complex
from discmorse.complexes import SimplicialComplex, barycentric_subdivision, product_triangulation
from discmorse.elimination import (
    EliminationStep,
    _sampled_orders,
    all_orders_agree,
    eliminate_sequence,
    gaussian_eliminate,
)
from discmorse.errors import EliminationError
from discmorse.matchings import Matching, closed_vpath, random_morse_matching
from discmorse.morse import thom_smale_complex
from oracles import (
    copying_eliminate, copying_sequence, dense_boundary, morse_iff_all_orders, random_matching
)
from strategies import small_complexes, tetrahedra_rings


def circle():
    return SimplicialComplex.from_facets(itertools.combinations(range(3), 2))


def triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def test_gaussian_eliminate_one_pair_on_the_circle():
    C = chain_complex(circle())
    R = gaussian_eliminate(C, ((0,), (0, 1)))
    assert R.basis(0) == ((1,), (2,))
    assert R.basis(1) == ((0, 2), (1, 2))
    assert dense_boundary(R, 1) == [[-1, -1], [1, 1]]


def test_gaussian_eliminate_updates_neighbor_degrees():
    C = chain_complex(triangle())
    R = gaussian_eliminate(C, EliminationStep((0, 1), (0, 1, 2)))
    # the degree-2 column disappears, degree 1 loses the (0,1) row
    assert R.basis(2) == ()
    assert R.basis(1) == ((0, 2), (1, 2))
    assert dense_boundary(R, 1) == [[-1, 0], [0, -1], [1, 1]]
    assert dense_boundary(R, 2) == [[], []]


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
    res = all_orders_agree(chain_complex(X), M, max_orders=12)
    assert res.agree and not res.exhaustive and res.orders_tested == 12
    assert res.reduced == thom_smale_complex(X, M)


def test_a_larger_budget_extends_the_sampled_orders():
    M = random_morse_matching(corpus.torus(), random.Random(0))
    assert len(M) == 19
    pairs = M.pairs()
    one, seven, thirty = ([pairs, *_sampled_orders(pairs, m)] for m in (1, 7, 30))
    assert one == [pairs] and seven[:1] == one and thirty[:7] == seven
    assert len(set(thirty)) == 30


def test_all_orders_agree_refuses_fewer_than_one_order():
    X = corpus.torus()
    M = random_morse_matching(X, random.Random(0))
    small = Matching([((0,), (0, 1))])
    assert len(M) == 19
    for N in (M, small):  # sampled and exhaustive alike
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"max_orders must be at least 1, got {bad}"):
                all_orders_agree(chain_complex(X), N, max_orders=bad)
    assert all_orders_agree(chain_complex(X), M, max_orders=1).orders_tested == 1


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


def storage(C: ChainComplex):
    """Bases with their positions and columns in storage order, entries too."""
    return (
        {k: list(b.items()) for k, b in C._bases.items()},
        {k: [(t, list(c.items())) for t, c in cols.items()] for k, cols in C._columns.items()},
    )


def error_fields(exc: EliminationError):
    return ("error", exc.args, exc.step, exc.pair, exc.pivot)


def outcome(run):
    """storage() of run()'s complex, or the EliminationError it raised."""
    try:
        return storage(run())
    except EliminationError as exc:
        return error_fields(exc)


def copying_all_orders(C: ChainComplex, M: Matching, max_orders: int):
    """all_orders_agree's outcome with every order run by copying_sequence."""
    pairs = M.pairs()
    exhaustive = len(pairs) <= 8
    orders = (itertools.permutations(pairs) if exhaustive
              else itertools.chain([pairs], _sampled_orders(pairs, max_orders)))
    reference, tested = None, 0
    for order in orders:
        tested += 1
        try:
            reduced = copying_sequence(C, order)
        except EliminationError as exc:
            return (False, tested, exhaustive, None, error_fields(exc), tuple(order))
        if reference is None:
            reference = reduced
        elif reduced != reference:
            return (False, tested, exhaustive, None, None, tuple(order))
    return (True, tested, exhaustive, storage(reference), None, None)


def orders_fields(res):
    """Every field of an OrdersResult, as copying_all_orders gives them."""
    return (res.agree, res.orders_tested, res.exhaustive,
            res.reduced and storage(res.reduced),
            res.failure and error_fields(res.failure), res.failing_order)


seeded_matchings = st.builds(
    lambda X, seed, morse: (
        X,
        random_morse_matching(X, random.Random(seed)) if morse
        else random_matching(X, random.Random(seed), density=1.0),
    ),
    small_complexes,
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


@settings(max_examples=150)
@given(st.one_of(seeded_matchings, tetrahedra_rings()), st.integers(0, 2**32 - 1))
def test_elimination_equals_the_copying_reference(X_and_M, seed):
    X, M = X_and_M
    C = chain_complex(X)
    before = copy.deepcopy(C)
    rng = random.Random(seed)
    for pair in M.pairs():
        assert outcome(lambda: gaussian_eliminate(C, pair)) == outcome(
            lambda: copying_eliminate(C, pair)
        )
    for _ in range(3):
        order = list(M.pairs())
        rng.shuffle(order)
        assert outcome(lambda: eliminate_sequence(C, M, order)) == outcome(
            lambda: copying_sequence(C, order)
        )
    sub = Matching(rng.sample(M.pairs(), min(len(M), 5)))  # exhaustive, 120 orders at most
    runs = [(sub, 100)] + ([(M, 4)] if len(M) > 8 else [])
    for N, max_orders in runs:
        res = all_orders_agree(C, N, max_orders=max_orders)
        assert orders_fields(res) == copying_all_orders(C, N, max_orders)
    assert storage(C) == storage(before)


def test_a_step_rewrites_only_the_columns_holding_its_generators(monkeypatch):
    # the seed-0 collapse of sd^2 torus: 754 pairs over 3,024 nonzeros; the
    # copying reference handles about 1.17 million column entries here
    X = barycentric_subdivision(barycentric_subdivision(corpus.torus()).complex).complex
    M = random_morse_matching(X, random.Random(0))
    C = chain_complex(X)
    nnz = sum(len(c) for cols in C._columns.values() for c in cols.values())
    assert (len(M), nnz) == (754, 3024)
    handled = 0
    add_scaled = elimination._add_scaled

    def counted_add_scaled(target, source, c):
        nonlocal handled
        handled += len(target) + len(source)
        add_scaled(target, source, c)

    monkeypatch.setattr(elimination, "_add_scaled", counted_add_scaled)
    R = eliminate_sequence(C, M)
    assert [R.size(k) for k in range(3)] == [1, 2, 1]
    assert 0 < handled <= 8 * nnz


@st.composite
def closed_vpath_submatchings(draw):
    """The chain complex of a small complex, and up to 6 pairs of a matching
    on it: the pairs of a closed V-path that closed_vpath finds, plus
    others at random."""
    X, M = draw(st.one_of(seeded_matchings, tetrahedra_rings()))
    witness = closed_vpath(X.index(), M)
    assume(witness is not None and len(witness) <= 7)
    up = dict(M.pairs())
    cycle = [(sigma, up[sigma]) for sigma in witness[:-1]]
    others = [pair for pair in M.pairs() if pair not in cycle]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=6 - len(cycle))
                 if others else st.just([]))
    return chain_complex(X), Matching(cycle + extra)


@st.composite
def unit_lu_matchings(draw):
    """A chain complex in degrees 0 and 1 whose k matched pairs
    ((v,), (v, k + 1 + v)) meet the matrix L * U, with L lower and U upper
    triangular, pivots +-1 and +-1 entries elsewhere at random, beside an
    unmatched vertex and edge. Every leading minor is +-1, so the sorted
    order succeeds, while other orders often meet a pivot 0 or +-2: this
    is where a failure comes after orders that succeed. Past 8 pairs the
    orders are sampled, so 7 and 8 pairs are left out: the reference would
    copy the complex for each of 40,320 orders."""
    k = draw(st.one_of(st.integers(1, 6), st.integers(9, 11)))
    unit, entry = st.sampled_from((-1, 1)), st.sampled_from((-1, 0, 1))
    L = [[draw(unit) if i == j else draw(entry) if i > j else 0 for j in range(k)] for i in range(k)]
    U = [[draw(unit) if i == j else draw(entry) if i < j else 0 for j in range(k)] for i in range(k)]
    A = [[sum(L[i][m] * U[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
    lowers = [(v,) for v in range(k + 1)]  # (k,) is unmatched
    uppers = [(v, k + 1 + v) for v in range(k + 1)]  # so is (k, 2k + 1)
    columns = {uppers[j]: {lowers[i]: A[i][j] for i in range(k)} for j in range(k)}
    for col in columns.values():
        col[lowers[k]] = draw(entry)
    columns[uppers[k]] = {sigma: draw(entry) for sigma in lowers}
    C = ChainComplex({0: lowers, 1: uppers}, {1: columns})
    return C, Matching(zip(lowers[:k], uppers[:k]))


def matched_matrix(A):
    """A chain complex in degrees 0 and 1 whose k matched pairs
    ((v,), (v, k + v)) meet the k x k matrix A, and nothing else."""
    k = len(A)
    lowers, uppers = [(v,) for v in range(k)], [(v, k + v) for v in range(k)]
    columns = {uppers[j]: {lowers[i]: A[i][j] for i in range(k)} for j in range(k)}
    return ChainComplex({0: lowers, 1: uppers}, {1: columns}), Matching(zip(lowers, uppers))


@settings(max_examples=150)
@given(st.one_of(closed_vpath_submatchings(), unit_lu_matchings()), st.integers(1, 20))
# pair 1 first meets the pivot 0, so the first failing order ends in two
# pairs, 0 then 2, that the drawn cases seldom leave after a failure
@example(matched_matrix([[1, 1, 0], [1, 0, 0], [0, 0, 1]]), 1)
def test_failing_orders_equal_the_copying_reference(C_and_M, max_orders):
    C, M = C_and_M
    res = all_orders_agree(C, M, max_orders=max_orders)
    assert orders_fields(res) == copying_all_orders(C, M, max_orders)


def test_all_orders_agree_reduces_the_complex_once(monkeypatch):
    """One reduction runs on C; every other holds only matched generators."""
    calls = []
    init = elimination._Reduction.__init__

    def spied_init(self, D):
        calls.append(D)
        init(self, D)

    monkeypatch.setattr(elimination._Reduction, "__init__", spied_init)
    sd2_torus = barycentric_subdivision(barycentric_subdivision(corpus.torus()).complex).complex
    for X, n, max_orders, tested in ((sd2_torus, 4, 100, 24), (corpus.torus(), 19, 12, 12)):
        C = chain_complex(X)
        M = Matching(random_morse_matching(X, random.Random(0)).pairs()[:n])
        calls.clear()
        res = all_orders_agree(C, M, max_orders=max_orders)
        assert len(M) == n and res.agree and res.orders_tested == tested
        assert res.exhaustive == (n <= 8)
        assert [D is C for D in calls].count(True) == 1 and len(calls) > 1
        assert max(sum(map(len, D._bases.values())) for D in calls if D is not C) <= 2 * n
