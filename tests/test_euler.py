import functools
import itertools
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discmorse import corpus, euler, morse
from discmorse.chains import chain_complex
from discmorse.complexes import Cell, SimplicialComplex, Subdivision, barycentric_subdivision
from discmorse.errors import MatchingError
from discmorse.homology import cycle_class
from discmorse.euler import (
    EulerChain,
    complete_matching,
    cone_rewire,
    euler_chain_from_matching,
    homologous,
    reroute_along_vpath,
)
from discmorse.matchings import Matching, _field, hasse, random_morse_matching
from discmorse.morse import simplicial_homology
from oracles import boundary_zero_chain, covers, homologous_on_complex
from strategies import euler_zero_complexes


def circle():
    return SimplicialComplex.from_facets(itertools.combinations(range(3), 2))


def sphere(n):
    return SimplicialComplex.from_facets(
        itertools.combinations(range(n + 2), n + 1)
    )


def torus():
    facets = [tuple(sorted([i, (i + 1) % 7, (i + 3) % 7])) for i in range(7)]
    facets += [tuple(sorted([i, (i + 2) % 7, (i + 3) % 7])) for i in range(7)]
    return SimplicialComplex.from_facets(facets)


# --- complete matchings ---


def test_complete_matching_on_the_circle():
    M = complete_matching(hasse(circle()))
    assert M is not None
    assert M.pairs() == (((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2)))


def test_complete_matching_needs_euler_characteristic_zero():
    # chi = 1 and chi = 2: parity counts differ, no complete matching
    assert complete_matching(hasse(SimplicialComplex.from_facets([(0, 1, 2)]))) is None
    assert complete_matching(hasse(sphere(2))) is None


def test_complete_matching_on_sphere3_and_torus():
    M = complete_matching(hasse(sphere(3)))
    assert M is not None and len(M) == 15
    T = torus()
    MT = complete_matching(hasse(T))
    assert MT is not None and len(MT) == 21
    assert all(covers(MT, c) for c in T.all_cells())


# --- chains ---


def test_euler_chain_canonicalization():
    c = EulerChain.from_segments(
        [((0,), (0, 1), 1), ((0, 1), (0,), 1), ((1,), (0, 1), 2)]
    )
    # opposite unit segments cancel; the rest are stored from the lower cell
    assert c.segments == (((1,), (0, 1), 2),)
    assert len(c) == 1
    with pytest.raises(ValueError):
        EulerChain.from_segments([((0,), (0,), 1)])
    with pytest.raises(ValueError):
        EulerChain.from_segments([((0,), (1, 2), 1)])  # incomparable cells


def test_euler_chain_boundary_and_subtraction():
    c = EulerChain.from_segments([((0,), (0, 1), 1), ((0, 1), (1,), 1)])
    assert c.boundary_on_cells() == {(1,): 1, (0,): -1}
    d = c - c
    assert d.segments == () and d.boundary_on_cells() == {}


def test_euler_chain_from_matching_boundary_identity():
    X = circle()
    M = complete_matching(hasse(X))
    chain = euler_chain_from_matching(X, M)
    assert chain.segments == (
        ((0,), (0, 1), -1),
        ((1,), (1, 2), -1),
        ((2,), (0, 2), -1),
    )
    # d(chain) = sum (-1)^dim(c) at the barycenter of c
    assert chain.boundary_on_cells() == {
        (0,): 1, (1,): 1, (2,): 1,
        (0, 1): -1, (0, 2): -1, (1, 2): -1,
    }


def test_euler_chain_rejects_incomplete_matchings():
    X = circle()
    with pytest.raises(MatchingError):
        euler_chain_from_matching(X, Matching([((0,), (0, 1))]))


def test_euler_chain_refuses_a_pair_outside_the_complex():
    X = torus()
    outside = ((100,), (100, 101))
    M = Matching(complete_matching(hasse(X)).pairs() + (outside,))
    with pytest.raises(MatchingError, match=r"\(\(100,\), \(100, 101\)\)") as exc:
        euler_chain_from_matching(X, M)
    assert exc.value.cell == (100,)


def test_boundary_zero_chain_lands_on_barycenters():
    X = sphere(3)
    M = complete_matching(hasse(X))
    chain = euler_chain_from_matching(X, M)
    sub = barycentric_subdivision(X)
    bz = boundary_zero_chain(sub, chain)
    assert bz == {
        sub.barycenter_of[c]: (1 if len(c) % 2 == 1 else -1)
        for c in X.all_cells()
    }


def as_edge_chain(sub: Subdivision, chain: EulerChain) -> dict[Cell, int]:
    """Rewrite segments as a chain on the subdivision's oriented edges."""
    out: dict[Cell, int] = {}
    for a, b, m in chain.segments:
        va, vb = sub.barycenter_of.get(a), sub.barycenter_of.get(b)
        if va is None or vb is None:
            raise ValueError(f"segment {a} -> {b} is not in this subdivision")
        edge = (va, vb) if va < vb else (vb, va)
        if edge not in sub.complex:
            raise ValueError(f"{a} -> {b} is not an edge of the subdivision")
        out[edge] = out.get(edge, 0) + (m if edge == (va, vb) else -m)
    return {e: v for e, v in out.items() if v}


def test_as_edge_chain_checks_membership():
    X = circle()
    sub = barycentric_subdivision(X)
    good = EulerChain.from_segments([((0,), (0, 1), 1)])
    # vertex barycenters come first, so (0,) -> 0 and (0,1) -> 3
    assert as_edge_chain(sub, good) == {(0, 3): 1}
    stranger = EulerChain.from_segments([((7,), (7, 8), 1)])
    with pytest.raises(ValueError):
        as_edge_chain(sub, stranger)


# --- homologous ---


@functools.lru_cache(maxsize=None)
def _subdivided(X):
    sub = barycentric_subdivision(X)
    return sub, chain_complex(sub.complex)


def homologous_on_subdivision(X, xi, eta):
    """Oracle: classify xi - eta as a 1-cycle of sd(X) itself."""
    sub, C = _subdivided(X)
    diff = as_edge_chain(sub, xi - eta)
    return not diff or cycle_class(C, 1, diff).is_trivial


def test_homologous_is_reflexive():
    X = circle()
    M = complete_matching(hasse(X))
    chain = euler_chain_from_matching(X, M)
    assert homologous(X, chain, chain)


def test_homologous_checks_cells_and_boundaries():
    X = circle()
    chain = euler_chain_from_matching(X, complete_matching(hasse(X)))
    loop = [((7,), (7, 8), 1), ((7, 8), (8,), 1), ((8,), (8, 9), 1),
            ((8, 9), (9,), 1), ((9,), (7, 9), 1), ((7, 9), (7,), 1)]
    stranger = EulerChain.from_segments(list(chain.segments) + loop)
    with pytest.raises(ValueError, match="not in the complex"):
        homologous(X, chain, stranger)
    with pytest.raises(ValueError, match="different boundaries"):
        homologous(X, chain, EulerChain.from_segments([((0,), (0, 1), 1)]))


def test_segments_inside_one_vertex_star_map_to_nothing():
    # every cell of this triangle walk has max vertex 2: the image vanishes
    X = SimplicialComplex.from_facets([(0, 1, 2)])
    walk = EulerChain.from_segments(
        [((2,), (1, 2), 1), ((1, 2), (0, 1, 2), 1), ((0, 1, 2), (2,), 1)]
    )
    assert homologous(X, walk, EulerChain.from_segments([]))


def test_the_two_circle_matchings_are_not_homologous():
    # their chains differ by the fundamental loop of the circle
    X = circle()
    M1 = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    M2 = Matching([((0,), (0, 2)), ((1,), (0, 1)), ((2,), (1, 2))])
    xi = euler_chain_from_matching(X, M1)
    eta = euler_chain_from_matching(X, M2)
    assert not homologous(X, xi, eta)


def test_homologous_on_the_three_sphere():
    # H_1 vanishes, so any two Euler chains there are homologous
    X = sphere(3)
    M1 = complete_matching(hasse(X))
    perm = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
    M2 = Matching(
        (tuple(sorted(perm[v] for v in lo)), tuple(sorted(perm[v] for v in hi)))
        for lo, hi in M1.pairs()
    )
    assert M1 != M2
    xi = euler_chain_from_matching(X, M1)
    eta = euler_chain_from_matching(X, M2)
    assert homologous(X, xi, eta)


def test_adding_an_essential_loop_breaks_homologous():
    X = torus()
    M = complete_matching(hasse(X))
    xi = euler_chain_from_matching(X, M)
    loop = []
    for i in range(7):
        u, v = (i,), ((i + 1) % 7,)
        e = tuple(sorted(u + v))
        loop.extend([(u, e, 1), (e, v, 1)])
    eta = EulerChain.from_segments(list(xi.segments) + loop)
    assert eta.boundary_on_cells() == xi.boundary_on_cells()
    assert not homologous(X, xi, eta)


# --- local rewiring ---


def test_reroute_converts_the_circle_collapse_into_a_complete_matching():
    X = circle()
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    out = reroute_along_vpath(M, (0, 2), ((0,), (1,), (2,)))
    assert out.pairs() == (((0,), (0, 2)), ((1,), (0, 1)), ((2,), (1, 2)))
    assert all(covers(out, c) for c in X.all_cells())
    euler_chain_from_matching(X, out)  # boundary identity holds


def test_reroute_validates_the_path():
    M = Matching([((0,), (0, 1)), ((1,), (1, 2))])
    with pytest.raises(ValueError):
        reroute_along_vpath(M, (0, 2), ())
    with pytest.raises(MatchingError):
        reroute_along_vpath(M, (0, 2), ((1,), (2,)))  # (1,) not a face of (0,2)
    with pytest.raises(MatchingError):
        reroute_along_vpath(M, (0, 2), ((0,), (2,)))  # not a V-path step
    with pytest.raises(MatchingError):
        reroute_along_vpath(M, (0, 2), ((2,), (0,)))  # (2,) unmatched mid-path
    full = Matching([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))])
    with pytest.raises(MatchingError):
        # tau is already matched, so the rewired pairs double-cover it
        reroute_along_vpath(full, (0, 2), ((0,), (1,)))


def test_cone_rewire_frees_the_cone_triangle():
    M = Matching([
        ((1, 2, 3), (0, 1, 2, 3)),
        ((1, 2), (0, 1, 2)),
        ((1,), (0, 1)),
    ])
    out = cone_rewire(M, 0, (1, 2, 3))
    assert set(out.pairs()) == {
        ((0,), (0, 1)),
        ((1,), (1, 2)),
        ((0, 1, 2), (0, 1, 2, 3)),
    }
    assert not covers(out, (1, 2, 3))  # the triangle is critical afterwards


def test_cone_rewire_validates_its_pattern():
    M = Matching([((1, 2, 3), (0, 1, 2, 3))])
    with pytest.raises(MatchingError):
        cone_rewire(M, 0, (1, 2, 3))  # pattern pairs missing
    with pytest.raises(ValueError):
        cone_rewire(M, 1, (1, 2, 3))  # apex inside the triangle
    with pytest.raises(ValueError):
        cone_rewire(M, 0, (1, 2))  # not a 2-cell


# --- homologous against the subdivision oracle ---

ORACLE_COMPLEXES = {
    "torus": corpus.torus(),
    "klein_bottle": corpus.klein_bottle(),  # H_1 = Z + Z/2
    "projective_plane": corpus.projective_plane(),  # H_1 = Z/2
    "sphere3": corpus.sphere(3),  # the boundary of the 4-simplex
    "sd_sphere2": barycentric_subdivision(corpus.sphere(2)).complex,
}


@functools.lru_cache(maxsize=None)
def _barycenter_graph(X):
    """Cells of X joined when one is a proper face of the other."""
    cells = list(X.all_cells())
    return cells, {
        c: [d for d in cells if d != c and (set(c) <= set(d) or set(d) <= set(c))]
        for c in cells
    }


@st.composite
def closed_walks(draw, X):
    """A closed barycenter walk with a multiplicity, as segments.

    A random walk on the barycenter graph is closed by the BFS-tree path
    from its end back to its start.
    """
    cells, nbrs = _barycenter_graph(X)
    start = draw(st.sampled_from(cells))
    walk = [start]
    for _ in range(draw(st.integers(2, 14))):
        walk.append(draw(st.sampled_from(nbrs[walk[-1]])))
    parent = {start: None}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for d in nbrs[c]:
            if d not in parent:
                parent[d] = c
                queue.append(d)
    c = walk[-1]
    while c != start:
        c = parent[c]
        walk.append(c)
    m = draw(st.sampled_from([1, 2, 3, -1]))
    return [(a, b, m) for a, b in zip(walk, walk[1:])]


@st.composite
def cycle_pairs(draw, complexes=ORACLE_COMPLEXES):
    name = draw(st.sampled_from(sorted(complexes)))
    X = complexes[name]
    xi = draw(st.lists(closed_walks(X), min_size=1, max_size=2))
    eta = draw(st.lists(closed_walks(X), max_size=2))
    return (
        X,
        EulerChain.from_segments(itertools.chain.from_iterable(xi)),
        EulerChain.from_segments(itertools.chain.from_iterable(eta)),
    )


@st.composite
def chain_pairs(draw):
    """Two chains on one complex, from raw segments; eta repeats some of
    xi's segments, with their own multiplicity or xi's, so that the
    difference merges, keeps and cancels pairs of cells."""
    X = ORACLE_COMPLEXES[draw(st.sampled_from(sorted(ORACLE_COMPLEXES)))]
    cells, nbrs = _barycenter_graph(X)
    segment = st.sampled_from(cells).flatmap(
        lambda a: st.tuples(st.just(a), st.sampled_from(nbrs[a]), st.integers(-3, 3))
    )
    xi = EulerChain.from_segments(draw(st.lists(segment, max_size=8)))
    shared = st.sampled_from(xi.segments).flatmap(
        lambda s: st.sampled_from([s, (s[1], s[0], s[2]), (*s[:2], s[2] + 1)])
    ) if xi.segments else st.nothing()
    eta = EulerChain.from_segments(draw(st.lists(segment | shared, max_size=8)))
    return xi, eta


@settings(max_examples=100)
@given(chain_pairs())
def test_subtraction_merges_as_from_segments_does(pair):
    xi, eta = pair
    want = EulerChain.from_segments(xi.segments + tuple((a, b, -m) for a, b, m in eta.segments))
    assert xi - eta == want


@settings(max_examples=50)
@given(cycle_pairs())
def test_homologous_agrees_with_the_subdivision_oracle(case):
    X, xi, eta = case
    assert homologous(X, xi, eta) == homologous_on_subdivision(X, xi, eta)


# --- homologous on the Morse complex against the whole d_2 of X ---


def loop_segments(walk):
    """A closed vertex walk as unit segments through its edges' barycenters."""
    segments = []
    for p, q in zip(walk, walk[1:]):
        e = tuple(sorted((p, q)))
        segments += [((p,), e, 1), (e, (q,), 1)]
    return segments


def subdivided_walk(sub: Subdivision, walk):
    """The same closed walk on sd: each edge p q runs through its barycenter."""
    b = sub.barycenter_of
    out = [b[(walk[0],)]]
    for p, q in zip(walk, walk[1:]):
        out += [b[tuple(sorted((p, q)))], b[(q,)]]
    return out


@settings(max_examples=100)
@given(cycle_pairs({
    **ORACLE_COMPLEXES,
    "sd_klein_bottle": barycentric_subdivision(corpus.klein_bottle()).complex,
}))
def test_homologous_agrees_with_the_whole_complex_oracle(case):
    X, xi, eta = case
    assert homologous(X, xi, eta) == homologous_on_complex(X, xi, eta)


@pytest.mark.parametrize("name", ["projective_plane", "klein_bottle"])
def test_triangle_loops_see_the_z2_torsion(name):
    # every 3-cycle of the 1-skeleton, once and twice: some is essential
    # while its double bounds, which only the Z/2 summand of H_1 allows
    X = getattr(corpus, name)()
    edges = set(X.cells(1))
    verdicts = set()
    for a, b, c in itertools.combinations(X.vertices(), 3):
        if {(a, b), (a, c), (b, c)} <= edges:
            once = EulerChain.from_segments(loop_segments((a, b, c, a)))
            twice = EulerChain.from_segments(2 * loop_segments((a, b, c, a)))
            nothing = EulerChain.from_segments([])
            got = (homologous(X, once, nothing), homologous(X, twice, nothing))
            assert got == (
                homologous_on_complex(X, once, nothing),
                homologous_on_complex(X, twice, nothing),
            )
            verdicts.add(got)
    assert (False, True) in verdicts and (True, True) in verdicts


def test_homologous_hands_one_column_per_critical_triangle(monkeypatch):
    # the seed-0 collapse of sd^2 torus leaves one critical triangle of 504
    torus1 = barycentric_subdivision(corpus.torus())
    torus2 = barycentric_subdivision(torus1.complex)
    X = torus2.complex
    H = X.index()
    v = _field(H, random_morse_matching(X, random.Random(0)))
    triangles = [c for c, t in zip(H.cells, v) if t == -1 and len(c) == 3]
    assert len(triangles) == 1 and len(X.cells(2)) == 504
    columns = []
    real = euler.in_column_span

    def spy(rows, n_cols, z):
        columns.append(n_cols)
        return real(rows, n_cols, z)

    monkeypatch.setattr(euler, "in_column_span", spy)
    xi = euler_chain_from_matching(X, complete_matching(H))
    # an empty image, from no difference or from a walk in one vertex star
    p, q, r = X.cells(2)[0]
    star = [((r,), (q, r), 1), ((q, r), (p, q, r), 1), ((p, q, r), (r,), 1)]
    assert homologous(X, xi, xi)
    assert homologous(X, xi, EulerChain.from_segments(list(xi.segments) + star))
    assert columns == []
    walk = subdivided_walk(torus2, subdivided_walk(torus1, [0, 1, 2, 3, 4, 5, 6, 0]))
    eta = EulerChain.from_segments(list(xi.segments) + loop_segments(walk))
    assert not homologous(X, xi, eta)
    assert columns == [1]


# --- one seeded reduction per complex ---


def triangle_loop_chains(name: str, subdivided: bool):
    """A fresh complex and chains on it: every 3-cycle of the named
    surface's 1-skeleton, once and twice, run through sd when subdivided,
    so some bound, some do not, and on the Klein bottle some only twice."""
    X = getattr(corpus, name)()
    edges = set(X.cells(1))
    walks = [
        (a, b, c, a)
        for a, b, c in itertools.combinations(X.vertices(), 3)
        if {(a, b), (a, c), (b, c)} <= edges
    ]
    if subdivided:
        sub = barycentric_subdivision(X)
        X, walks = sub.complex, [subdivided_walk(sub, w) for w in walks]
    chains = [EulerChain.from_segments(k * loop_segments(w)) for w in walks for k in (1, 2)]
    return X, chains


def alternating_cases(X, chains):
    """(xi, eta, verdict) against the whole-complex oracle, True and False
    verdicts taken in turn, with at least three of each."""
    nothing = EulerChain.from_segments([])
    cases = [(xi, nothing) for xi in chains] + list(zip(chains, chains[3:]))
    verdicts = [homologous_on_complex(X, xi, eta) for xi, eta in cases]
    trues = [(*c, True) for c, v in zip(cases, verdicts) if v]
    falses = [(*c, False) for c, v in zip(cases, verdicts) if not v]
    assert len(trues) >= 3 and len(falses) >= 3
    return [case for pair in zip(falses, trues) for case in pair]


@pytest.mark.parametrize(
    "name, subdivided", [("torus", False), ("klein_bottle", False), ("torus", True)],
    ids=["torus", "klein_bottle", "sd_torus"],
)
def test_repeated_comparisons_on_one_complex_match_the_oracle(name, subdivided):
    # the Morse d_2 kept after the first call must serve every later one
    X, chains = triangle_loop_chains(name, subdivided)
    cases = alternating_cases(X, chains)
    for _ in range(2):
        for xi, eta, want in cases:
            assert homologous(X, xi, eta) == want


def test_each_complex_makes_its_own_seeded_reduction(monkeypatch):
    made = []
    real = morse.random_morse_matching

    def spy(X, rng):
        made.append(X)
        return real(X, rng)

    monkeypatch.setattr(morse, "random_morse_matching", spy)
    (torus, torus_chains), (again, again_chains), (klein, klein_chains) = (
        triangle_loop_chains("torus", False),
        triangle_loop_chains("torus", False),
        triangle_loop_chains("klein_bottle", False),
    )
    assert torus == again and torus is not again
    runs = [
        (X, alternating_cases(X, chains))
        for X, chains in [(torus, torus_chains), (klein, klein_chains), (again, again_chains)]
    ]
    # one case of each complex in turn, so the comparisons interleave
    for cases in itertools.zip_longest(*(cases for _, cases in runs)):
        for (X, _), case in zip(runs, cases):
            if case is not None:
                xi, eta, want = case
                assert homologous(X, xi, eta) == want
    assert str(simplicial_homology(torus)) == "H_0 = Z, H_1 = Z^2, H_2 = Z"
    assert str(simplicial_homology(klein)) == "H_0 = Z, H_1 = Z + Z/2, H_2 = 0"
    assert [id(X) for X in made] == [id(torus), id(klein), id(again)]


# --- the boundary identity on random complete matchings ---


@settings(max_examples=60)
@given(euler_zero_complexes)
def test_euler_chain_boundary_identity_on_random_complete_matchings(X):
    """d xi = sum (-1)^dim(sigma) b_sigma, computed on the subdivision's own
    edges, for the complete matching of a random complex with chi = 0."""
    assert X.euler_characteristic() == 0
    M = complete_matching(hasse(X))
    assume(M is not None)
    xi = euler_chain_from_matching(X, M)
    sub = barycentric_subdivision(X)
    want = {sub.barycenter_of[c]: (-1) ** (len(c) - 1) for c in X.all_cells()}
    assert boundary_zero_chain(sub, xi) == want
    d: dict = {}
    for (a, b), m in as_edge_chain(sub, xi).items():  # d[a, b] = b - a
        d[b] = d.get(b, 0) + m
        d[a] = d.get(a, 0) - m
    assert {v: m for v, m in d.items() if m} == want
