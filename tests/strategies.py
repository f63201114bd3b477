"""Hypothesis strategies shared by the test modules."""

import itertools
import random

from hypothesis import strategies as st

from discmorse.complexes import SimplicialComplex
from discmorse.matchings import Matching
from oracles import random_matching

# complexes with facets on at most 7 vertices and of dimension at most 3
small_complexes = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=6
).map(SimplicialComplex.from_facets)


@st.composite
def small_matrices(draw):
    """An integer matrix with 1 to 5 rows and 0 to 4 columns, entries in
    -4..4, as (rows, number of columns)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m)), n


@st.composite
def tetrahedra_rings(draw):
    """A small complex with a ring of 3 to 5 tetrahedra (0, 1, r_i, r_i+1)
    glued on around the edge (0, 1), and a random matching that pairs each
    ring triangle (0, 1, r_i) with the next tetrahedron of the ring in one
    direction. That is a closed V-path among triangles and tetrahedra,
    unless one of those pairs was left out; random_matching alone almost
    never makes one."""
    n = draw(st.integers(3, 5))
    ring = [(0, 1, 7 + i) for i in range(n)]  # beyond small_complexes' 0..6
    tets = [tuple(sorted(ring[i] + (7 + (i + 1) % n,))) for i in range(n)]
    X = SimplicialComplex.from_facets(tets + list(draw(small_complexes).facets()))
    step = draw(st.sampled_from((0, 1)))  # pair ring[i] with tets[i] or tets[i - 1]
    planted = [(ring[i], tets[i - step]) for i in range(n)]
    if draw(st.booleans()):
        del planted[draw(st.integers(0, n - 1))]
    used = {c for pair in planted for c in pair}
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rest = random_matching(X, rng, density=draw(st.sampled_from((0.4, 0.7, 1.0))))
    return X, Matching(planted + [p for p in rest.pairs() if used.isdisjoint(p)])


def _euler_zero(X: SimplicialComplex) -> SimplicialComplex:
    """X made connected with Euler characteristic 0.

    Each edge joining two components lowers the Euler characteristic by
    one; then circles (3 edges on 2 new vertices, -1 each) or boundaries of
    tetrahedra (+1 each) are wedged on at the first vertex.
    """
    root = {v: v for v in X.vertices()}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in X.cells(1):
        root[find(a)] = find(b)
    tops = sorted({find(v) for v in X.vertices()})
    base, new = tops[0], max(X.vertices()) + 1
    facets = list(X.facets()) + [(base, t) for t in tops[1:]]
    chi = X.euler_characteristic() - (len(tops) - 1)
    for _ in range(chi):
        facets += [(base, new), (new, new + 1), (base, new + 1)]
        new += 2
    for _ in range(-chi):
        facets += itertools.combinations((base, new, new + 1, new + 2), 3)
        new += 3
    return SimplicialComplex.from_facets(facets)


# connected complexes of Euler characteristic 0, built from small_complexes
euler_zero_complexes = small_complexes.map(_euler_zero)
