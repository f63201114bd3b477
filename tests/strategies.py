"""Hypothesis strategies shared by the test modules."""

import itertools

from hypothesis import strategies as st

from discmorse.complexes import SimplicialComplex

# complexes with facets on at most 7 vertices and of dimension at most 3
small_complexes = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=6
).map(SimplicialComplex.from_facets)


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
