"""Frozen answers of the seeded and deterministic matching algorithms.

Collapses, greedy matchings, closed V-path witnesses, complete matchings
and oriented Thom-Smale complexes must stay byte-identical under any
rewrite of their internals, including the order in which candidates are
drawn. Each value is pinned as the first 16 hex digits of the sha256 of
its ``repr``, so column order inside the Thom-Smale complex counts too.
"""

import hashlib
import random

import pytest

from discmorse import corpus
from discmorse.complexes import SimplicialComplex, barycentric_subdivision
from discmorse.euler import complete_matching
from discmorse.matchings import (
    closed_vpath,
    find_collapse,
    greedy_morse_matching,
    hasse,
    random_morse_matching,
)
from discmorse.morse import reorient, thom_smale_complex
from oracles import dense_boundary, random_matching


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """K joined with two new vertices, one dimension up."""
    n = max(K.cells(0))[0] + 1
    return SimplicialComplex.from_facets([f + (a,) for f in K.facets() for a in (n, n + 1)])


COMPLEXES = {
    "torus": corpus.torus,
    "rp2": corpus.projective_plane,
    "sd_s2": lambda: barycentric_subdivision(corpus.sphere(2)).complex,
    # H_2 = Z + Z/2: the greedy matching's degree-3 column has two entries
    "susp_klein": lambda: suspension(corpus.klein_bottle()),
}

RANDOM_PAIRS = {
    "torus": ["fffe41af92c95c6b", "e112fd7f0c9a8b0d", "1b0d3b98596a3c21",
              "8eeb76ac129c842b", "db16ed2eefc521b0"],
    "rp2": ["ea67230f88f28067", "45eeeb822e07ef95", "0eab49557f5d4c3b",
            "7aaf82063a00f872", "ed7e4d873fe8510c"],
    "sd_s2": ["0b32e8bc452d0661", "8a56ec7d94750337", "fc0fda80f32fa7ab",
              "aba8358fdde59bfb", "2bc53d95d35b643d"],
    "susp_klein": ["62c2615d79626c32", "67c91b0c6dd66eaf", "eefe56a8685f54c9",
                   "eeea6d374e3cfacd", "b5f9856eb9335e84"],
}

GREEDY_PAIRS = {
    "torus": "f7bf3b507468c0db",
    "rp2": "c25ee02ca25ceca3",
    "sd_s2": "46ceaeabeea02891",
    "susp_klein": "4e6ed45a16eca1df",
}

# (random collapse seed 0, greedy), each as (dense bases and boundaries,
# sparse columns in storage order)
ORIENTED_THOM_SMALE = {
    "torus": [("24cc85ee18cc922d", "2a7bed90f4821577"),
              ("e1190af7508cc5dd", "d5a1ac6207716cfe")],
    "sd_s2": [("593d0bb981cd91a4", "4b2c13f51abeb6c1"),
              ("db55102c1b0e5bc1", "f0ec947575979e2d")],
    "susp_klein": [("e920859243854cf1", "33a41e0d8a78dfcc"),
                   ("32b48b1a50e1b583", "b56b796169ad32ae")],
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_seeded_collapses_are_pinned(name):
    X = COMPLEXES[name]()
    got = [digest(random_morse_matching(X, random.Random(s)).pairs()) for s in range(5)]
    assert got == RANDOM_PAIRS[name]


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_greedy_matchings_are_pinned(name):
    assert digest(greedy_morse_matching(COMPLEXES[name]()).pairs()) == GREEDY_PAIRS[name]


def test_closed_vpath_witnesses_are_pinned():
    X = corpus.torus()
    witnesses = [closed_vpath(hasse(X), random_matching(X, random.Random(s))) for s in range(40)]
    assert sum(w is not None for w in witnesses) == 33
    assert witnesses[:3] == [
        ((0,), (2,), (5,), (4,), (0,)),
        ((0,), (6,), (1,), (5,), (0,)),
        ((0,), (1,), (4,), (3,), (6,), (5,), (0,)),
    ]
    assert digest(witnesses) == "eceb037567d88bda"


@pytest.mark.parametrize("name", sorted(ORIENTED_THOM_SMALE))
def test_oriented_thom_smale_complexes_are_pinned(name):
    X = COMPLEXES[name]()
    orientation = reorient(X, list(X.all_cells())[::3])
    got = []
    for M in (random_morse_matching(X, random.Random(0)), greedy_morse_matching(X)):
        T = thom_smale_complex(X, M, orientation)
        dense = [(T.basis(k), dense_boundary(T, k)) for k in range(T.top_dim + 1)]
        columns = [
            (k, tau, T.column(k, tau))
            for k in range(1, T.top_dim + 1)
            for tau in T.basis(k)
        ]
        got.append((digest(dense), digest(columns)))
    assert got == ORIENTED_THOM_SMALE[name]


def test_find_collapse_and_complete_matchings_are_pinned():
    sd3 = barycentric_subdivision(corpus.simplex(3)).complex
    assert digest(find_collapse(sd3, SimplicialComplex([(0,)])).pairs()) == "df60b76706fad275"
    assert digest(complete_matching(hasse(corpus.torus())).pairs()) == "7a5796f2d08b49f8"
    assert digest(complete_matching(hasse(corpus.sphere(3))).pairs()) == "dd1453656d8171bb"
