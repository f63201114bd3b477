"""Bundled example complexes.

Simplices and their boundaries up to dimension 4, three small closed
surfaces, and two staircase products. Each complex is also shipped as a
facet file under ``data/`` and can be loaded back from there; the three
surfaces exist only as those files.
"""

from __future__ import annotations

import itertools
from importlib import resources

from .complexes import SimplicialComplex, product_triangulation
from .io import parse_complex


def simplex(n: int) -> SimplicialComplex:
    """The full n-simplex on vertices 0..n."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return SimplicialComplex.from_facets([tuple(range(n + 1))])


def sphere(n: int) -> SimplicialComplex:
    """The boundary of the (n+1)-simplex, a triangulated n-sphere."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return SimplicialComplex.from_facets(
        itertools.combinations(range(n + 2), n + 1)
    )


def torus() -> SimplicialComplex:
    """The 7-vertex torus, triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return load("torus")


def projective_plane() -> SimplicialComplex:
    """The 6-vertex projective plane."""
    return load("projective_plane")


def klein_bottle() -> SimplicialComplex:
    """An 8-vertex Klein bottle, H_1 = Z + Z/2."""
    return load("klein_bottle")


_BUILDERS = {
    "delta0": lambda: simplex(0),
    "delta1": lambda: simplex(1),
    "delta2": lambda: simplex(2),
    "delta3": lambda: simplex(3),
    "delta4": lambda: simplex(4),
    "sphere0": lambda: sphere(0),
    "sphere1": lambda: sphere(1),
    "sphere2": lambda: sphere(2),
    "sphere3": lambda: sphere(3),
    "torus": torus,
    "projective_plane": projective_plane,
    "klein_bottle": klein_bottle,
    "square": lambda: product_triangulation(1, 1),
    "prism": lambda: product_triangulation(2, 1),
}


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def build(name: str) -> SimplicialComplex:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown corpus complex {name!r}") from None


def data_text(name: str) -> str:
    """The packaged facet file for a corpus complex."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown corpus complex {name!r}")
    return (
        resources.files("discmorse").joinpath(f"data/{name}.facets").read_text()
    )


def load(name: str) -> SimplicialComplex:
    """Parse the packaged facet file; equals build(name)."""
    return parse_complex(data_text(name))[0]
