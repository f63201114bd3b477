"""Finite abstract simplicial complexes with oriented integer incidence.

Cells are tuples of strictly increasing non-negative vertex ids. The
canonical orientation of a cell is its increasing vertex order; dropping
the i-th vertex carries the sign (-1)**i. Alternative orientations are
plain ``cell -> -1`` tables produced by :func:`reorient` in
:mod:`discmorse.morse` and accepted by everything that takes an
``orientation`` argument.

A complex stores its cells once, numbered by (dimension, lexicographic)
rank. Every constructor hands its cells over one dimension at a time and
each dimension is sorted once. Its cell index and barycentric subdivision
use those ids; the index builds faces and cofaces on first use, an edge's
faces from its vertex labels and the cofaces one dimension at a time.
Beside the index a complex keeps one more thing made on first use: its
seeded reduction, the seed-0 collapse that ``simplicial_homology`` and
``homologous`` read (see :func:`discmorse.morse._seeded`).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ParseError

Cell = tuple[int, ...]
Orientation = Mapping[Cell, int]


def _check_orientation(X: SimplicialComplex, orientation: Orientation | None) -> None:
    """Raise ValueError unless the table maps cells of X to +1 or -1."""
    for cell, sign in (orientation or {}).items():
        if cell not in X:
            raise ValueError(f"orientation names {cell}, which is not a cell of X")
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"orientation of {cell} is {sign!r}, not +1 or -1")


# Upper bound on the faces from_facets may expand, counted with repeats,
# and on the cells of a barycentric subdivision. One 22-vertex facet
# exceeds it; the 69,120 facets of sd^3 of the 3-sphere count 1,036,800,
# the 2,880 of sd^2 count 43,200. sd^2 of the 3-sphere has 12,600 cells,
# sd of an 11-vertex facet would have 3,245,265,145.
MAX_FACET_CELLS = 1 << 21


_PLAIN_INT = frozenset({int})


def as_cell(vertices: Iterable[int]) -> Cell:
    """Canonicalize a vertex collection into a cell (sorted, distinct)."""
    labels = tuple(vertices)  # an iterator is read once
    try:
        vs = tuple(sorted(labels))
    except TypeError:  # labels that do not compare: the checks name the first bad one
        vs = labels
    if vs and set(map(type, vs)) == _PLAIN_INT and vs[0] >= 0 and len(set(vs)) == len(vs):
        return vs  # distinct non-negative plain ints: the common case
    if not vs:
        raise ValueError("a cell needs at least one vertex")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"vertex labels must be integers, got {v!r}")
        if v < 0:
            raise ValueError(f"vertex labels must be non-negative, got {v}")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in cell {vs}")
    return vs


def hyperfaces(cell: Cell) -> list[Cell]:
    """Codimension-1 faces, in the order induced by dropped-vertex index."""
    if len(cell) == 1:
        return []
    faces = list(itertools.combinations(cell, len(cell) - 1))  # drops the last first
    faces.reverse()
    return faces


class CellIndex(NamedTuple):
    """Cells numbered by (dimension, lexicographic) rank, as in all_cells().
    ``faces[i]`` lists the hyperface ids of cell i in :func:`hyperfaces`
    order, so position j carries the incidence sign (-1)**j before any
    orientation flips; ``cofaces[i]`` lists the ids of its cofaces, ascending."""

    cells: tuple[Cell, ...]
    id_of: dict[Cell, int]
    faces: tuple[tuple[int, ...], ...]
    cofaces: tuple[tuple[int, ...], ...]


class SimplicialComplex:
    """An immutable finite simplicial complex, closed under taking faces.

    Its one store: the cells in (dimension, lexicographic) order, their ids
    and the id where each dimension starts. ``index()`` shares the first two
    and builds faces and cofaces on first use. The seeded reduction, made on
    first use by ``discmorse.morse._seeded``, holds the seed-0 collapse's
    field and Morse verdict on that index and, once an Euler comparison has
    run, the Morse d_2. Equality and hashing see the cells only."""

    __slots__ = ("_cells", "_id_of", "_starts", "_index", "_seeded")

    def __init__(self, cells: Iterable[Iterable[int]]):
        canon = {as_cell(c) for c in cells}
        if not canon:
            raise ValueError("a complex needs at least one cell")
        layers: list[list[Cell]] = [[] for _ in range(max(map(len, canon)))]
        for c in canon:
            for f in hyperfaces(c):
                if f not in canon:
                    raise ValueError(f"not closed under faces: {c} present, {f} missing")
            layers[len(c) - 1].append(c)
        self._number(layers)

    def _number(self, layers: Iterable[Iterable[Cell]]) -> None:
        """Number distinct canonical cells already closed under faces, given
        one dimension at a time: layers[k] holds the k-cells, unsorted."""
        ordered: list[Cell] = []
        starts = [0]
        for layer in layers:
            ordered += sorted(layer)
            starts.append(len(ordered))
        self._cells = cells = tuple(ordered)
        self._id_of = dict(zip(cells, range(len(cells))))
        # _starts[k] is the id of the first k-cell, _starts[dim + 1] the count
        self._starts = tuple(starts)
        self._index: CellIndex | None = None
        self._seeded = None  # a morse._Seeded once made

    @classmethod
    def _closure(cls, facets: list[Cell]) -> "SimplicialComplex":
        """The closure of canonical facets under taking faces.

        The facets must be canonical cells, as :func:`as_cell` returns
        them; nothing checks that here. When they would expand to more
        than MAX_FACET_CELLS faces (counted with repeats), ParseError is
        raised before any face is built. Each dimension is one set, closed
        from the hyperfaces of the dimension above and sorted once.
        """
        if sum((1 << len(c)) - 1 for c in facets) > MAX_FACET_CELLS:
            raise ParseError(f"facets expand to more than {MAX_FACET_CELLS} cells")
        if not facets:
            raise ValueError("at least one facet is required")
        layers: list[set[Cell]] = [set() for _ in range(max(map(len, facets)))]
        for c in facets:
            layers[len(c) - 1].add(c)
        for k in range(len(layers) - 1, 0, -1):
            # the hyperfaces of canonical k-cells are canonical (k-1)-cells
            faces = map(itertools.combinations, layers[k], itertools.repeat(k))
            layers[k - 1].update(itertools.chain.from_iterable(faces))
        X = cls.__new__(cls)
        X._number(layers)
        return X

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build the closure of the given facets under taking faces.

        Each facet is checked and canonicalized by :func:`as_cell`. A
        k-vertex facet has 2**k - 1 faces. When the facets together
        would expand to more than MAX_FACET_CELLS faces (counted with
        repeats), ParseError is raised before any face is built. The
        closure is built and numbered one dimension at a time.
        """
        return cls._closure([as_cell(f) for f in facets])

    @property
    def dim(self) -> int:
        return len(self._starts) - 2

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def cells(self, k: int) -> tuple[Cell, ...]:
        """The k-cells in lexicographic order (empty tuple if none)."""
        s = self._starts
        return self._cells[s[k]:s[k + 1]] if 0 <= k < len(s) - 1 else ()

    def all_cells(self) -> Iterator[Cell]:
        """All cells, dimension ascending, lexicographic within a dimension."""
        return iter(self._cells)

    def index(self) -> CellIndex:
        """The cell index, built on first use and kept (X is immutable)."""
        if self._index is None:
            cells, id_of, s = self._cells, self._id_of, self._starts
            n0, n1 = s[1], s[min(2, len(s) - 1)]  # the vertices, then the edges end
            # an edge's faces by vertex label, higher cells' by their tuples;
            # combinations drop the last vertex first: reversed, hyperfaces order
            ids = list(id_of.values())  # the dict's own ints, shared by faces and cofaces
            vertex_id = dict(zip([c[0] for c in cells[:n0]], ids))
            faces = (
                ((),) * n0
                + tuple((vertex_id[b], vertex_id[a]) for a, b in cells[n0:n1])
                + tuple(
                    tuple(map(id_of.__getitem__, itertools.combinations(c, len(c) - 1)))[::-1]
                    for c in cells[n1:]
                )
            )
            # one dimension at a time, each list replaced by its tuple as it
            # is made: no dimension's lists live beside many tuples
            cofaces: list[tuple[int, ...]] = []
            for lo, hi, top in zip(s, s[1:], s[2:] + s[-1:]):
                up: list = [[] for _ in range(hi - lo)]
                for i, fs in zip(ids[hi:top], faces[hi:top]):
                    for f in fs:
                        up[f - lo].append(i)
                for j, coface_ids in enumerate(up):
                    up[j] = tuple(coface_ids)
                cofaces += up
            self._index = CellIndex(cells, id_of, faces, tuple(cofaces))
        return self._index

    def vertices(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cells(0))

    def facets(self) -> tuple[Cell, ...]:
        """Maximal cells. ``from_facets(X.facets())`` reproduces X."""
        covered: set[Cell] = set()
        for c in self._cells:
            covered.update(itertools.combinations(c, len(c) - 1))
        return tuple(c for c in self._cells if c not in covered)

    def euler_characteristic(self) -> int:
        s = self._starts
        return sum((-1) ** k * (s[k + 1] - s[k]) for k in range(self.dim + 1))

    def contains_complex(self, other: "SimplicialComplex") -> bool:
        return all(map(self._id_of.__contains__, other._cells))

    def __contains__(self, cell: object) -> bool:
        return cell in self._id_of

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        return hash(frozenset(self._cells))

    def __repr__(self) -> str:
        sizes = ",".join(str(b - a) for a, b in itertools.pairwise(self._starts))
        return f"SimplicialComplex(dim={self.dim}, cells=({sizes}))"


class Subdivision(NamedTuple):
    """A barycentric subdivision together with the barycenter dictionary."""

    complex: SimplicialComplex
    barycenter_of: dict[Cell, int]  # original cell -> subdivision vertex
    cell_of: dict[int, Cell]        # inverse of barycenter_of


def barycentric_subdivision(X: SimplicialComplex) -> Subdivision:
    """First barycentric subdivision.

    Vertices of the result are barycenters, one per cell of X, numbered by
    (dimension, lexicographic) rank so that every chain of faces maps to an
    increasing vertex tuple. Cells of the result are the chains
    sigma_0 < sigma_1 < ... of the face poset of X. When there would be
    more than MAX_FACET_CELLS of them, ParseError is raised before any is
    built.
    """
    # a k-cell ends a(k) = 1 + sum_{j<k} C(k+1, j+1) a(j) chains of faces
    a: list[int] = []
    for k in range(X.dim + 1):
        a.append(1 + sum(math.comb(k + 1, j + 1) * a[j] for j in range(k)))
    if sum(len(X.cells(k)) * a[k] for k in range(X.dim + 1)) > MAX_FACET_CELLS:
        raise ParseError(f"subdivision has more than {MAX_FACET_CELLS} cells")
    cells, id_of, starts = X._cells, X._id_of, X._starts
    # ends[i][j]: the chains of j + 1 cells whose top is cell i; such a chain
    # extends a chain of j cells whose top is a face of i of at least j vertices
    ends: list[list[list[Cell]]] = []
    for i, c in enumerate(cells):  # faces come first, with smaller ids
        ends.append([[(i,)]] + [
            [ch + (i,) for r in range(j, len(c)) for f in itertools.combinations(c, r)
             for ch in ends[id_of[f]][j - 1]]
            for j in range(1, len(c))
        ])
    # chains are distinct increasing vertex tuples, and every sub-chain of a
    # chain is a chain: the constructor's checks would pass on every cell.
    # The cells from starts[j] on have at least j + 1 vertices.
    sd = SimplicialComplex.__new__(SimplicialComplex)
    sd._number(
        itertools.chain.from_iterable(map(operator.itemgetter(j), ends[starts[j]:]))
        for j in range(X.dim + 1)
    )
    return Subdivision(sd, dict(id_of), dict(enumerate(cells)))


def product_triangulation(m: int, n: int) -> SimplicialComplex:
    """The staircase triangulation of (m-simplex) x (n-simplex).

    Grid vertex (i, j) gets id i*(n+1) + j; the top cells are the monotone
    lattice paths from (0, 0) to (m, n), so there are C(m+n, m) of them,
    each an (m+n)-simplex. Refused like from_facets, before enumerating.
    """
    if m < 0 or n < 0:
        raise ValueError("simplex dimensions must be non-negative")
    # a facet of more than 21 vertices alone is over budget; test that first
    if m + n + 1 > 21 or math.comb(m + n, m) * ((1 << (m + n + 1)) - 1) > MAX_FACET_CELLS:
        raise ParseError(f"facets expand to more than {MAX_FACET_CELLS} cells")
    facets = []
    for rights in itertools.combinations(range(m + n), m):
        right_steps = set(rights)
        i = j = 0
        verts = [0]
        for step in range(m + n):
            if step in right_steps:
                i += 1
            else:
                j += 1
            verts.append(i * (n + 1) + j)
        facets.append(tuple(verts))
    return SimplicialComplex.from_facets(facets)
