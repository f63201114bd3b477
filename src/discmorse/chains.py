"""Free integer chain complexes with ordered, labeled bases."""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .complexes import Orientation, SimplicialComplex, _check_orientation

Label = Hashable
Column = dict[Label, int]


def _add_scaled(target: dict, source: dict, c: int) -> None:
    """target += c * source for c != 0, on dicts that store no zeros: an
    entry that cancels is deleted, and new entries follow source's order."""
    for key, v in source.items():
        w = target.get(key, 0) + c * v
        if w:
            target[key] = w
        else:
            del target[key]


class ChainComplex:
    """A finitely generated free chain complex over the integers.

    ``bases[k]`` lists labels of the degree-k generators for every k from 0
    to the top degree (empty degrees allowed). ``boundaries[k]`` maps
    degree-k labels to sparse columns ``{degree-(k-1) label: coefficient}``;
    missing columns and entries are zero. Construction checks labels and
    that consecutive boundaries compose to zero.
    """

    def __init__(
        self,
        bases: Mapping[int, Iterable[Label]],
        boundaries: Mapping[int, Mapping[Label, Mapping[Label, int]]],
    ):
        if not bases:
            raise ValueError("a chain complex needs at least degree 0")
        top = max(bases)
        if sorted(bases) != list(range(top + 1)):
            raise ValueError("bases must cover every degree from 0 to the top")
        if not set(boundaries) <= set(range(1, top + 1)):
            raise ValueError("boundaries must lie in degrees 1 to the top")
        self._bases: dict[int, dict[Label, int]] = {}  # label -> position
        for k in range(top + 1):
            labels = tuple(bases[k])
            self._bases[k] = {lab: i for i, lab in enumerate(labels)}
            if len(self._bases[k]) != len(labels):
                raise ValueError(f"duplicate labels in degree {k}")
        self._columns: dict[int, dict[Label, Column]] = {k: {} for k in range(1, top + 1)}
        for k, columns in boundaries.items():
            for tau, col in columns.items():
                col = {sigma: v for sigma, v in col.items() if v}
                if tau not in self._bases[k] or not col.keys() <= self._bases[k - 1].keys():
                    raise ValueError(f"boundary of {tau!r} leaves degrees {k} and {k - 1}")
                if col:
                    self._columns[k][tau] = col
        for k in range(2, top + 1):
            below = self._columns[k - 1]
            for tau, col in self._columns[k].items():
                acc: Column = {}
                for sigma, v in col.items():
                    _add_scaled(acc, below.get(sigma, {}), v)
                if acc:
                    raise ValueError(
                        f"d o d != 0 between degrees {k} and {k - 2} (at {tau!r})"
                    )

    @classmethod
    def _trusted(cls, bases: dict, columns: dict) -> "ChainComplex":
        """Wrap parts that pass every constructor check, without copying them."""
        C = cls.__new__(cls)
        C._bases, C._columns = bases, columns
        return C

    @property
    def top_dim(self) -> int:
        return max(self._bases)

    def basis(self, k: int) -> tuple[Label, ...]:
        return tuple(self._bases.get(k, ()))

    def size(self, k: int) -> int:
        return len(self._bases.get(k, ()))

    def column(self, k: int, label: Label) -> Column:
        """A copy of the boundary of a degree-k generator; empty when zero."""
        if label not in self._bases.get(k, {}):
            raise ValueError(f"{label!r} is not a degree-{k} generator")
        return dict(self._columns.get(k, {}).get(label, {}))

    def euler_characteristic(self) -> int:
        return sum(
            (len(b) if k % 2 == 0 else -len(b)) for k, b in self._bases.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self._bases == other._bases and self._columns == other._columns

    __hash__ = None  # mutable-by-convention columns; identity hash unwanted

    def __repr__(self) -> str:
        sizes = ",".join(str(len(self._bases[k])) for k in sorted(self._bases))
        return f"{type(self).__name__}(sizes=({sizes}))"


def chain_complex(
    X: SimplicialComplex, orientation: Orientation | None = None
) -> ChainComplex:
    """The simplicial chain complex of X with lexicographic cell bases. The
    faces come from ``X.index()``, face position j with the sign (-1)**j
    times any flips, so the boundaries square to zero and skip the checks.
    Raises ValueError unless the orientation maps cells of X to +1 or -1."""
    _check_orientation(X, orientation)
    o = orientation or {}
    cells, _, faces, _ = X.index()
    bases = {k: {c: i for i, c in enumerate(X.cells(k))} for k in range(X.dim + 1)}
    columns: dict[int, dict[Label, Column]] = {k: {} for k in range(1, X.dim + 1)}
    for tau, fs in zip(cells, faces):  # (dimension, lexicographic) order
        if fs:
            sign = o.get(tau, 1)
            columns[len(fs) - 1][tau] = {
                cells[f]: sign * o.get(cells[f], 1) * (-1 if j % 2 else 1)
                for j, f in enumerate(fs)
            }
    return ChainComplex._trusted(bases, columns)
