"""Integer Smith normal form, homology, and cycle classification.

All arithmetic is exact over arbitrary-precision integers. The Smith
routine picks the nonzero entry of minimal absolute value as pivot to
curb coefficient growth and can track the unimodular row and column
transforms together with their inverses, which is what cycle
classification needs. Every step is an elementary operation: a swap, a
negation, or adding a multiple of one row or column to another, where an
added column is nonzero on its diagonal alone and so touches one row.
Columns keep their keys and a swap permutes their positions alone, so
it touches no row. The transforms are sparse like the matrix, each
stored so that every operation it mirrors is a row operation on it: U by
rows and U^-1 by columns, V by columns and V^-1 by rows on column keys.
Dense transforms are built only for ``smith_normal_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .chains import ChainComplex, Label, Matrix, _add_scaled


class _SmithWorker:
    """Row-sparse elimination of owned row dicts, which never store zeros,
    with optional transforms stored the same way. The rows keep the column
    keys they came with: ``col`` maps positions to keys and ``pos`` keys to
    positions, so a column swap moves two entries of each and no row.
    ``U`` holds the rows of U and ``U_inv`` the columns of U^-1, both
    indexed like the rows, so a row swap or negation acts on one index of
    all three. ``V`` holds the columns of V and ``V_inv`` the rows of V^-1,
    both on column keys, untouched by a column swap. Column src of
    ``col_add`` is nonzero in row src alone: the row pass has cleared it
    below the pivot (rows above are diagonal), or the matrix is diagonal."""

    def __init__(self, rows: list[dict[int, int]], n_cols: int, transforms: bool):
        self.m = len(rows)
        self.n = n_cols
        self.rows = rows
        self.col = list(range(n_cols))
        self.pos = list(range(n_cols))
        self.track = transforms
        self.U = self.U_inv = self.V = self.V_inv = None
        if transforms:
            self.U = [{i: 1} for i in range(self.m)]
            self.U_inv = [{i: 1} for i in range(self.m)]
            self.V = [{k: 1} for k in range(self.n)]
            self.V_inv = [{k: 1} for k in range(self.n)]

    def _diag(self, t: int) -> int:
        return self.rows[t][self.col[t]]

    # --- elementary operations; all but the column swap mirrored on the transforms ---

    def _row_indexed(self) -> tuple[list[dict[int, int]], ...]:
        return (self.rows, self.U, self.U_inv) if self.track else (self.rows,)

    def row_swap(self, i1: int, i2: int) -> None:
        if i1 == i2:
            return
        for store in self._row_indexed():
            store[i1], store[i2] = store[i2], store[i1]

    def col_swap(self, j1: int, j2: int) -> None:
        col, pos = self.col, self.pos
        col[j1], col[j2] = col[j2], col[j1]
        pos[col[j1]], pos[col[j2]] = j1, j2

    def row_neg(self, i: int) -> None:
        for store in self._row_indexed():
            store[i] = {j: -v for j, v in store[i].items()}

    def row_add(self, dst: int, src: int, c: int) -> None:
        """Row dst += c * row src."""
        if not c:
            return
        _add_scaled(self.rows[dst], self.rows[src], c)
        if self.track:
            _add_scaled(self.U[dst], self.U[src], c)
            _add_scaled(self.U_inv[src], self.U_inv[dst], -c)

    def col_add(self, dst: int, src: int, c: int) -> None:
        """Column dst += c * column src, which is nonzero in row src alone."""
        if not c:
            return
        kd, ks = self.col[dst], self.col[src]
        row = self.rows[src]
        w = row.get(kd, 0) + c * row[ks]
        if w:
            row[kd] = w
        else:
            row.pop(kd, None)
        if self.track:
            _add_scaled(self.V[kd], self.V[ks], c)
            _add_scaled(self.V_inv[ks], self.V_inv[kd], -c)

    # --- the reduction itself ---

    def _find_pivot(self, t: int) -> tuple[int, int] | None:
        best: tuple[int, int, int] | None = None  # (|v|, i, j)
        pos = self.pos
        for i in range(t, self.m):
            row = self.rows[i]
            if not row:
                continue
            a, j = min((abs(v), pos[k]) for k, v in row.items())
            if best is None or (a, i, j) < best:
                best = (a, i, j)
            if a == 1:
                break
        return None if best is None else best[1:]

    def _clear_position(self, t: int) -> None:
        while True:
            kt = self.col[t]
            p = self.rows[t][kt]
            leftovers = []  # (|remainder|, row) below the pivot
            for i in range(t + 1, self.m):
                v = self.rows[i].get(kt)
                if v:
                    self.row_add(i, t, -(v // p))
                    if v % p:
                        leftovers.append((abs(v % p), i))
            if leftovers:
                self.row_swap(t, min(leftovers)[1])
                continue
            # these additions change row t alone and commute
            row = self.rows[t]
            for k in [k for k in row if k != kt]:
                q = row[k] // p
                if q:
                    self.col_add(self.pos[k], t, -q)
            leftovers = [(abs(v), self.pos[k]) for k, v in row.items() if k != kt]
            if not leftovers:
                return
            self.col_swap(t, min(leftovers)[1])

    def _fix_divisibility(self, s: int, u: int) -> None:
        # both rows are diagonal singletons; clearing d_u, added to column s,
        # runs Euclid's algorithm and leaves (gcd, +-lcm) on the diagonal
        self.col_add(s, u, 1)
        self._clear_position(s)
        for t in (s, u):
            if self._diag(t) < 0:
                self.row_neg(t)

    def run(self) -> int:
        t = 0
        while t < min(self.m, self.n) and (piv := self._find_pivot(t)) is not None:
            self.row_swap(t, piv[0])
            self.col_swap(t, piv[1])
            self._clear_position(t)
            t += 1
        rank = t
        for s in range(rank):
            if self._diag(s) < 0:
                self.row_neg(s)
        # a step at (s, u) leaves gcd at s, which divides every entry before
        # u too, and lcm at u: the scan goes on from u, and ends at a 1
        for s in range(rank - 1):
            u = s + 1
            while u < rank and self._diag(s) != 1:
                if self._diag(u) % self._diag(s):
                    self._fix_divisibility(s, u)
                u += 1
        return rank


@dataclass
class SmithNormalForm:
    """U * A * V = D with unimodular U, V; diagonal d_1 | d_2 | ... >= 0.

    The transforms and their inverses are None when not requested.
    """

    shape: tuple[int, int]
    diagonal: tuple[int, ...]
    rank: int
    U: Matrix | None
    V: Matrix | None
    U_inv: Matrix | None
    V_inv: Matrix | None

    @property
    def factors(self) -> tuple[int, ...]:
        """The nonzero invariant factors."""
        return self.diagonal[: self.rank]


def smith_normal_form(
    A: Sequence[Sequence[int]],
    n_cols: int | None = None,
    transforms: bool = True,
) -> SmithNormalForm:
    """Smith normal form of an integer matrix given as a list of rows.

    ``n_cols`` disambiguates the width of matrices with zero rows. With
    ``transforms=False`` only the diagonal is computed, which is cheaper.
    """
    if n_cols is None:
        n_cols = len(A[0]) if A else 0
    if any(len(row) != n_cols for row in A):
        raise ValueError("ragged matrix")
    return _smith([{j: v for j, v in enumerate(row) if v} for row in A], n_cols, transforms)


def _smith(rows: list[dict[int, int]], n_cols: int, transforms: bool) -> SmithNormalForm:
    m = len(rows)
    worker = _SmithWorker(rows, n_cols, transforms)
    rank = worker.run()
    diag = tuple(worker._diag(t) if t < rank else 0 for t in range(min(m, n_cols)))
    U = V = U_inv = V_inv = None
    if transforms:  # dense, and from column keys to positions
        keys = worker.col
        U = [[row.get(j, 0) for j in range(m)] for row in worker.U]
        U_inv = [[column.get(i, 0) for column in worker.U_inv] for i in range(m)]
        V = [[worker.V[k].get(i, 0) for k in keys] for i in range(n_cols)]
        V_inv = [[worker.V_inv[k].get(j, 0) for j in range(n_cols)] for k in keys]
    return SmithNormalForm((m, n_cols), diag, rank, U, V, U_inv, V_inv)


def in_column_span(rows: list[dict[int, int]], n_cols: int, z: Mapping[int, int]) -> bool:
    """Whether z (row -> entry) is an integer combination of the columns
    of the matrix with these sparse rows, which are consumed. It is when
    appending z keeps the invariant factors: a larger column lattice has a
    larger rank or a smaller index in its saturation, their product."""
    s = _smith([dict(row) for row in rows], n_cols, transforms=False)
    for i, v in z.items():
        if v:
            rows[i][n_cols] = v
    return s.factors == _smith(rows, n_cols + 1, transforms=False).factors


@dataclass(frozen=True)
class HomologySummary:
    """Betti numbers and torsion invariant factors per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def group(self, k: int) -> str:
        if k < 0 or k >= len(self.betti):
            return "0"
        parts = []
        b = self.betti[k]
        if b == 1:
            parts.append("Z")
        elif b > 1:
            parts.append(f"Z^{b}")
        parts.extend(f"Z/{d}" for d in self.torsion[k])
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return ", ".join(
            f"H_{k} = {self.group(k)}" for k in range(len(self.betti))
        )


def _rows(C: ChainComplex, k: int) -> list[dict[int, int]]:
    """Smith worker rows of C's degree-k boundary, keys ascending; a degree
    outside C has no rows or no columns."""
    index = C._bases.get(k - 1, {})
    rows: list[dict[int, int]] = [{} for _ in index]
    for j, tau in enumerate(C._bases.get(k, ())):
        for sigma, v in C._columns.get(k, {}).get(tau, {}).items():
            rows[index[sigma]][j] = v
    return rows


def homology(C: ChainComplex) -> HomologySummary:
    """Homology of an integer chain complex via Smith normal form.

    betti_k = dim C_k - rank d_k - rank d_(k+1); the torsion of degree k
    is the set of invariant factors of d_(k+1) exceeding 1.
    """
    top = C.top_dim
    ranks = [0] * (top + 2)
    torsion: list[tuple[int, ...]] = [()] * (top + 1)
    for k in range(1, top + 1):
        s = _smith(_rows(C, k), C.size(k), transforms=False)
        ranks[k] = s.rank
        torsion[k - 1] = tuple(d for d in s.factors if d > 1)
    betti = tuple(
        C.size(k) - ranks[k] - ranks[k + 1] for k in range(top + 1)
    )
    if any(b < 0 for b in betti):
        raise AssertionError("negative Betti number; chain complex is inconsistent")
    euler = sum(b if k % 2 == 0 else -b for k, b in enumerate(betti))
    if euler != C.euler_characteristic():
        raise AssertionError("Betti numbers disagree with the Euler characteristic")
    return HomologySummary(betti, tuple(torsion))


@dataclass(frozen=True)
class CycleClass:
    """Coordinates of a cycle's class in H_k's invariant-factor basis.

    ``torsion`` holds (residue, modulus) pairs for the finite cyclic
    summands with modulus > 1; ``free`` the coordinates along the free
    part. The class is zero exactly when everything vanishes.
    """

    dim: int
    torsion: tuple[tuple[int, int], ...]
    free: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return all(r == 0 for r, _ in self.torsion) and not any(self.free)


def cycle_class(C: ChainComplex, k: int, z: Mapping[Label, int]) -> CycleClass:
    """Classify an integer k-cycle in H_k(C).

    ``z`` maps basis labels to coefficients (omitted labels are zero).
    Raises ValueError for unknown labels or when z is not a cycle.
    """
    if k < 0 or k > C.top_dim:
        raise ValueError(f"degree {k} out of range")
    index = C._bases[k]
    for lab in z:
        if lab not in index:
            raise ValueError(f"{lab!r} is not a degree-{k} generator")
    zs = {index[lab]: v for lab, v in z.items() if v}

    # w = V^-1 z; in degree 0 the boundary has no rows, so V^-1 is the identity
    cycles = _SmithWorker(_rows(C, k), len(index), transforms=True)
    rank = cycles.run()
    vinv = [cycles.V_inv[key] for key in cycles.col]
    w = [sum(row.get(i, 0) * v for i, v in zs.items()) for row in vinv]
    if any(w[:rank]):
        raise ValueError("z is not a cycle")

    # the boundaries from degree k+1, written in kernel coordinates: row a
    # is the combination of the rows of d_(k+1) that row rank + a of V^-1 gives
    above = _rows(C, k + 1)
    B: list[dict[int, int]] = []
    for row in vinv[rank:]:
        b: dict[int, int] = {}
        for i, v in row.items():
            _add_scaled(b, above[i], v)
        B.append(b)
    bounds = _SmithWorker(B, C.size(k + 1), transforms=True)
    rank_b = bounds.run()
    wk = {a: v for a, v in enumerate(w[rank:]) if v}
    u = [sum(row.get(a, 0) * v for a, v in wk.items()) for row in bounds.U]
    factors = [bounds._diag(t) for t in range(rank_b)]
    torsion = tuple((u[a] % d, d) for a, d in enumerate(factors) if d > 1)
    return CycleClass(k, torsion, tuple(u[rank_b:]))
