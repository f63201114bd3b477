"""Integer Smith normal form, homology, and cycle classification.

All arithmetic is exact over arbitrary-precision integers. The Smith
routine picks the nonzero entry of minimal absolute value as pivot to
curb coefficient growth, and yields the diagonal alone. Every step is an
elementary operation: a swap, a negation, or adding a multiple of one row
or column to another, where an added column is nonzero on its diagonal
alone and so touches one row. Columns keep their keys and a swap
permutes their positions alone, so it touches no row. A caller that needs
U x or V^-1 y hands x or y to the worker as sparse dicts that take the
row or column operations along: ``in_column_span`` carries its vector,
``cycle_class`` the boundaries from the degree above with the cycle beside
them, then the cycle's kernel coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .chains import ChainComplex, Label, _add_scaled


class _SmithWorker:
    """Row-sparse elimination of owned row dicts, which never store zeros.
    The rows keep the column keys they came with: ``col`` maps positions to
    keys and ``pos`` keys to positions, so a column swap moves two entries
    of each and no row. Column src of ``col_add`` is nonzero in row src
    alone: the row pass has cleared it below the pivot (rows above are
    diagonal), or the matrix is diagonal.

    Two optional stores of dicts ride along. ``row_carry``, indexed like the
    rows, takes every row operation the rows take, so it ends as U x for the
    x it started as. ``col_carry``, on column keys, takes every column
    addition as V^-1 does, so it ends as V^-1 y; a column swap touches
    neither."""

    def __init__(
        self,
        rows: list[dict[int, int]],
        n_cols: int,
        row_carry: list[dict[int, int]] | None = None,
        col_carry: list[dict[int, int]] | None = None,
    ):
        self.m = len(rows)
        self.n = n_cols
        self.rows = rows
        self.col = list(range(n_cols))
        self.pos = list(range(n_cols))
        self.row_carry = row_carry
        self.col_carry = col_carry

    def _diag(self, t: int) -> int:
        return self.rows[t][self.col[t]]

    # --- elementary operations; the row carry takes the row ones too ---

    def _row_indexed(self) -> tuple[list[dict[int, int]], ...]:
        return (self.rows,) if self.row_carry is None else (self.rows, self.row_carry)

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
        if self.row_carry is not None:
            _add_scaled(self.row_carry[dst], self.row_carry[src], c)

    def col_add(self, dst: int, src: int, c: int) -> None:
        """Column dst += c * column src for c != 0; column src is nonzero in
        row src alone."""
        kd, ks = self.col[dst], self.col[src]
        row = self.rows[src]
        w = row.get(kd, 0) + c * row[ks]
        if w:
            row[kd] = w
        else:
            row.pop(kd, None)
        if self.col_carry is not None:
            _add_scaled(self.col_carry[ks], self.col_carry[kd], -c)

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
    """The diagonal of U * A * V = D for some unimodular U and V, with
    d_1 | d_2 | ... >= 0."""

    shape: tuple[int, int]
    diagonal: tuple[int, ...]
    rank: int

    @property
    def factors(self) -> tuple[int, ...]:
        """The nonzero invariant factors."""
        return self.diagonal[: self.rank]


def smith_normal_form(A: Sequence[Sequence[int]], n_cols: int | None = None) -> SmithNormalForm:
    """Smith normal form of an integer matrix given as a list of rows.

    ``n_cols`` disambiguates the width of matrices with zero rows. An entry
    that is not an int (a float, a bool) raises ValueError.
    """
    if n_cols is None:
        n_cols = len(A[0]) if A else 0
    if any(len(row) != n_cols for row in A):
        raise ValueError("ragged matrix")
    if bad := [v for row in A for v in row if type(v) is not int]:
        raise ValueError(f"matrix entry {bad[0]!r} is not an int")
    return _smith(_SmithWorker([{j: v for j, v in enumerate(row) if v} for row in A], n_cols))


def _smith(worker: _SmithWorker) -> SmithNormalForm:
    rank = worker.run()
    diag = tuple(worker._diag(t) if t < rank else 0 for t in range(min(worker.m, worker.n)))
    return SmithNormalForm((worker.m, worker.n), diag, rank)


def _carry_through(
    rows: list[dict[int, int]], n_cols: int, x: Mapping[int, int]
) -> tuple[list[int], list[int]]:
    """U x and the nonzero invariant factors of the matrix with these
    sparse rows, which are consumed; x maps rows to entries and is carried
    through the elimination as one-entry row dicts."""
    carry: list[dict[int, int]] = [{} for _ in rows]
    for i, v in x.items():
        if v:
            carry[i][0] = v
    worker = _SmithWorker(rows, n_cols, row_carry=carry)
    rank = worker.run()
    u = [entry.get(0, 0) for entry in worker.row_carry]
    return u, [worker._diag(t) for t in range(rank)]


def in_column_span(rows: list[dict[int, int]], n_cols: int, z: Mapping[int, int]) -> bool:
    """Whether z (row -> entry) is an integer combination of the columns
    of the matrix with these sparse rows, which are consumed. It is when
    U z is divisible by the diagonal and vanishes past the rank."""
    u, factors = _carry_through(rows, n_cols, z)
    return all(a % d == 0 for a, d in zip(u, factors)) and not any(u[len(factors):])


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
        s = _smith(_SmithWorker(_rows(C, k), C.size(k)))
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

    # V^-1 [d_(k+1) | z] from the rows of d_(k+1), with z as column n, carried
    # through the Smith form of d_k; in degree 0 d_k has no rows, so V^-1 = I
    n = C.size(k + 1)
    above = _rows(C, k + 1)
    for i, v in zs.items():
        above[i][n] = v
    cycles = _SmithWorker(_rows(C, k), len(index), col_carry=above)
    rank = cycles.run()
    carried = [above[key] for key in cycles.col]
    if any(n in row for row in carried[:rank]):
        raise ValueError("z is not a cycle")

    # the rest are the boundaries from degree k+1 in kernel coordinates, and
    # z's kernel coordinates, carried as U w through their Smith form
    B = carried[rank:]
    u, factors = _carry_through(B, n, {i: row.pop(n) for i, row in enumerate(B) if n in row})
    torsion = tuple((u[a] % d, d) for a, d in enumerate(factors) if d > 1)
    return CycleClass(k, torsion, tuple(u[len(factors):]))
