import copy
import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discmorse import corpus
from discmorse.chains import _add_scaled, chain_complex
from discmorse.complexes import SimplicialComplex, barycentric_subdivision
from discmorse.homology import (
    CycleClass,
    HomologySummary,
    _SmithWorker,
    cycle_class,
    homology,
    in_column_span,
    smith_normal_form,
)
from oracles import (
    TrackedSmith, cycle_class_by_transforms, dense_boundary, incidence, snf_is_valid, tracked_smith
)
from strategies import small_complexes, small_matrices


def sphere(n):
    return SimplicialComplex.from_facets(
        itertools.combinations(range(n + 2), n + 1)
    )


def torus():
    facets = [tuple(sorted([i, (i + 1) % 7, (i + 3) % 7])) for i in range(7)]
    facets += [tuple(sorted([i, (i + 2) % 7, (i + 3) % 7])) for i in range(7)]
    return SimplicialComplex.from_facets(facets)


def projective_plane():
    return SimplicialComplex.from_facets(
        [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
         (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    )


# --- Smith normal form ---


def test_snf_frozen_small_cases():
    s = smith_normal_form([[2, 4], [6, 8]])
    assert s.diagonal == (2, 4)
    assert s.rank == 2 and s.factors == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([[6]]).diagonal == (6,)
    assert smith_normal_form([[-6]]).diagonal == (6,)


def test_snf_shapes_and_empty_matrices():
    s = smith_normal_form([], n_cols=3)
    assert s.shape == (0, 3) and s.diagonal == () and s.rank == 0
    s = smith_normal_form([[], []], n_cols=0)
    assert s.shape == (2, 0) and s.diagonal == ()
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    # exact integer arithmetic: floats and bools are refused, not computed with
    for A, bad in (([[2.5, 1], [1, 0]], "2.5"), ([[True, 0], [0, 2]], "True")):
        with pytest.raises(ValueError, match=f"matrix entry {bad} is not an int"):
            smith_normal_form(A)


def _assert_snf_contract(A, n):
    s = tracked_smith(A, n_cols=n)
    assert snf_is_valid(A, s), (A, s.diagonal)
    assert smith_normal_form(A, n_cols=n).diagonal == s.diagonal


def test_snf_full_contract_on_random_matrices():
    rng = random.Random(9)
    for _ in range(80):
        m, n = rng.randrange(0, 6), rng.randrange(0, 6)
        _assert_snf_contract([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)], n)


@settings(max_examples=100)
@given(small_matrices())
def test_snf_full_contract_on_drawn_matrices(case):
    _assert_snf_contract(*case)


def _assert_snf_matches_sympy(A, n):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sym_snf

    m = len(A)
    sym = sym_snf(sympy.Matrix(m, n, [v for row in A for v in row]))
    s = smith_normal_form(A, n_cols=n)
    assert list(s.diagonal) == [abs(sym[i, i]) for i in range(min(m, n))], A


def test_snf_diagonal_matches_sympy():
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        _assert_snf_matches_sympy([[rng.randrange(-7, 8) for _ in range(n)] for _ in range(m)], n)


@settings(max_examples=100)
@given(small_matrices())
def test_snf_diagonal_matches_sympy_on_drawn_matrices(case):
    _assert_snf_matches_sympy(*case)


def test_snf_without_transforms_has_no_matrices():
    # the package computes the diagonal alone; transforms live in the tests
    s = smith_normal_form([[4, 2]])
    assert [f.name for f in dataclasses.fields(s)] == ["shape", "diagonal", "rank"]
    assert s.diagonal == (2,) and s.factors == (2,)
    assert not hasattr(s, "U")


# (diagonal, U, V, U_inv, V_inv), computed before the divisibility step
# became a column addition followed by the pivot clearing
PINNED_DIAGONAL_TRANSFORMS = {
    (2, 3): (
        (1, 6), [[-1, 1], [-3, 2]], [[1, -3], [1, -2]],
        [[2, -1], [3, -1]], [[-2, 3], [-1, 1]],
    ),
    (4, 6): (
        (2, 12), [[-1, 1], [-3, 2]], [[1, -3], [1, -2]],
        [[2, -1], [3, -1]], [[-2, 3], [-1, 1]],
    ),
    (6, 10, 15): (
        (1, 30, 30),
        [[-14, 7, 1], [-5, 3, 0], [-30, 15, 2]],
        [[1, 5, -15], [1, 6, -15], [1, 0, -14]],
        [[6, 1, -3], [10, 2, -5], [15, 0, -7]],
        [[-84, 70, 15], [-1, 1, 0], [-6, 5, 1]],
    ),
}


@pytest.mark.parametrize("d", sorted(PINNED_DIAGONAL_TRANSFORMS))
def test_divisibility_step_transforms_are_pinned(d):
    A = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    s = tracked_smith(A)
    assert (s.diagonal, s.U, s.V, s.U_inv, s.V_inv) == PINNED_DIAGONAL_TRANSFORMS[d]
    assert snf_is_valid(A, s)


def test_divisibility_step_transforms_match_a_pinned_digest(monkeypatch):
    # the seeded matrices that need the divisibility step, and a SHA-256 over
    # their diagonals and four transforms, pinned before the step was
    # rewritten: the transforms give cycle_class coordinates
    fixes = []
    step = _SmithWorker._fix_divisibility

    def counted(self, s, u):
        fixes.append((s, u))
        step(self, s, u)

    monkeypatch.setattr(_SmithWorker, "_fix_divisibility", counted)
    rng = random.Random(2024)
    digest = hashlib.sha256()
    needed = 0
    for _ in range(3000):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        bound = rng.choice([2, 5, 12, 40])
        A = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]
        before = len(fixes)
        s = tracked_smith(A, n_cols=n)
        if len(fixes) > before:
            needed += 1
            digest.update(repr((A, s.diagonal, s.U, s.V, s.U_inv, s.V_inv)).encode())
    assert needed == 106
    assert digest.hexdigest() == "20b7fc42fd77818c9110e3e64407b529662013ca12d423e00e794884e6d36192"


def test_col_add_only_ever_adds_a_column_nonzero_in_its_own_row(monkeypatch):
    # col_add updates row src alone, which is right only while column src
    # has no other nonzero; check that at every call, before it runs, with
    # and without a column store carried along
    calls = []
    add = _SmithWorker.col_add

    def checked(self, dst, src, c):
        calls.append(self.col_carry is not None)
        key = self.col[src]
        others = [i for i, row in enumerate(self.rows) if i != src and row.get(key)]
        assert not others and self.rows[src].get(key), (src, others)
        add(self, dst, src, c)

    monkeypatch.setattr(_SmithWorker, "col_add", checked)
    rng = random.Random(12)
    for trial in range(2000):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        bound = rng.choice([2, 5, 12, 40])
        if trial % 4:
            A = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]
        else:  # diagonal, so the divisibility step runs on most of them
            A = [[rng.randrange(-bound, bound + 1) if i == j else 0 for j in range(n)]
                 for i in range(m)]
        if trial % 8 < 4:
            tracked_smith(A, n_cols=n)
        else:
            smith_normal_form(A, n_cols=n)
    for name in ("torus", "projective_plane", "klein_bottle", "sphere2"):
        X = corpus.load(name)
        homology(chain_complex(X))
    start = len(calls)
    _classify_corpus_loops()
    assert True in calls[start:]
    assert {True, False} <= set(calls) and len(calls) > 1000


def test_col_swap_moves_no_row_and_no_transform(monkeypatch):
    # the rows keep their column keys, and so do the column-carried store
    # and the reference's V: a column swap only permutes positions, and
    # leaves the carried stores and the reference's mirrors as they are
    calls = []
    swap = _SmithWorker.col_swap

    def checked(self, j1, j2):
        stores = {k: v for k, v in vars(self).items() if k not in ("col", "pos")}
        before = copy.deepcopy(stores)
        swap(self, j1, j2)
        calls.append((j1 != j2, self.row_carry is not None, self.col_carry is not None))
        assert {k: v for k, v in vars(self).items() if k not in ("col", "pos")} == before

    monkeypatch.setattr(_SmithWorker, "col_swap", checked)
    rng = random.Random(13)
    for trial in range(600):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        if trial % 2 == 0:
            tracked_smith(A, n_cols=n)
        else:
            smith_normal_form(A, n_cols=n)
    for name in ("torus", "projective_plane", "klein_bottle", "sphere2"):
        homology(chain_complex(corpus.load(name)))
    _classify_corpus_loops()
    assert sum(moved for moved, _, _ in calls) > 1000
    # swaps with each store carried alone, by cycle_class, and with both
    assert {(True, False, True), (True, True, False), (True, True, True)} <= set(calls)


def test_divisibility_pass_is_linear_on_a_unit_diagonal():
    # every diagonal entry is divisible by 1, so the pass scans nothing
    # after a 1; a rescan from each s would read n**2 / 2 entries
    reads = []
    diag = _SmithWorker._diag

    class Spy(_SmithWorker):
        def _diag(self, t):
            reads.append(t)
            return diag(self, t)

    n = 400
    assert Spy([{i: 1} for i in range(n)], n).run() == n
    # the sign pass and the divisibility pass read each entry once
    assert len(reads) <= 2 * n


def _sparse_rows(A):
    return [{j: v for j, v in enumerate(row) if v} for row in A]


def _transforms(worker):
    # U and V^-1 are the package's carried stores, U^-1 and V the mirrors
    return (worker.row_carry, worker.U_inv, worker.V, worker.col_carry)


def test_tracked_transforms_are_sparse_rows():
    # the carried stores keep no zeros, as the rows do
    rng = random.Random(23)
    for trial in range(400):
        m, n = rng.randrange(0, 7), rng.randrange(0, 7)
        A = [[rng.randrange(-6, 7) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(m)]
        worker = TrackedSmith(_sparse_rows(A), n)
        worker.run()
        for T in _transforms(worker):
            assert all(isinstance(row, dict) and all(row.values()) for row in T)
        assert snf_is_valid(A, tracked_smith(A, n_cols=n)), A
    # d_1 of sd^2 torus, 252 x 756: dense transforms would hold 1,270,080 entries
    X = barycentric_subdivision(barycentric_subdivision(corpus.torus()).complex).complex
    C = chain_complex(X)
    d1 = dense_boundary(C, 1)
    worker = TrackedSmith(_sparse_rows(d1), C.size(1))
    assert worker.run() == 251
    transforms = _transforms(worker)
    assert sum(len(row) for T in transforms for row in T) < 20_000
    assert all(all(row.values()) for T in transforms for row in T)


def test_in_column_span_small_cases():
    assert in_column_span(_sparse_rows([[2]]), 1, {0: 4})
    assert not in_column_span(_sparse_rows([[2]]), 1, {0: 3})
    assert not in_column_span(_sparse_rows([[2, 0], [0, 0]]), 2, {1: 1})
    assert in_column_span(_sparse_rows([[2, 3], [0, 0]]), 2, {0: 1})
    assert in_column_span(_sparse_rows([[0], [0]]), 1, {})
    assert not in_column_span(_sparse_rows([[], []]), 0, {1: -1})


def test_in_column_span_agrees_with_the_row_transform():
    # z = A x exactly when U z is divisible by the diagonal and vanishes past the rank
    rng = random.Random(17)
    for trial in range(120):
        m, n = rng.randrange(1, 6), rng.randrange(0, 5)
        A = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        if trial % 2:
            x = [rng.randrange(-3, 4) for _ in range(n)]
            z = [sum(a * b for a, b in zip(row, x)) for row in A]
        else:
            z = [rng.randrange(-6, 7) for _ in range(m)]
        s = tracked_smith(A, n_cols=n)
        w = [sum(u * v for u, v in zip(row, z)) for row in s.U]
        want = all(w[i] % s.diagonal[i] == 0 for i in range(s.rank)) and not any(w[s.rank:])
        got = in_column_span(_sparse_rows(A), n, dict(enumerate(z)))
        assert got == want, (A, z)
        assert got or trial % 2 == 0


@settings(max_examples=200)
@given(small_matrices(), st.data())
def test_in_column_span_agrees_with_the_row_transform_on_drawn_matrices(case, data):
    A, n = case
    inside = data.draw(st.booleans(), label="z = A x")
    if inside:
        x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="x")
        z = [sum(a * b for a, b in zip(row, x)) for row in A]
    else:
        z = data.draw(st.lists(st.integers(-6, 6), min_size=len(A), max_size=len(A)), label="z")
    s = tracked_smith(A, n_cols=n)
    w = [sum(u * v for u, v in zip(row, z)) for row in s.U]
    want = all(w[i] % s.diagonal[i] == 0 for i in range(s.rank)) and not any(w[s.rank:])
    got = in_column_span(_sparse_rows(A), n, dict(enumerate(z)))
    assert got == want
    assert got or not inside


def test_in_column_span_runs_one_elimination(monkeypatch):
    # U z is carried through the one Smith form of the matrix; appending z
    # and eliminating again is not needed
    runs = []
    run = _SmithWorker.run

    def counted(self):
        runs.append(self.n)
        return run(self)

    monkeypatch.setattr(_SmithWorker, "run", counted)
    assert in_column_span(_sparse_rows([[2, 0], [0, 3]]), 2, {0: 4, 1: 3})
    assert not in_column_span(_sparse_rows([[2, 0], [0, 3]]), 2, {0: 3})
    assert runs == [2, 2]


# --- homology ---


def test_homology_of_spheres():
    assert homology(chain_complex(sphere(1))).betti == (1, 1)
    h2 = homology(chain_complex(sphere(2)))
    assert h2.betti == (1, 0, 1) and h2.torsion == ((), (), ())
    assert homology(chain_complex(sphere(3))).betti == (1, 0, 0, 1)


def test_homology_of_the_torus():
    h = homology(chain_complex(torus()))
    assert h.betti == (1, 2, 1)
    assert h.torsion == ((), (), ())


def test_homology_of_the_projective_plane():
    h = homology(chain_complex(projective_plane()))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_homology_of_a_point_and_a_simplex():
    assert homology(chain_complex(SimplicialComplex([(0,)]))).betti == (1,)
    h = homology(chain_complex(SimplicialComplex.from_facets([(0, 1, 2, 3)])))
    assert h.betti == (1, 0, 0, 0)


def test_group_strings():
    h = HomologySummary(betti=(1, 2, 0), torsion=((), (2,), ()))
    assert h.group(0) == "Z"
    assert h.group(1) == "Z^2 + Z/2"
    assert h.group(2) == "0"
    assert h.group(9) == "0"
    assert str(h) == "H_0 = Z, H_1 = Z^2 + Z/2, H_2 = 0"


# --- cycle classification ---


def test_cycle_class_of_a_torus_loop():
    X = torus()
    C = chain_complex(X)
    z = {}
    for i in range(7):
        e = tuple(sorted((i, (i + 1) % 7)))
        z[e] = z.get(e, 0) + (1 if i < (i + 1) % 7 else -1)
    cc = cycle_class(C, 1, z)
    assert cc.dim == 1
    assert cc.torsion == ()  # H_1 of the torus is free
    assert len(cc.free) == 2
    assert not cc.is_trivial


def test_cycle_class_of_a_face_boundary_is_trivial():
    X = torus()
    C = chain_complex(X)
    f = X.cells(2)[0]
    z = {f[:i] + f[i + 1:]: incidence(f, f[:i] + f[i + 1:]) for i in range(3)}
    assert cycle_class(C, 1, z).is_trivial


def test_cycle_class_detects_two_torsion():
    C = chain_complex(projective_plane())
    z = {(0, 1): 1, (0, 4): -1, (1, 4): 1}
    cc = cycle_class(C, 1, z)
    assert cc == CycleClass(1, ((1, 2),), ())
    assert not cc.is_trivial
    # doubling the cycle kills the class
    assert cycle_class(C, 1, {e: 2 * v for e, v in z.items()}).is_trivial


def test_cycle_class_in_degree_zero():
    C = chain_complex(sphere(1))
    assert not cycle_class(C, 0, {(0,): 1}).is_trivial
    assert cycle_class(C, 0, {(0,): 1, (1,): -1}).is_trivial


def test_cycle_class_input_validation():
    C = chain_complex(sphere(1))
    with pytest.raises(ValueError):
        cycle_class(C, 1, {(0, 3): 1})  # unknown label
    with pytest.raises(ValueError):
        cycle_class(C, 5, {})
    with pytest.raises(ValueError):
        cycle_class(C, 1, {(0, 1): 1})  # a single edge is not a cycle


def test_top_degree_cycles_classify_against_nothing_above():
    # the boundary of the solid tetrahedron is a 2-cycle on its surface
    X = sphere(2)
    C = chain_complex(X)
    z = {c: incidence((0, 1, 2, 3), c) for c in X.cells(2)}
    cc = cycle_class(C, 2, z)
    assert cc.dim == 2 and cc.torsion == ()
    assert len(cc.free) == 1 and abs(cc.free[0]) == 1


def _spanning_tree_loops(X):
    # one closed edge walk per edge outside a breadth-first spanning tree
    # of each component of the 1-skeleton: the edge, then back to it through the root
    adjacent = {v: [] for (v,) in X.cells(0)}
    for a, b in X.cells(1):
        adjacent[a].append(b)
        adjacent[b].append(a)
    parent = {}
    for root in sorted(adjacent):  # a spanning forest when X is disconnected
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for v in queue:
            for w in adjacent[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)

    def to_root(v):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    loops = []
    for a, b in X.cells(1):
        if parent[a] == b or parent[b] == a:
            continue
        walk = [a] + to_root(b) + to_root(a)[::-1][1:]
        z = {}
        for u, v in zip(walk, walk[1:]):
            e = (min(u, v), max(u, v))
            z[e] = z.get(e, 0) + (1 if u < v else -1)
        loops.append({e: c for e, c in z.items() if c})
    return loops


def _subdivided_chain(sub, z):
    # the edge (u, v) of X runs through the barycenter of (u, v) in sd X
    b = sub.barycenter_of
    out = {}
    for (u, v), c in z.items():
        mid = b[(u, v)]
        for e, s in (((b[(u,)], mid), c), ((b[(v,)], mid), -c)):
            out[e] = out.get(e, 0) + s
    return out


def _pinned_cycle_cases():
    for name in ("torus", "klein_bottle", "projective_plane"):
        X = corpus.load(name)
        sub = barycentric_subdivision(X)
        loops = _spanning_tree_loops(X)
        for Y, zs in ((X, loops), (sub.complex, [_subdivided_chain(sub, z) for z in loops])):
            C = chain_complex(Y)
            for z in zs:
                yield name, C, 1, z
                yield name, C, 1, {e: 2 * c for e, c in z.items()}
            for f in Y.cells(2)[:5]:
                yield name, C, 1, {e: incidence(f, e) for e in (f[1:], f[::2], f[:2])}
            for (v,) in Y.cells(0)[:5]:
                yield name, C, 0, {(v,): 1}


def test_cycle_class_coordinates_and_transforms_are_pinned():
    # a SHA-256 over the coordinates cycle_class returns and the tracked
    # Smith forms of d_1 and d_2 of sd torus, computed with dense transforms
    digest = hashlib.sha256()
    classes = []
    for name, C, k, z in _pinned_cycle_cases():
        cc = cycle_class(C, k, z)
        classes.append(cc)
        digest.update(repr((name, k, sorted(z.items()), cc)).encode())
    C = chain_complex(barycentric_subdivision(corpus.torus()).complex)
    for k in (1, 2):
        s = tracked_smith(dense_boundary(C, k))
        digest.update(repr((s.diagonal, s.U, s.V, s.U_inv, s.V_inv)).encode())
    assert len(classes) == 228
    # torsion on the Klein bottle and RP^2, free classes on the torus
    assert sum(1 for cc in classes if cc.torsion and cc.torsion[0][0]) > 0
    assert sum(1 for cc in classes if any(cc.free) and cc.dim == 1) > 0
    assert digest.hexdigest() == "1913ae481908dd8daebebff4451ae12f5bae2c07f095b2817f8db892bf90e998"


def _classify_corpus_loops():
    # cycle_class carries the rows of d_2 through the Smith form of d_1 by
    # columns, and the kernel coordinates of z through the next one by rows
    for name in ("torus", "projective_plane", "klein_bottle"):
        X = corpus.load(name)
        C = chain_complex(X)
        for z in _spanning_tree_loops(X)[:4]:
            cycle_class(C, 1, z)


@settings(max_examples=60)
@given(small_complexes, st.randoms(use_true_random=False))
def test_cycle_class_equals_the_transform_route(X, rng):
    # cycles in every degree: a combination of boundaries of (k+1)-cells,
    # plus a multiple of a vertex in degree 0 and of a loop in degree 1
    C = chain_complex(X)
    loops = _spanning_tree_loops(X)
    for k in range(X.dim + 1):
        z = {}
        for tau in X.cells(k + 1):
            _add_scaled(z, C.column(k + 1, tau), rng.choice((-2, -1, 1, 2)))
        if k == 0:
            _add_scaled(z, {X.cells(0)[0]: 1}, rng.choice((-2, -1, 1, 2)))
        elif k == 1 and loops:
            _add_scaled(z, rng.choice(loops), rng.choice((-2, -1, 1, 2)))
        assert cycle_class(C, k, z) == cycle_class_by_transforms(C, k, z), (k, z)
        if k:  # a k-cell is never a cycle, so adding one breaks z
            broken = dict(z)
            _add_scaled(broken, {X.cells(k)[0]: 1}, 1)
            for route in (cycle_class, cycle_class_by_transforms):
                with pytest.raises(ValueError, match="not a cycle"):
                    route(C, k, broken)
