"""Spans around the program's public functions, for the traced run.

A span is (name, start, end, parent). Installing the tracer replaces every
reference to a traced function in the loaded discmorse modules by a
wrapper, so the calls the program makes internally are recorded as well as
the benchmark's own, in the order the program makes them. Spans stay in
memory until the run ends. A span's name is the per-layer metric its self
time (duration minus the time covered by its child spans) is added to.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# per-layer metric -> (module, traced public functions)
LAYER_FUNCTIONS = {
    "complexes.subdivide_s": ("complexes", ["barycentric_subdivision"]),
    "io.parse_s": ("io", ["parse_complex", "parse_matching", "parse_chain"]),
    "io.format_s": ("io", ["format_complex", "format_matching", "format_chain"]),
    "chains.chain_complex_s": ("chains", ["chain_complex"]),
    "matchings.hasse_s": ("matchings", ["hasse"]),
    "matchings.collapse_s": ("matchings", ["random_morse_matching"]),
    "matchings.greedy_s": ("matchings", ["greedy_morse_matching"]),
    "matchings.is_morse_s": ("matchings", ["is_morse"]),
    "matchings.closed_vpath_s": ("matchings", ["find_closed_vpath"]),
    "morse.thom_smale_s": ("morse", ["thom_smale_complex"]),
    "elimination.eliminate_s": ("elimination", ["gaussian_eliminate", "eliminate_sequence", "all_orders_agree"]),
    "homology.snf_s": ("homology", ["homology"]),
    "homology.cycle_class_s": ("homology", ["cycle_class"]),
    "euler.complete_matching_s": ("euler", ["complete_matching"]),
    "euler.chain_s": ("euler", ["euler_chain_from_matching"]),
    "euler.homologous_s": ("euler", ["homologous"]),
}


def _sizes(C) -> list[int]:
    return [C.size(k) for k in range(C.top_dim + 1)]


def _chain_counts(args, C) -> dict[str, int]:
    # a simplicial k-cell has k+1 faces: (k+1) n_k nonzeros among n_(k-1) n_k
    n = _sizes(C)
    return {
        "chains.boundary_nnz": sum((k + 1) * n[k] for k in range(1, len(n))),
        "chains.boundary_entries": sum(n[k - 1] * n[k] for k in range(1, len(n))),
    }


def _snf_counts(args, result) -> dict[str, int]:
    n = _sizes(args[0])
    return {"homology.snf_entries": sum(n[k - 1] * n[k] for k in range(1, len(n)))}


def _cycle_class_counts(args, result) -> dict[str, int]:
    """Shapes of the two Smith forms with transforms that cycle_class
    computes in degree 1: d_1 (n_0 x n_1) and the boundaries d_2 written
    in kernel coordinates (ker d_1 x n_2), each with U, U^-1 (m x m) and
    V, V^-1 (n x n). rank d_1 = n_0 - b_0, with b_0 counted here."""
    C, k = args[0], args[1]
    if k != 1:
        raise ValueError("shape counts are derived for degree 1 only")
    n = _sizes(C) + [0]
    comp = {v: v for (v,) in C.basis(0)}

    def root(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for a, b in C.basis(1):
        comp[root(a)] = root(b)
    b0 = sum(1 for v in comp if root(v) == v)
    ker = n[1] - (n[0] - b0)
    shapes = [(n[0], n[1]), (ker, n[2])]
    return {
        "homology.snf_entries": sum(m * c for m, c in shapes),
        "homology.transform_entries": sum(2 * m * m + 2 * c * c for m, c in shapes),
    }


COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "chain_complex": _chain_counts,
    "homology": _snf_counts,
    "cycle_class": _cycle_class_counts,
    "gaussian_eliminate": lambda args, result: {"elimination.steps": 1},
}


class Tracer:
    """Records spans; ``install`` routes the program's functions through it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.tally: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self.tally.update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "discmorse" or n.startswith("discmorse.")]
        for metric, (module, names) in LAYER_FUNCTIONS.items():
            for fname in names:
                orig = getattr(sys.modules[f"discmorse.{module}"], fname)
                wrapped = self._wrap(metric, orig, COUNTERS.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def self_times(self, first: int, last: int) -> Counter:
        """Self time per span name over spans[first:last]."""
        child = [0.0] * (last - first)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent - first] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans[first:last]):
            out[name] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        ))
