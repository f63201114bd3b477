"""Command line entry points.

Six subcommands: homology, morse, reduce, euler, subdivide, product.
Each prints a report with stable key order, or a JSON document with
--json. Exit status is 0 whenever an answer was computed, including
negative verdicts like "not a Morse matching"; parse and usage problems
exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .chains import ChainComplex, chain_complex
from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    product_triangulation,
)
from .elimination import _Reduction, all_orders_agree
from .errors import DiscMorseError, MatchingError, ParseError
from .euler import (
    complete_matching,
    euler_chain_from_matching,
    homologous,
)
from .homology import homology
from .io import (
    SymbolTable,
    format_chain,
    format_complex,
    format_matching,
    parse_chain,
    parse_complex,
    parse_matching,
)
from .matchings import (
    Matching,
    Pair,
    closed_vpath,
    greedy_morse_matching,
    hasse,
    is_morse,
    validate_matching,
)
from .morse import simplicial_homology, thom_smale_complex

# the interpreter's own SHA-256; hashlib would also map OpenSSL's libcrypto
# (3-4 MiB resident), as CPython's random.py avoids for sha512
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class Report:
    """Ordered key/value results plus input digests and warnings."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: dict[str, str] = {}
        self.results: dict[str, Any] = {}
        self.warnings: list[str] = []

    def add_input(self, path: str, data: bytes) -> None:
        self.inputs[path] = _sha256(data).hexdigest()

    def put(self, key: str, value: Any) -> None:
        self.results[key] = value

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for path, digest in self.inputs.items():
            lines.append(f"input: {path} sha256 {digest}")
        for key, value in self.results.items():
            if isinstance(value, (list, tuple)):
                if not value:
                    lines.append(f"{key}: (none)")
                elif isinstance(value[0], str) and any(
                    " " in v or ";" in v or "\n" in v for v in value
                ):
                    lines.append(f"{key}:")
                    lines.extend(f"  {v}" for v in value)
                else:
                    lines.append(f"{key}: " + " ".join(str(v) for v in value))
            else:
                lines.append(f"{key}: {value}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"

    def emit(self, as_json: bool) -> None:
        sys.stdout.write(self.to_json() + "\n" if as_json else self.to_text())


def _read_file(path: str, report: Report) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    report.add_input(path, data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot decode {path} as UTF-8: {exc.reason} at byte {exc.start}"
        ) from None


def _load_complex(path: str, report: Report) -> tuple[SimplicialComplex, SymbolTable]:
    X, table = parse_complex(_read_file(path, report))
    report.put("cells", [len(X.cells(k)) for k in range(X.dim + 1)])
    report.put("euler_characteristic", X.euler_characteristic())
    return X, table


def _homology_lines(h) -> list[str]:
    return [f"H_{k} = {h.group(k)}" for k in range(len(h.betti))]


def cmd_homology(args: argparse.Namespace) -> Report:
    report = Report("homology")
    X, _ = _load_complex(args.complex, report)
    h = simplicial_homology(X)
    report.put("betti", list(h.betti))
    for k, t in enumerate(h.torsion):
        if t:
            report.put(f"torsion_{k}", list(t))
    report.put("homology", _homology_lines(h))
    return report


def _differential_lines(C: ChainComplex, table: SymbolTable) -> list[str]:
    """One "tau ; sigma ; coefficient" line per nonzero boundary entry."""
    lines = []
    for k in range(1, C.top_dim + 1):
        row, columns = C._bases[k - 1], C._columns[k]
        for tau in C._bases[k]:
            col = columns.get(tau, {})
            for sigma in sorted(col, key=row.__getitem__):
                lines.append(
                    f"{table.decode_cell(tau)} ; {table.decode_cell(sigma)} ; {col[sigma]}"
                )
    return lines


def _read_matching(
    path: str, X: SimplicialComplex, table: SymbolTable, report: Report
) -> list[Pair] | None:
    """The pairs of a matching file, in file order, once validate_matching
    accepts them on X; None after reporting a negative verdict."""
    pairs = parse_matching(_read_file(path, report), table)
    verdict = validate_matching(hasse(X), pairs)
    report.put("matching_valid", verdict.ok)
    if not verdict.ok:
        report.put("matching_problem", verdict.problem)
        return None
    return pairs


def cmd_morse(args: argparse.Namespace) -> Report:
    report = Report("morse")
    X, table = _load_complex(args.complex, report)
    if args.matching is None:
        M = greedy_morse_matching(X)
        report.put("matching_source", "greedy")
    else:
        pairs = _read_matching(args.matching, X, table, report)
        if pairs is None:
            return report
        M = Matching(pairs)
    report.put("pairs", len(M))
    witness = closed_vpath(hasse(X), M)
    report.put("morse", witness is None)
    if witness is not None:
        report.put(
            "closed_vpath", " -> ".join(table.decode_cell(c) for c in witness)
        )
        return report
    ts = thom_smale_complex(X, M)
    report.put("critical", [ts.size(k) for k in range(X.dim + 1)])
    report.put("differential", _differential_lines(ts, table))
    hm = homology(ts)
    hs = homology(chain_complex(X))
    report.put("morse_homology", _homology_lines(hm))
    report.put("homology_match", hm == hs)
    report.put("matching", format_matching(M, table).splitlines())
    return report


def cmd_reduce(args: argparse.Namespace) -> Report:
    if args.max_orders < 1:
        raise ParseError(f"--max-orders must be at least 1, got {args.max_orders}")
    report = Report("reduce")
    X, table = _load_complex(args.complex, report)
    pairs = _read_matching(args.matching, X, table, report)
    if pairs is None:
        return report
    M = Matching(pairs)
    C = chain_complex(X)
    morse = is_morse(hasse(X), M)
    report.put("morse", morse)

    if args.all_orders:
        res = all_orders_agree(C, M, max_orders=args.max_orders)
        report.put("orders_tested", res.orders_tested)
        report.put("exhaustive", res.exhaustive)
        report.put("all_orders_agree", res.agree)
        if res.failure is not None:
            report.put("failure_step", res.failure.step)
            report.put("failure_pivot", res.failure.pivot)
        if res.agree and morse:
            report.put("matches_thom_smale", res.reduced == thom_smale_complex(X, M))
        return report

    order = list(pairs)
    if args.order is not None:
        try:
            idx = [int(t) for t in args.order.split(",")]
        except ValueError:
            raise ParseError(f"--order wants comma-separated indices, got {args.order!r}")
        if sorted(idx) != list(range(len(pairs))):
            raise ParseError("--order must be a permutation of 0..n-1 over matching lines")
        order = [pairs[i] for i in idx]
    order = list(dict.fromkeys(order))  # a repeated line is eliminated once
    R = _Reduction(C)
    pivots, failure = R.run(order)
    # names of the steps taken and of the failed one, if any
    names = [" ; ".join(map(table.decode_cell, pair)) for pair in order[: len(pivots) + 1]]
    report.put("steps", [f"{n} ; pivot {p}" for n, p in zip(names, pivots)])
    if failure is not None:
        report.put("failed_step", failure.step)
        report.put("failed_pair", names[failure.step])
        report.put("failed_pivot", failure.pivot)
        return report
    current = R.complex()
    report.put("reduced_sizes", [current.size(k) for k in range(current.top_dim + 1)])
    report.put("reduced_differential", _differential_lines(current, table))
    if morse:
        report.put("matches_thom_smale", current == thom_smale_complex(X, M))
    return report


def cmd_euler(args: argparse.Namespace) -> Report:
    report = Report("euler")
    X, table = _load_complex(args.complex, report)
    if args.matching is not None:
        pairs = _read_matching(args.matching, X, table, report)
        if pairs is None:
            return report
        M = Matching(pairs)
    else:
        M = complete_matching(hasse(X))
        if M is None:
            report.put("complete", False)
            chi = X.euler_characteristic()
            if chi != 0:
                report.warn(
                    f"no complete matching: Euler characteristic is {chi}, not 0"
                )
            else:
                report.warn("no complete matching: bipartite matching is not perfect")
            return report
    try:
        chain = euler_chain_from_matching(X, M)
    except MatchingError as exc:  # a matching file that leaves exc.cell uncovered
        report.put("complete", False)
        report.put("uncovered_cell", table.decode_cell(exc.cell))
        return report
    report.put("complete", True)
    report.put("matching", format_matching(M, table).splitlines())
    report.put("chain", format_chain(chain, table).splitlines())
    report.put("boundary_ok", True)  # euler_chain_from_matching asserts it
    if args.compare is not None:
        other = parse_chain(_read_file(args.compare, report), table)
        for a, b, _ in other.segments:
            if a not in X or b not in X:
                raise ParseError(
                    f"chain segment {table.decode_cell(a)} ; "
                    f"{table.decode_cell(b)} is not in the complex"
                )
        if other.boundary_on_cells() != chain.boundary_on_cells():
            report.put("comparable", False)
            report.warn("chains have different boundaries")
        else:
            report.put("comparable", True)
            report.put("homologous", homologous(X, chain, other))
    return report


def cmd_subdivide(args: argparse.Namespace) -> Report:
    report = Report("subdivide")
    X, table = _load_complex(args.complex, report)
    sub = barycentric_subdivision(X)
    sd = sub.complex
    report.put("subdivision_cells", [len(sd.cells(k)) for k in range(sd.dim + 1)])
    report.put("euler_preserved", sd.euler_characteristic() == X.euler_characteristic())
    barycenters = [f"{table.decode_cell(c)} ; {vid}" for vid, c in sub.cell_of.items()]
    report.put("barycenters", barycenters)
    report.put("facets", format_complex(sd).splitlines())
    return report


def cmd_product(args: argparse.Namespace) -> Report:
    report = Report("product")
    try:
        X = product_triangulation(args.m, args.n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    report.put("cells", [len(X.cells(k)) for k in range(X.dim + 1)])
    report.put("euler_characteristic", X.euler_characteristic())
    report.put("facets", format_complex(X).splitlines())
    return report


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the six subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="discmorse",
        description="Morse matchings, critical-cell complexes, and integer homology "
        "on simplicial complexes given as facet files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common], help="Betti numbers and torsion")
    p.add_argument("complex", help="facet file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser(
        "morse", parents=[common], help="validate a matching and build its critical complex"
    )
    p.add_argument("complex", help="facet file")
    p.add_argument("--matching", help="matching file (default: greedy search)")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser(
        "reduce", parents=[common], help="eliminate matched pairs in a given order"
    )
    p.add_argument("--max-orders", type=int, default=100, help="order sample budget")
    p.add_argument("complex", help="facet file")
    p.add_argument("--matching", required=True, help="matching file")
    p.add_argument("--order", help="comma-separated indices into the matching lines")
    p.add_argument(
        "--all-orders", action="store_true", help="compare every (or sampled) order"
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "euler", parents=[common], help="complete matchings and their Euler chains"
    )
    p.add_argument("complex", help="facet file")
    p.add_argument("--matching", help="use this matching instead of searching")
    p.add_argument("--compare", help="second chain file; test homologous")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("subdivide", parents=[common], help="barycentric subdivision")
    p.add_argument("complex", help="facet file")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("product", parents=[common], help="staircase product of simplices")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_product)
    return parser


# Building the parser costs more than most subcommands (every argument
# makes a HelpFormatter); parse_args leaves it unchanged, so a process
# that calls main repeatedly builds it once.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except DiscMorseError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
