"""The planted mutants: small bugs that some test of tier 1 must catch.

Each row names a file of the tree, a snippet of its source that must occur
there exactly once, the snippet's replacement, and the tests (pytest node
ids) of which at least one must fail once the replacement is made.
``mutants/run.py`` plants each row in a copy of the tree and runs its
tests. A change that moves a snippet updates its row; a change that adds
a check adds the mutant that shows the check works, as a row here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    find: str
    replace: str
    tests: tuple[str, ...]


DIGEST = "tests/test_cli.py::test_every_report_matches_its_pinned_digest"
FAILING_ORDERS = "tests/test_elimination.py::test_failing_orders_equal_the_copying_reference"

MUTANTS = (
    # --- elimination: one column update and one step loop ---
    Mutant(
        "reduce-keeps-the-row-above",
        "src/discmorse/elimination.py",
        "            self._cancel(i + 1, upper, {upper: 1}, 1)\n",
        "            pass\n",
        (DIGEST, "tests/test_elimination.py::test_elimination_equals_the_copying_reference"),
    ),
    Mutant(
        "failure-carries-the-pair-reversed",
        "src/discmorse/elimination.py",
        "step=idx, pair=(sigma, tau), pivot=exc.pivot",
        "step=idx, pair=(tau, sigma), pivot=exc.pivot",
        ("tests/test_elimination.py::test_elimination_equals_the_copying_reference", FAILING_ORDERS),
    ),
    Mutant(
        "reduce-reports-the-pair-before-the-failure",
        "src/discmorse/cli.py",
        'report.put("failed_pair", names[failure.step])',
        'report.put("failed_pair", names[failure.step - 1])',
        (DIGEST, "tests/test_cli.py::test_reduce_steps_equal_the_copying_reference"),
    ),
    Mutant(
        "error-exits-3",
        "src/discmorse/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 3\n',
        (DIGEST,),
    ),
    # --- all_orders_agree on the pairs' own submatrix ---
    Mutant(
        "failing-order-count-off-by-one",
        "src/discmorse/elimination.py",
        "return tested + 1, done + (j,)",
        "return tested, done + (j,)",
        (FAILING_ORDERS,),
    ),
    Mutant(
        "failing-order-tail-reversed",
        "src/discmorse/elimination.py",
        "tuple(k for k in range(n) if not T >> k & 1)",
        "tuple(k for k in reversed(range(n)) if not T >> k & 1)",
        (FAILING_ORDERS,),
    ),
    Mutant(
        "submatrix-cut-to-its-diagonal",
        "src/discmorse/elimination.py",
        ".get(tau, {}).items() if s in lowers}",
        ".get(tau, {}).items() if s == sigma}",
        (FAILING_ORDERS,),
    ),
    Mutant(
        "empty-set-marked-clean",
        "src/discmorse/elimination.py",
        "clean = {(1 << n) - 1}",
        "clean = {(1 << n) - 1, 0}",
        (FAILING_ORDERS,),
    ),
    Mutant(
        "sampled-failure-one-order-early",
        "src/discmorse/elimination.py",
        "for t, shuffled in enumerate(_sampled_orders(pairs, max_orders), 2):",
        "for t, shuffled in enumerate(_sampled_orders(pairs, max_orders), 1):",
        (FAILING_ORDERS,),
    ),
    # --- Thom-Smale from one V-path walk ---
    Mutant(
        "vpath-step-sign-flipped",
        "src/discmorse/morse.py",
        "step = 1 if (i + j) % 2 else -1",
        "step = -1 if (i + j) % 2 else 1",
        (
            "tests/test_morse.py::test_path_counts_signed_agrees_with_enumeration",
            "tests/test_morse.py::test_path_counts_signed_agrees_with_enumeration_on_drawn_matchings",
        ),
    ),
    Mutant(
        "morse-column-face-sign-flipped",
        "src/discmorse/morse.py",
        "acc.get(crit, 0) + (-n if j % 2 else n)",
        "acc.get(crit, 0) + (n if j % 2 else -n)",
        (DIGEST, "tests/test_morse.py::test_thom_smale_columns_agree_with_enumeration"),
    ),
    Mutant(
        "degree-filter-off-by-one",
        "src/discmorse/morse.py",
        "if len(cells[t]) - 1 in sizes]",
        "if len(cells[t]) - 2 in sizes]",
        (
            "tests/test_morse.py::test_only_degrees_with_a_critical_cell_below_are_walked",
            "tests/test_morse.py::test_thom_smale_preserves_homology_on_random_matchings",
            "tests/test_morse.py::test_thom_smale_preserves_homology_on_drawn_matchings",
        ),
    ),
    # --- a matching handed on as a field makes its pairs on first read ---
    Mutant(
        "eager-trusted-pairs",
        "src/discmorse/matchings.py",
        "        M._pairs = None\n",
        "        M._pairs = {H.cells[c]: H.cells[t] for c, t in enumerate(v) if t >= 0}\n",
        (
            "tests/test_matchings.py::test_a_collapse_and_its_thom_smale_complex_read_no_pair",
            "tests/test_matchings.py::test_library_built_matchings_equal_their_checked_copies",
        ),
    ),
    Mutant(
        "lazy-pairs-drop-cell-0",
        "src/discmorse/matchings.py",
        "for c, t in enumerate(v) if t >= 0}\n        return up",
        "for c, t in enumerate(v) if t >= 0 and c}\n        return up",
        ("tests/test_matchings.py::test_library_built_matchings_equal_their_checked_copies",),
    ),
    # --- homologous on the Morse complex ---
    Mutant(
        "psi-sign-flipped-on-odd-first-vertices",
        "src/discmorse/euler.py",
        "psi[i] = psi.get(i, 0) + m * n",
        "psi[i] = psi.get(i, 0) + (-m if e[0] % 2 else m) * n",
        (
            "tests/test_euler.py::test_triangle_loops_see_the_z2_torsion",
            "tests/test_euler.py::test_homologous_agrees_with_the_whole_complex_oracle",
        ),
    ),
    Mutant(
        "span-without-the-past-the-rank-check",
        "src/discmorse/homology.py",
        "zip(u, factors)) and not any(u[len(factors):])",
        "zip(u, factors))",
        (
            "tests/test_homology.py::test_in_column_span_agrees_with_the_row_transform",
            "tests/test_homology.py::test_in_column_span_agrees_with_the_row_transform_on_drawn_matrices",
        ),
    ),
    Mutant(
        "span-without-the-divisibility-check",
        "src/discmorse/homology.py",
        "return all(a % d == 0 for a, d in zip(u, factors)) and not",
        "return not",
        (
            "tests/test_homology.py::test_in_column_span_agrees_with_the_row_transform",
            "tests/test_homology.py::test_in_column_span_agrees_with_the_row_transform_on_drawn_matrices",
        ),
    ),
    # --- integers only at the numeric entry points ---
    Mutant(
        "orientation-takes-floats-and-bools",
        "src/discmorse/complexes.py",
        "if type(sign) is not int or sign not in (1, -1):",
        "if sign not in (1, -1):",
        ("tests/test_chains.py::test_orientation_values_other_than_one_are_refused",),
    ),
    Mutant(
        "chain-complex-takes-floats-and-bools",
        "src/discmorse/chains.py",
        "                    if type(v) is not int:\n",
        "                    if False:\n",
        ("tests/test_chains.py::test_constructor_checks_shapes_and_labels",),
    ),
    Mutant(
        "smith-form-takes-floats-and-bools",
        "src/discmorse/homology.py",
        "for v in row if type(v) is not int]",
        "for v in row if False]",
        ("tests/test_homology.py::test_snf_shapes_and_empty_matrices",),
    ),
    # --- as_cell names a label that does not compare ---
    Mutant(
        "as-cell-sorts-outside-try",
        "src/discmorse/complexes.py",
        "    try:\n        vs = tuple(sorted(labels))\n    except TypeError:",
        "    vs = tuple(sorted(labels))\n    if False:",
        ("tests/test_complexes.py::test_as_cell_checks_every_input_outside_plain_ints",),
    ),
    # --- property twins and their seeded originals catch the same mutant ---
    Mutant(
        "thom-smale-counts-matched-cells-as-critical/twin",
        "src/discmorse/morse.py",
        "critical = [c for c, t in enumerate(v) if t == -1]",
        "critical = [c for c, t in enumerate(v) if t < 0]",
        ("tests/test_chains.py::test_sparse_storage_agrees_with_the_incidence_oracle",),
    ),
    Mutant(
        "thom-smale-counts-matched-cells-as-critical/seeded",
        "src/discmorse/morse.py",
        "critical = [c for c, t in enumerate(v) if t == -1]",
        "critical = [c for c, t in enumerate(v) if t < 0]",
        ("tests/test_morse.py::test_homology_is_orientation_independent",),
    ),
    Mutant(
        "smith-diagonal-left-negative/twin",
        "src/discmorse/homology.py",
        "        for s in range(rank):\n            if self._diag(s) < 0:\n",
        "        for s in range(rank):\n            if False:\n",
        ("tests/test_homology.py::test_snf_diagonal_matches_sympy_on_drawn_matrices",),
    ),
    Mutant(
        "smith-diagonal-left-negative/seeded",
        "src/discmorse/homology.py",
        "        for s in range(rank):\n            if self._diag(s) < 0:\n",
        "        for s in range(rank):\n            if False:\n",
        ("tests/test_homology.py::test_snf_diagonal_matches_sympy",),
    ),
)
