"""Discrete Morse matchings, critical-cell complexes, and exact homology.

The package is organized bottom-up:

- complexes, chains: simplicial complexes, subdivision, staircase
  products; ``ChainComplex(bases, boundaries)`` stores each boundary as
  sparse columns ``boundaries[k] = {label: {face: coeff}}``.
- matchings: (Morse) matchings on the Hasse diagram, which is the cell
  index ``X.index()``; acyclicity, collapses, greedy and randomized
  matching search. The package calls ``X.index()``; its alias ``hasse``
  is kept for the benchmark.
- morse: the chain complex on critical cells from signed V-path counts,
  and ``simplicial_homology``, which runs the Smith form on that complex
  only.
- elimination: unit-pivot Gaussian elimination of matched pairs, and the
  check that elimination orders agree.
- homology: the integer Smith normal form diagonal, Betti numbers,
  torsion, and cycle classification.
- euler: complete matchings, Euler chains, rerouting, homologous tests.
- io, corpus, cli: text formats, bundled examples, command line.
"""

from .chains import ChainComplex, chain_complex
from .complexes import (
    Cell,
    SimplicialComplex,
    Subdivision,
    as_cell,
    barycentric_subdivision,
    product_triangulation,
)
from .elimination import (
    EliminationError,
    EliminationStep,
    all_orders_agree,
    eliminate_sequence,
    gaussian_eliminate,
)
from .errors import DiscMorseError, MatchingError, NotMorseError, ParseError
from .euler import (
    EulerChain,
    complete_matching,
    cone_rewire,
    euler_chain_from_matching,
    homologous,
    reroute_along_vpath,
)
from .homology import (
    CycleClass,
    HomologySummary,
    SmithNormalForm,
    cycle_class,
    homology,
    smith_normal_form,
)
from .matchings import (
    Matching,
    closed_vpath,
    critical_cells,
    find_closed_vpath,
    find_collapse,
    greedy_morse_matching,
    hasse,
    is_morse,
    random_morse_matching,
    validate_matching,
)
from .morse import (
    reorient,
    simplicial_homology,
    thom_smale_complex,
)

__version__ = "0.1.0"
