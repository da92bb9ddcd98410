"""Exact bigraded cohomology of coordinate subspace arrangement complements.

Three independent engines compute the same groups: a bigraded Koszul-type
cochain algebra, a subset-restriction oracle built on reduced simplicial
cohomology, and a logarithmic Čech model on the face-indexed cover.  On
top of the bigraded table the package derives the Hodge and weight
filtration dimensions and the diagonal Hodge numbers of the complement,
constructs resolvent ladders for homology cycles of the product-cell
model, and evaluates exact periods — rational multiples of powers of
2πi — against the logarithmic classes.  All arithmetic is exact
(integers and fractions); nothing is floating point.
"""

from .cech import CechChain, Resolvent, build_resolvent, canonical_tuple, validate_resolvent
from .cells import (
    Cell,
    apply_boundary,
    boundary_matrix,
    cell_basis,
    cell_boundary,
    cell_homology,
    homology_cycle_basis,
)
from .errors import CompositionError, InvariantViolation, ParseError
from .hochster import (
    coboundary_matrix,
    hochster_bigraded,
    hochster_cohomology,
    hochster_summands,
    reduced_cohomology,
)
from .koszul import (
    differential_matrix,
    koszul_basis,
    koszul_bigraded,
    koszul_cohomology,
    koszul_differential,
)
from .linalg import (
    HomologyResult,
    IntMatrix,
    determinant_rational,
    homology_of_pair,
    invariant_factor_chain,
    rank,
    smith_normal_form,
)
from .logforms import (
    LogCochain,
    Period,
    block_matrix,
    block_tuples,
    integrate_cell,
    log_cohomology_basis,
    log_cohomology_dim,
    period_matrix,
    period_of_cycle,
)
from .report import (
    BettiTable,
    HodgeReport,
    betti_table,
    describe_complex,
    filtration_dims,
    hodge_report,
    mixed_hodge_numbers,
    render_betti,
    render_report,
    report_payload,
)
from .simplicial import (
    SimplicialComplex,
    enumerate_complexes,
    face_key,
    full_subcomplex,
    make_face,
    parse_complex,
)

__version__ = "1.0.0"

__all__ = [
    "BettiTable",
    "CechChain",
    "Cell",
    "CompositionError",
    "HodgeReport",
    "HomologyResult",
    "IntMatrix",
    "InvariantViolation",
    "LogCochain",
    "ParseError",
    "Period",
    "Resolvent",
    "SimplicialComplex",
    "apply_boundary",
    "betti_table",
    "block_matrix",
    "block_tuples",
    "boundary_matrix",
    "build_resolvent",
    "canonical_tuple",
    "cell_basis",
    "cell_boundary",
    "cell_homology",
    "coboundary_matrix",
    "describe_complex",
    "determinant_rational",
    "differential_matrix",
    "enumerate_complexes",
    "face_key",
    "filtration_dims",
    "full_subcomplex",
    "hochster_bigraded",
    "hochster_cohomology",
    "hochster_summands",
    "hodge_report",
    "homology_cycle_basis",
    "homology_of_pair",
    "integrate_cell",
    "invariant_factor_chain",
    "koszul_basis",
    "koszul_bigraded",
    "koszul_cohomology",
    "koszul_differential",
    "log_cohomology_basis",
    "log_cohomology_dim",
    "make_face",
    "mixed_hodge_numbers",
    "parse_complex",
    "period_matrix",
    "period_of_cycle",
    "rank",
    "reduced_cohomology",
    "render_betti",
    "render_report",
    "report_payload",
    "smith_normal_form",
    "validate_resolvent",
]
