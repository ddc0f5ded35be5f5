"""Exact Kochen-Specker set encoding, uncolorability proofs, and error-bound
analysis of the associated non-contextuality inequality.

Public surface: the exact vector model (:mod:`ksbound.model`), the ``ksset 1``
text format and bundled catalog (:mod:`ksbound.format`), coloring and defect
search (:mod:`ksbound.coloring`), analytic bounds and critical rates
(:mod:`ksbound.bounds`), and the seeded Monte Carlo validator
(:mod:`ksbound.simulate`).
"""
from types import ModuleType as _ModuleType

from .bounds import (
    CriticalRate,
    TABLE_ROWS,
    TableRow,
    critical_rate,
    delta_analytic,
    delta_lower_bound,
    epsilon_analytic,
    independent_error_lhs,
    inequality_margin,
    table_report,
)
from .coloring import (
    ColoringResult,
    DefectReport,
    ValidationReport,
    Violation,
    assignment_defect,
    find_coloring,
    min_defect,
    validate_orthogonality,
)
from .format import (
    ParseError,
    SetDocument,
    catalog_text,
    list_catalog,
    load_catalog,
    parse_document,
    serialize_set,
)
from .model import (
    MAX_DIMENSION,
    MAX_RADICAND,
    Context,
    DimensionMismatchError,
    ExactScalar,
    KsSet,
    RayVector,
    RingMismatchError,
    SetStats,
    build_stats,
    inner_product,
    is_square_free,
    make_set,
    orthogonal,
    same_ray,
)
from .simulate import (
    SimSummary,
    TrialModel,
    default_base,
    simulate_model,
)

__version__ = "0.1.0"

# the imports above are the one list of public names; submodules stay out, so
# that ``from ksbound import *`` cannot shadow the builtin ``format``
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
