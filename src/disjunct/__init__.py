"""Construction, verification and analysis of d-disjunct matrices.

A t x n binary matrix is d-disjunct when the boolean sum of any d columns
contains no other column; such matrices are exactly the nonadaptive
group-testing schemes that identify up to d positives among n items in t
tests.  This package provides bit-packed matrices, an exact disjunctness
checker with witnesses, affine-plane and random constructions, the naive
decoder with exact verification of its guarantee, private-pair analysis,
evaluation of the known row lower bounds, and exhaustive searches for the
smallest schemes that beat individual testing.
"""

from .bounds import (
    KAPPA,
    BoundReport,
    TDNBound,
    Theorem1Certificate,
    Theorem2Audit,
    ceil_kappa_times,
    floor_kappa_times,
    lower_bounds,
    t_dn_lower_bound,
    theorem1_certificate,
    theorem2_audit,
)
from .constructions import (
    affine_plane_matrix,
    identity_matrix,
    random_disjunct_corpus,
)
from .disjunctness import (
    DisjunctVerdict,
    Witness,
    delete_column_and_rows,
    find_isolated_columns,
    is_d_disjunct,
    max_disjunct_order,
    peel_to_core,
)
from .group_testing import (
    BudgetExceededError,
    IdentificationReport,
    OutcomeVector,
    naive_decode,
    outcomes,
    verify_identification,
)
from .matrix import (
    BinaryMatrix,
    DmatFormatError,
    load_matrix,
    read_matrix,
    save_matrix,
    write_matrix,
)
from .pairs import ColumnPairs, PairAnalysis, analyze_pairs, formula_one
from .search import SearchCertificate, exhaustive_T

__version__ = "0.1.0"

__all__ = [
    "KAPPA",
    "BinaryMatrix",
    "BoundReport",
    "BudgetExceededError",
    "ColumnPairs",
    "DisjunctVerdict",
    "DmatFormatError",
    "IdentificationReport",
    "OutcomeVector",
    "PairAnalysis",
    "SearchCertificate",
    "TDNBound",
    "Theorem1Certificate",
    "Theorem2Audit",
    "Witness",
    "affine_plane_matrix",
    "analyze_pairs",
    "ceil_kappa_times",
    "delete_column_and_rows",
    "exhaustive_T",
    "find_isolated_columns",
    "floor_kappa_times",
    "formula_one",
    "identity_matrix",
    "is_d_disjunct",
    "load_matrix",
    "lower_bounds",
    "max_disjunct_order",
    "naive_decode",
    "outcomes",
    "peel_to_core",
    "random_disjunct_corpus",
    "read_matrix",
    "save_matrix",
    "t_dn_lower_bound",
    "theorem1_certificate",
    "theorem2_audit",
    "verify_identification",
    "write_matrix",
]
