"""Workbench for homogeneous algebras.

Exact rational linear algebra on word-indexed tensors, graded quotient
machinery, dual algebras, contraction-complex homology, Euler
characteristic identities, the catalogued cubic algebras, and the
plactic combinatorial oracle: Schensted insertion and tableau counts.
"""

from .algebra import (
    DEFAULT_WORD_LIMIT,
    GradedAlgebra,
    MemoryGuardError,
    Presentation,
    free_presentation,
)
from .catalog import (
    CatalogEntry,
    artin_schelter,
    centrality_check,
    dual_relations_check,
    gl_invariance,
    make_entry,
    paraboson,
    parafermion,
    plactic,
)
from .koszul import (
    ComplexSlice,
    GorensteinReport,
    HomologyReport,
    KoszulProbeReport,
    build_contraction_slice,
    build_koszul_slice,
    gorenstein_probe,
    homology,
    koszul_probe,
)
from .linalg import (
    DegreeMismatchError,
    InternalConsistencyError,
    Matrix,
    Subspace,
    TensorVector,
    Word,
    all_words,
    annihilator,
    intersect,
    rref,
    shift,
    shifted_span,
    word_vector,
)
from .tableaux import (
    Tableau,
    count_tableaux,
    dimension_cross_check,
    reading_word,
    row_insert,
    word_to_tableau,
)
from .relfile import (
    RelationParseError,
    format_presentation,
    parse_relation_file,
    parse_relations,
    write_relation_file,
)
from .series import (
    IntSeries,
    NonIntegerCoefficientError,
    TruncationError,
    chi_direct,
    chi_via_product,
    dual_q_series,
    koszul_necessary,
    poincare_series,
)

__version__ = "0.1.0"
