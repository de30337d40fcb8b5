"""gossez-lab: exact verification of Gossez's skew operator and its duals.

Exact rational computation of the operator, its adjoint model, couplings,
Fitzpatrick functions and truncated conjugates in two dual systems, plus
property checkers that certify or refute monotone-operator properties at
desk scale.
"""

from .adjoint import apply_Gstar
from .checks import ARTIFACT_VERSION, CATALOG, CheckConfig, ReportDoc, emit, run_checks
from .fitz import (
    ExtendedRational,
    MINUS_INF,
    OP_G_FIRST,
    OP_G_SECOND,
    OP_NEGG_SECOND,
    OPERATORS,
    PLUS_INF,
    Operator,
    SampledGraph,
    TruncatedAnnihilator,
    annihilator_truncated,
    annihilator_violation,
    divergence_certificate,
    fitz_sampled,
    orthogonality_report,
)
from .gossez import (
    RangeCertificate,
    apply_G,
    range_ratio_family,
    solve_G,
    weakstar_approximate,
)
from .props import (
    ProbeSet,
    PropertyVerdict,
    dichotomy_crosscheck,
    extension_probe,
    is_monotone,
    ni_witness_search,
    representability_check,
)
from .spaces import (
    DualSystem,
    ModelMeasure,
    OutsideModelDomain,
    PairPoint,
    SparseSeq,
    SystemMismatchError,
    TailSeq,
    couple,
    coupling_value,
    format_rational,
    natural_couple,
    pair_measure,
    parse_rational,
)

__version__ = ARTIFACT_VERSION
