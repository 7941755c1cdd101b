"""Certified idempotent calculus over normed rings, at desk scale.

The library certifies what it computes: geometric-series inverses with tail
bounds, almost-idempotents polished to true idempotents by integer-
coefficient series, proximity conjugations, idempotent class bookkeeping
(ranks, indicator vectors, normalized traces), transfer of classes along
towers of normed rings, trivialization of idempotent paths, and the
column-sparse operator bookkeeping behind the corner/collapse/swindle
story.  Every numerical result carries a machine-checkable certificate of
named inequalities.
"""

from .calculus import (
    CertifiedIdempotent,
    CertifiedUnit,
    catalan,
    certify_idempotent,
    certify_unit,
    conjugating_unit,
    conjugation_bound,
    conjugation_threshold,
    corrected_coefficient,
    h_bound,
    intertwiner,
    lift_idempotent,
    neumann_inverse,
    printed_coefficient,
    scalar_lift_rational,
)
from .colimit import (
    CompareReport,
    LimitElement,
    colim_norm_bound,
    default_eps,
    k0_colimit_compare,
    level_class_key,
    transfer_injective,
    transfer_surjective,
)
from .core import (
    AlgebraInstance,
    CertEntry,
    Certificate,
    NormValue,
    ScaledIntegers,
    check_norm_axioms,
    tensor_norm_int,
)
from .deloop import (
    CollapseCertificate,
    CornerIdempotent,
    EndOperator,
    end_norm,
    finite_collapse_certificate,
    swindle_conjugator,
)
from .errors import (
    ConfigError,
    IdemkitError,
    PathError,
    PreconditionError,
    SeriesTruncationError,
    TowerTooShallowError,
)
from .homotopy import (
    IdempotentPath,
    conjugation_path,
    homotopy_invariance_experiment,
    path_trivialize,
    rotation_path,
)
from .instances import (
    COMPLEX,
    ComplexScalars,
    MatrixAlgebra,
    SampledFunctionAlgebra,
    SequenceAlgebra,
    Tower,
    conjugated_projector,
    make_cantor_tower,
    make_uhf_tower,
    over_complex,
    parse_instance,
    parse_tower,
    random_almost_idempotent,
    registered_instances,
)
from .k0 import (
    EquivalenceResult,
    IdempotentClass,
    K0Presentation,
    are_equivalent,
    classify,
    k0_of_instance,
    normalized_trace_key,
)

__version__ = "0.1.0"
