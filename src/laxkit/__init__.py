"""Behavioural hemimetrics on finite coalgebras via fuzzy relation liftings.

The library computes quantitative (bi)simulation distances for a family of
transition types (finite sets, finite distributions, labels, pairs,
optional values), checks distance certificates, probes liftings against
their algebraic laws, and evaluates and synthesizes formulas of a
characteristic quantitative modal logic.  All arithmetic is exact over
rationals in the unit interval.
"""

__version__ = "0.1.0"

from .core import (
    Carrier,
    FuzzyRel,
    LaxkitError,
    RelView,
    StructureError,
    companion,
    compose,
    converse,
    diagonal,
    graph,
    is_hemimetric,
    is_pseudometric,
    sat_add,
    sat_sub,
)
from .functors import (
    Const,
    ConstEl,
    DFin,
    DistEl,
    FunctorElement,
    FunctorSpec,
    Id,
    IdEl,
    Maybe,
    MaybeEl,
    NOTHING,
    PFin,
    Pair,
    PairEl,
    SetEl,
    base,
    fdist,
    fset,
    just,
)
from .systems import Coalgebra, ValidationReport, disjoint_union, validate
from .liftings import (
    ConstLift,
    Discount,
    Hausdorff,
    IdLift,
    KantorovichD,
    KantorovichGrid,
    LiftingSpec,
    MaybeLift,
    PairMax,
    PairSum,
    WassersteinD,
    grid_error_bound,
    grid_kantorovich_value,
    lift_value,
    require_match,
)
from .modalities import PredicateLifting
from .axioms import AxiomConfig, AxiomReport, check_axioms
from .distance import (
    Certificate,
    CertificateVerdict,
    DistanceResult,
    behavioural_distance,
    check_certificate,
    distance_chain,
)
from .logic import (
    And,
    Const as FormulaConst,
    Formula,
    MinusC,
    Modal,
    MossDelta,
    MossNabla,
    Neg,
    Or,
    PlusC,
    evaluate,
    push_negations,
    semantics,
)
from .formparse import FormulaSyntaxError, parse_formula, print_formula
from .moss import (
    logical_distance,
    moss_modality,
    separation_witness,
    synthesize,
    synthesize_levels,
    witness_value,
)
