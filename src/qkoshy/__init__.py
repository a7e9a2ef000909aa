"""Exact verification engine for q-analogues of Koshy's Catalan formula."""

from .errors import (
    DivisionInexact,
    DomainError,
    InvariantViolation,
    MalformedLabel,
    NoRepeatedPart,
    QKoshyError,
    ScaleLimit,
    UnknownIdentity,
    UnsupportedDivisor,
)
from .poly import (
    Poly,
    RationalForm,
    Shape,
    exact_div,
    rational_equal,
    shape,
    unimodal_break_index,
)
from .qfuncs import (
    TTermForms,
    ballot_number,
    catalan,
    cyclotomic,
    narayana_number,
    narayana_poly,
    q_ballot,
    q_binomial,
    q_binomial_sq,
    q_catalan,
    q_int,
    q_lucas_check,
    q_pochhammer,
    t_term,
    t_term_poly,
)
from .dyckpaths import (
    LabeledPath,
    PathStats,
    Tower,
    analyze,
    decompose_towers,
    distribution,
    is_dyck,
    is_elevated,
    iter_ballot_paths,
    iter_ballot_tuples,
    iter_dyck,
    iter_elevated,
    labeled_gen,
    lemma1_forward,
    lemma1_inverse,
    lemma2_forward,
    lemma2_inverse,
    major_index,
)
from .partitions import (
    PartitionPair,
    enumerate_partitions,
    involution_step,
    iter_pairs,
    lambda_side,
    level_family,
    level_range,
    mu_side,
    nu_side,
    pair_box,
    rank_family_gen,
    render_partition,
    repetition_statistic,
)
from .registry import IdentityReport, list_identities, verify
from .conjecture import SweepReport, conjecture_poly, sweep

__version__ = "0.1.0"
