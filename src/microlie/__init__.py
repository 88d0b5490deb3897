"""Exact nilpotent-infinitesimal calculus on groupoids.

The package computes with square-zero infinitesimals over exact rationals
and uses them to realize bisection flows of groupoids, the Lie algebra of
sections of the Lie algebroid, and the strong-difference calculus of
microsquares and microcubes.  Every algebraic law it implements is
machine-checked, with zero tolerance, by the suites in
:mod:`microlie.harness` (CLI: ``microlie verify``).
"""

from .weil import (
    D0,
    DomainMismatchError,
    InfinitesimalDomain,
    Jet,
    RestrictionError,
    SubstitutionError,
    WeilElement,
    ZeroMonomialError,
    generators,
)
from .poly import Poly, identity_map
from .spaces import (
    AffineSpace,
    CompatibilityError,
    InternalInvariantError,
    MatrixGroup,
    MembershipError,
    Tangent,
    WPoint,
    psi,
    relative_strong_difference,
    relative_strong_difference_curried,
    restrict_point,
    sigma_perm,
    strong_difference,
    tangent_combine,
)
from .groupoids import (
    AGSection,
    Arrow,
    GroupoidInstance,
    GroupoidMismatchError,
    InvertibilityError,
    NotDPointError,
    PairGroupoid,
    TrivialGaugeGroupoid,
    WBisection,
    WSection,
    compose_arrows,
    formal_inverse,
    invert_bisection,
    section_at,
    star,
    star_word,
)
from .liealg import (
    bracket,
    bracket_via_strong_difference,
    circledast,
    commutator_square,
    lambda_witness,
    lie_derivative,
    pushforward,
    six_microcubes,
)
from .oracles import PolyVectorField, classical_vf_bracket, matrix_table_bracket
from .vfexpr import VectorFieldSyntaxError, format_vector_field, parse_vector_field

__version__ = "0.1.0"
