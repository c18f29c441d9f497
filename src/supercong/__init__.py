"""Exact and p-adic verification of binomial-sum congruences, curve point
counts over prime fields, and the companion identity suite.

Public surface: the p-adic residue arithmetic (:mod:`supercong.padic`),
combinatorial building blocks (:mod:`supercong.combinatorics`), character
sums over curves (:mod:`supercong.curves`), and the congruence/identity
catalogs with their sweep engine (:mod:`supercong.congruences`).
"""

from .combinatorics import (
    bernoulli_number,
    binomial_p_valuation,
    catalan,
    dual_transform,
    euler_number,
    euler_polynomial,
    euler_polynomial_half_grid,
)
from .congruences import (
    CaseBlock,
    CongruenceFamily,
    ExactIdentity,
    IdentityResult,
    SuiteReport,
    TERM_KINDS,
    VerificationReport,
    family_catalog,
    family_ids,
    get_family,
    identity_catalog,
    identity_ids,
    run_identities,
    run_suite,
    truncated_sum,
    verify_family_case,
)
from .curves import (
    TwoSquares,
    char_sum_a,
    cornacchia_two_squares,
    count_points,
    thm11_rhs,
    weighted_char_sum,
    weighted_point_count,
)
from .errors import (
    InvalidPrime,
    NonUnitDivisor,
    NotPAdicInteger,
    PrecisionMismatch,
    SupercongError,
    UnknownId,
    WeightZero,
    WrongResidueClass,
)
from .padic import (
    is_prime,
    legendre_symbol,
    padic_from_rational,
    primes_between,
)

__version__ = "0.1.0"

__all__ = [
    "CaseBlock",
    "CongruenceFamily",
    "ExactIdentity",
    "IdentityResult",
    "InvalidPrime",
    "NonUnitDivisor",
    "NotPAdicInteger",
    "PrecisionMismatch",
    "SuiteReport",
    "SupercongError",
    "TERM_KINDS",
    "TwoSquares",
    "UnknownId",
    "VerificationReport",
    "WeightZero",
    "WrongResidueClass",
    "bernoulli_number",
    "binomial_p_valuation",
    "catalan",
    "char_sum_a",
    "cornacchia_two_squares",
    "count_points",
    "dual_transform",
    "euler_number",
    "euler_polynomial",
    "euler_polynomial_half_grid",
    "family_catalog",
    "family_ids",
    "get_family",
    "identity_catalog",
    "identity_ids",
    "is_prime",
    "legendre_symbol",
    "padic_from_rational",
    "primes_between",
    "run_identities",
    "run_suite",
    "thm11_rhs",
    "truncated_sum",
    "verify_family_case",
    "weighted_char_sum",
    "weighted_point_count",
    "__version__",
]
