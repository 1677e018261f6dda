"""franelcheck: exact and modular verification of cubed-binomial congruences.

Compute the classic combinatorial sequences (cubed-row sums, their
polynomial refinements, Apery numbers, central and shifted binomials)
exactly and modulo prime powers p^e (e <= 4), run a registry of known
congruences over prime ranges, and batch-test user statements written in a
small expression language.
"""

from .identities import IdentityOutcome, run_identity_suite
from .mining import (
    MomentConstant,
    QuadraticRepresentation,
    ScanInconsistencyError,
    check_3adic_integrality,
    cornacchia_x2_3y2,
    scan_ar,
)
from .modring import (
    NonInvertibleError,
    PrimePowerRing,
    RationalParam,
    Residue,
    RingMismatchError,
    exact_div_p,
    fermat_quotient2,
    from_rational,
    inv,
    jacobi,
    ring_new,
)
from .primes import is_prime, primes_in_range
from .report import CheckResult, Report
from .sequences import (
    PrimeContext,
    apery_exact,
    binom_exact,
    franel_exact,
    franel_exact_list,
    franel_poly_exact,
    generalized_franel,
    get_context,
)
from .suite import REGISTRY, check_ids, run_check, run_suite

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "IdentityOutcome",
    "MomentConstant",
    "NonInvertibleError",
    "PrimeContext",
    "PrimePowerRing",
    "QuadraticRepresentation",
    "RationalParam",
    "REGISTRY",
    "Report",
    "Residue",
    "RingMismatchError",
    "ScanInconsistencyError",
    "apery_exact",
    "binom_exact",
    "check_3adic_integrality",
    "check_ids",
    "cornacchia_x2_3y2",
    "exact_div_p",
    "fermat_quotient2",
    "franel_exact",
    "franel_exact_list",
    "franel_poly_exact",
    "from_rational",
    "generalized_franel",
    "get_context",
    "inv",
    "is_prime",
    "jacobi",
    "primes_in_range",
    "ring_new",
    "run_check",
    "run_identity_suite",
    "run_suite",
    "scan_ar",
]
