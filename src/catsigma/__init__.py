"""Prime factorizations and sum-of-divisors arithmetic of Catalan numbers,
plus sweeping verifiers for the divisibility claims built on them.

Catalan indices are plain nonnegative ints in the standard convention
(index 0 gives 1).
"""

__version__ = "0.1.0"

from .asymptotics import TWIN_PRIME_CONSTANT, OmegaRecord, omega_record, omega_table
from .catalan import (
    CATALAN_EXACT_CEILING,
    asymptotic_log,
    catalan_exact,
    catalan_factorization,
    catalan_v2,
    catalan_valuation,
    convolution_check,
    digit_count,
    product_form,
    stirling_log_estimate,
)
from .claims import (
    FAMILY_MODULI,
    SMALL_INDEX_EXCEPTIONS,
    ConjectureSearch,
    CoprimalityEdge,
    VerificationOutcome,
    analyze_coprimality,
    coprimality_graph,
    search_conjecture,
    verify_erdos_interval,
    verify_family,
    verify_lemma_six,
    verify_mersenne_parity,
    verify_sigma_catalan,
    verify_theorem_6kminus1,
)
from .divisor import sigma_block, sigma_exact, sigma_mod
from .errors import CapacityError, InconclusiveError, InconsistencyError
from .factorint import Factorization, factor_u64, legendre_valuation
from .primes import PrimeTable, build_prime_table, is_prime

__all__ = [
    "__version__",
    "TWIN_PRIME_CONSTANT",
    "OmegaRecord",
    "omega_record",
    "omega_table",
    "CATALAN_EXACT_CEILING",
    "asymptotic_log",
    "catalan_exact",
    "catalan_factorization",
    "catalan_v2",
    "catalan_valuation",
    "convolution_check",
    "digit_count",
    "product_form",
    "stirling_log_estimate",
    "FAMILY_MODULI",
    "SMALL_INDEX_EXCEPTIONS",
    "ConjectureSearch",
    "CoprimalityEdge",
    "VerificationOutcome",
    "analyze_coprimality",
    "coprimality_graph",
    "search_conjecture",
    "verify_erdos_interval",
    "verify_family",
    "verify_lemma_six",
    "verify_mersenne_parity",
    "verify_sigma_catalan",
    "verify_theorem_6kminus1",
    "sigma_block",
    "sigma_exact",
    "sigma_mod",
    "CapacityError",
    "InconclusiveError",
    "InconsistencyError",
    "Factorization",
    "factor_u64",
    "legendre_valuation",
    "PrimeTable",
    "build_prime_table",
    "is_prime",
]
