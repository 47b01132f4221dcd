"""Prime factorizations and sum-of-divisors arithmetic of Catalan numbers,
plus sweeping verifiers for the divisibility claims built on them.

Catalan indices are plain nonnegative ints in the standard convention
(index 0 gives 1); see catsigma.catalan for the one-based offset used by
some references.
"""

__version__ = "0.1.0"

from .asymptotics import TWIN_PRIME_CONSTANT, OmegaRecord, omega_factorial, omega_record, omega_table
from .catalan import (
    CATALAN_EXACT_CEILING,
    ONE_BASED_OFFSET,
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
from .divisor import DivisorPairing, divisor_list, divisor_pairing, sigma_exact, sigma_mod, sigma_mod_block
from .errors import CapacityError, InconclusiveError, InconsistencyError
from .factorint import (
    Factorization,
    TwoAdicSplit,
    binary_digit_sum,
    factor_u64,
    legendre_valuation,
    two_adic_split,
)
from .primes import Mod6Class, PrimeTable, build_prime_table, classify_mod6, is_prime

__all__ = [
    "__version__",
    "TWIN_PRIME_CONSTANT",
    "OmegaRecord",
    "omega_factorial",
    "omega_record",
    "omega_table",
    "CATALAN_EXACT_CEILING",
    "ONE_BASED_OFFSET",
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
    "DivisorPairing",
    "divisor_list",
    "divisor_pairing",
    "sigma_exact",
    "sigma_mod",
    "sigma_mod_block",
    "CapacityError",
    "InconclusiveError",
    "InconsistencyError",
    "Factorization",
    "TwoAdicSplit",
    "binary_digit_sum",
    "factor_u64",
    "legendre_valuation",
    "two_adic_split",
    "Mod6Class",
    "PrimeTable",
    "build_prime_table",
    "classify_mod6",
    "is_prime",
]
