"""Catalan numbers: exact values, factorization from factorial valuations,
shifted product forms, parity, digit counts, and closed-form growth estimates.

Indexing is the standard one throughout: catalan_exact(0) == 1 and
catalan_exact(n) == C(2n, n) / (n + 1).  References that start the sequence
at index 1 call our catalan_exact(n - 1) their nth term; use
ONE_BASED_OFFSET to convert rather than re-deriving formulas.
"""

from __future__ import annotations

from math import factorial, floor, isinf, log, pi, ulp
from typing import Literal

from .errors import CapacityError, InconsistencyError
from .factorint import Factorization, legendre_valuation
from .primes import PrimeTable, build_prime_table, is_prime

# Offset between one-based sequence conventions and ours (see module doc).
ONE_BASED_OFFSET = 1

# Largest index accepted for exact big-integer evaluation; catalan_exact(10**6)
# has about 602,000 digits, multiplied out of its factorization in 3.3-4.5 s
# on a 2-vCPU Xeon (0.1 s at 1.5*10**5; the cost grows about quadratically).
CATALAN_EXACT_CEILING = 1_000_000

_LN2 = log(2)
_LN4 = log(4)
_LN_PI = log(pi)


def catalan_exact(n: int) -> int:
    """The nth Catalan number as an exact integer: its factorization over a
    table to 2n, multiplied out (0.1 s at 1.5*10**5, 3.3-4.5 s at 10**6)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > CATALAN_EXACT_CEILING:
        raise CapacityError(f"exact evaluation capped at index {CATALAN_EXACT_CEILING}")
    return catalan_factorization(n, build_prime_table(max(2 * n, 2))).value


def _valuation(n: int, p: int) -> int:
    # v_p of (2n)! / ((n+1)! n!) for a known prime p
    t = 2 * n
    m = n + 1
    v = 0
    q = p
    while q <= t:
        v += t // q - m // q - n // q
        q *= p
    return v


def catalan_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nth Catalan number, as the difference
    of three factorial valuations (the big integer is never formed).  This
    route is independent of _valuation, which catalan_factorization uses."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return legendre_valuation(2 * n, p) - legendre_valuation(n + 1, p) - legendre_valuation(n, p)


def catalan_factorization(n: int, table: PrimeTable) -> Factorization:
    """Factor the nth Catalan number using only factorial valuations over
    the table's primes.  The table must cover 2n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if table.limit < 2 * n:
        raise ValueError(f"table limit {table.limit} does not cover 2n = {2 * n}")
    entries = []
    for p in table.primes_between(1, 2 * n):
        e = _valuation(n, p)
        if e:
            entries.append((p, e))
    return Factorization(tuple(entries))


def catalan_v2(n: int) -> int:
    """2-adic valuation of the nth Catalan number, via Legendre sums.

    Always equals binary_digit_sum(n + 1) - 1; callers that want the
    digit-sum route as an independent check compute it themselves.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _valuation(n, 2)


def product_form(k: int, parity: Literal["even", "odd"]) -> int:
    """Evaluate the shifted product forms of the Catalan sequence.

    even: 2**k     * prod_{j=1}^{k-1} (2k+1+2j) / k!  == catalan_exact(2k)
    odd:  2**(k-1) * prod_{j=1}^{k-1} (2k-1+2j) / k!  == catalan_exact(2k-1)

    The division must be exact; a remainder means the formula was
    transcribed wrong and raises InconsistencyError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if parity == "even":
        numerator = 2**k
        base = 2 * k + 1
    elif parity == "odd":
        numerator = 2 ** (k - 1)
        base = 2 * k - 1
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    for j in range(1, k):
        numerator *= base + 2 * j
    quotient, remainder = divmod(numerator, factorial(k))
    if remainder:
        raise InconsistencyError(f"product form for k={k} ({parity}) did not divide evenly")
    return quotient


def convolution_check(n_max: int) -> bool:
    """True iff the convolution recurrence c[m+1] = sum c[i]*c[m-i]
    reproduces catalan_exact for every index <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    seq = [1]
    for m in range(n_max):
        seq.append(sum(seq[i] * seq[m - i] for i in range(m + 1)))
    return all(seq[n] == catalan_exact(n) for n in range(n_max + 1))


def _decimal_digits(x: int) -> int:
    # exact digit count without going through str() (which caps big ints)
    if x < 10:
        return 1
    digits = max(1, int(x.bit_length() * 0.30103))
    while 10**digits <= x:
        digits += 1
    while 10 ** (digits - 1) > x:
        digits -= 1
    return digits


def digit_count(n: int) -> int:
    """Number of base-10 digits of the nth Catalan number.

    Exact (counted on catalan_exact's integer, about 4 s at the ceiling) up
    to CATALAN_EXACT_CEILING; beyond that the asymptotic estimate is used,
    and the call fails with CapacityError if the estimate lands too close
    to a power of ten to resolve the count."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n <= CATALAN_EXACT_CEILING:
        return _decimal_digits(catalan_exact(n))
    log10 = asymptotic_log(n) / log(10)
    # estimate error envelope: |log10 off| < (9/(8n) + 0.005) / ln 10, plus
    # the float rounding of log10 itself: about six roundings (n, ln 4, the
    # product, the sum, ln 10, the quotient), each within one ulp of log10
    margin = (9 / (8 * n) + 0.005) / log(10) + 8 * ulp(log10) + 1e-9
    frac = log10 - floor(log10)
    if frac < margin or frac > 1 - margin:
        raise CapacityError(f"digit count at index {n} not resolvable from the estimate")
    return floor(log10) + 1


def stirling_log_estimate(k: int) -> float:
    """Natural log of 2**(k/2) * (2**(k-1) / e)**(2**(k-1)), the rough
    growth scale of the odd-index subsequence at k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 1024:
        raise CapacityError("2**(k-1) exceeds the float exponent range")
    half = 2.0 ** (k - 1)
    value = 0.5 * k * _LN2 + half * ((k - 1) * _LN2 - 1.0)
    if isinf(value):
        raise CapacityError("estimate overflows a float")
    return value


def asymptotic_log(n: int, mode: Literal["refined", "coarse"] = "refined") -> float:
    """Natural log of the closed-form growth estimate for catalan_exact(n).

    refined: 4**n / (n**1.5 * sqrt(pi))
    coarse:  4**n / (sqrt(pi * n) * (n + 1))

    Raises CapacityError when n or the result does not fit a float.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    try:
        x = float(n)
    except OverflowError:
        raise CapacityError("index exceeds the float range") from None
    if mode == "refined":
        value = x * _LN4 - 1.5 * log(n) - 0.5 * _LN_PI
    elif mode == "coarse":
        value = x * _LN4 - 0.5 * (_LN_PI + log(n)) - log(n + 1)
    else:
        raise ValueError(f"mode must be 'refined' or 'coarse', got {mode!r}")
    if isinf(value):
        raise CapacityError("estimate overflows a float")
    return value
