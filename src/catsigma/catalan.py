"""Catalan numbers: exact values, factorization from factorial valuations,
shifted product forms, parity, digit counts, and closed-form growth estimates.

Indexing is the standard one throughout: catalan_exact(0) == 1 and
catalan_exact(n) == C(2n, n) / (n + 1).  References that start the sequence
at index 1 call our catalan_exact(n - 1) their nth term.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from math import factorial, floor, isinf, isqrt, log, pi, prod, ulp
from typing import TYPE_CHECKING, Literal

from .errors import CapacityError, InconsistencyError
from .factorint import Factorization, legendre_valuation
from .primes import PrimeTable, build_prime_table, is_prime

if TYPE_CHECKING:
    import numpy as np

# Largest index accepted for exact big-integer evaluation; catalan_exact(10**6)
# has about 602,000 digits, multiplied out of its factorization in 2.9-4.8 s
# on a 2-vCPU Xeon (0.08-0.14 s at 1.5*10**5; the cost grows about
# quadratically).
# digit_count pays that cost only where its estimate cannot settle the count.
CATALAN_EXACT_CEILING = 1_000_000

# _valuation_block works in int64 and forms 2n, so indices stay below 2**62.
_INT64_INDEX_BOUND = 2**62

_LN2 = log(2)
_LN4 = log(4)
_LN_PI = log(pi)


def catalan_exact(n: int) -> int:
    """The nth Catalan number as an exact integer: its factorization over a
    table to 2n, multiplied out (0.08-0.14 s at 1.5*10**5, 2.9-4.8 s at 10**6).
    A negative n is refused by catalan_factorization."""
    if n > CATALAN_EXACT_CEILING:
        raise CapacityError(f"exact evaluation capped at index {CATALAN_EXACT_CEILING}")
    return catalan_factorization(n, build_prime_table(max(2 * n, 2))).value


def _catalan_factors(n: int, primes) -> list[tuple[int, int]]:
    """(p, v_p(C_n)) for each of the given primes that divides C_n, in
    ascending order, for an index n >= 0.  primes is a table's primes: all
    of them in ascending order, up to at least 2n.

    For p <= sqrt(2n) the exponent is the Legendre sum of
    2n // p**k - (n + 1) // p**k - n // p**k over k >= 1, with
    x // p**(k+1) taken as (x // p**k) // p, so no power of p is formed.
    The sum ends once 2n // p**k < p, since every later term is then 0.
    Above sqrt(2n) only the first term is left, and since
    (n + 1) // p = n // p + [p | n + 1] it is
    2n // p - 2 (n // p) - [p | n + 1], which is 0 or 1.  With
    k = n // p, 2n // p - 2k is 1 exactly on (n / (k + 1), 2n / (2k + 1)],
    so those primes come as one slice of primes per k, about sqrt(n / 2)
    slices; k = 0 gives (n, 2n].  Two primes above sqrt(2n) would multiply
    past n + 1, so at most one divides it: what is left of n + 1 once the
    primes up to sqrt(2n) are divided out.  Its slice leaves it out."""
    root = isqrt(2 * n)
    small = bisect_right(primes, root)
    factors = []
    rest = n + 1
    for p in primes[:small]:
        t, m, d = 2 * n // p, (n + 1) // p, n // p
        v = t - m - d
        while t >= p:
            t, m, d = t // p, m // p, d // p
            v += t - m - d
        if v:
            factors.append((p, v))
        while rest % p == 0:
            rest //= p
    # the index of the prime that divides n + 1, or one past every index
    skip = bisect_left(primes, rest) if rest > 1 else len(primes)
    ones = repeat(1)
    lo = small
    for k in range((2 * n // (root + 1) - 1) // 2, -1, -1):
        lo = bisect_right(primes, n // (k + 1), lo)
        hi = bisect_right(primes, 2 * n // (2 * k + 1), lo)
        if lo <= skip < hi:
            factors += zip(primes[lo:skip], ones)
            lo = skip + 1
        factors += zip(primes[lo:hi], ones)
    return factors


def _valuation_block(ns: np.ndarray, ps) -> np.ndarray:
    """v_p(C_n) elementwise for an int64 array of indices 0 <= n < 2**62
    and primes p, either an array of the same shape or a scalar: the
    Legendre sum of _catalan_factors, one in-place numpy step per power of
    p over the whole array, until 2n // p**k < p for every entry.  Entries
    that finish early add zero terms.  A scalar p stays a scalar divisor,
    which numpy divides by faster than by an array.  A call holds about
    four arrays of the input's size (the erdos and mersenne passes keep
    their blocks near numpy's import memory floor).  Any p < 2 raises
    ValueError: p = 1 would never end the loop."""
    import numpy as np

    n, p = np.asarray(ns, dtype=np.int64), np.asarray(ps, dtype=np.int64)
    if (p < 2).any():
        raise ValueError("p must be >= 2")
    t, m, n = 2 * n // p, (n + 1) // p, n // p
    v = t - m - n
    while (t >= p).any():
        t //= p
        m //= p
        n //= p
        v += t
        v -= m
        v -= n
    return v


def catalan_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nth Catalan number, as the difference
    of three factorial valuations (the big integer is never formed), with
    no prime table; catalan_v2 runs it at p = 2.  This route is
    independent of _catalan_factors, which catalan_factorization runs, and
    of _valuation_block, which the erdos and mersenne passes run."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return legendre_valuation(2 * n, p) - legendre_valuation(n + 1, p) - legendre_valuation(n, p)


def catalan_factorization(n: int, table: PrimeTable) -> Factorization:
    """Factor the nth Catalan number using only factorial valuations over
    the table's primes up to 2n, through _catalan_factors.  The table must
    cover 2n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if table.limit < 2 * n:
        raise ValueError(f"table limit {table.limit} does not cover 2n = {2 * n}")
    return Factorization(tuple(_catalan_factors(n, table.primes)))


def catalan_v2(n: int) -> int:
    """2-adic valuation of the nth Catalan number: catalan_valuation(n, 2),
    three Legendre sums of about log2(n) steps each, with no prime table.

    Always equals (n + 1).bit_count() - 1, the binary digit sum of n + 1
    less one; callers that want that route as an independent check
    compute it themselves.
    """
    return catalan_valuation(n, 2)


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
        power, base = 2**k, 2 * k + 1
    elif parity == "odd":
        power, base = 2 ** (k - 1), 2 * k - 1
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    numerator = power * prod(range(base + 2, base + 2 * k, 2))
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


def digit_count(n: int) -> int:
    """Number of base-10 digits of the nth Catalan number, read off
    asymptotic_log and its error envelope.  Where the envelope around
    log10 C_n holds an integer d, C_n is compared with 10**d: that forms
    catalan_exact's integer (2.9-4.8 s at the ceiling) up to
    CATALAN_EXACT_CEILING, and past it the call fails with CapacityError."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return 1
    log10 = asymptotic_log(n) / log(10)
    # estimate error envelope: |log10 off| < (9/(8n) + 0.005) / ln 10, plus
    # the float rounding of log10 itself: about six roundings (n, ln 4, the
    # product, the sum, ln 10, the quotient), each within one ulp of log10.
    # The margin is below 1/2 for every n >= 1 (0.491 at n = 1), so the
    # envelope holds at most one integer, the nearest one to log10.
    margin = (9 / (8 * n) + 0.005) / log(10) + 8 * ulp(log10) + 1e-9
    d = round(log10)
    if abs(log10 - d) >= margin:
        return floor(log10) + 1
    if n > CATALAN_EXACT_CEILING:
        raise CapacityError(f"digit count at index {n} not resolvable from the estimate")
    return d + (catalan_exact(n) >= 10**d)


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
