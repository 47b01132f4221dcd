"""Sum-of-divisors arithmetic: exact and modular sigma of a factorization,
and the exact block kernel behind the sigma(z*k - 1) sweeps."""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING

from .factorint import Factorization
from .primes import PrimeTable

if TYPE_CHECKING:
    import numpy as np


def sigma_exact(f: Factorization) -> int:
    """Sum of all divisors of f.value, as a product of prime-power terms."""
    return prod((p ** (e + 1) - 1) // (p - 1) for p, e in f)


def sigma_mod(f: Factorization, m: int) -> int:
    """sigma(f.value) mod m: sigma_exact's prime-power terms, each formed
    exactly and reduced mod m as it is multiplied in.  An exponent of 1,
    the case of most primes of a Catalan number, takes the term p + 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    total = 1
    for p, e in f:
        total = total * (p + 1 if e == 1 else (p ** (e + 1) - 1) // (p - 1)) % m
    return total


def sigma_block(values: np.ndarray, table: PrimeTable) -> np.ndarray:
    """sigma(v) for every entry v of values, as an int64 array.

    The array form of factor_u64 plus sigma_exact over the table's odd-only
    spf array, which must cover every value: 1 <= v <= table.limit
    (sigma(1) == 1); any other value raises ValueError.
    The power of two, low = v & -v, comes off first, with sigma term
    2 * low - 1.  An odd rest whose entry spf[rest >> 1] is 0 is 1 or a
    prime, so its entry finishes at once with the term rest + 1 (1 for
    rest == 1).  Each step takes the whole power of the smallest odd prime
    factor p = spf[rest >> 1] out of every other entry, with term
    1 + p + ... + p**e, and drops the entries it finishes, so a block costs
    one step fewer than its largest count of distinct odd prime factors (at
    most 8 for v < 2**32).  Powers beyond p**1 come off one per pass of an
    inner loop over just the entries that p still divides, each pass taking
    term to term * p + 1.  Prime-power terms and their product are kept
    exact: each is a divisor-sum of a divisor of v, so no intermediate
    exceeds sigma(v) < 2**36 for v < 2**32 and int64 cannot wrap.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 1 or values.max() > table.limit):
        raise ValueError(f"values must lie in [1, {table.limit}]")
    spf = table.spf
    low = values & -values
    rest = values >> np.bitwise_count(low - 1)
    closed = 2 * low - 1  # product of the finished terms
    nxt = spf[rest >> 1]
    # right for the entries that finish here; the others are written again
    sigma = closed * (rest + (rest > 1))
    live = nxt.nonzero()[0]
    rest, closed, p = rest[live], closed[live], nxt[live].astype(np.int64)
    while live.size:
        rest //= p
        term = p + 1
        nxt = spf[rest >> 1]
        again = ((nxt == p) | (rest == p)).nonzero()[0]  # p still divides rest
        while again.size:
            q = p[again]
            r = rest[again] // q
            rest[again], term[again], nxt[again] = r, term[again] * q + 1, spf[r >> 1]
            again = again[(nxt[again] == q) | (r == q)]
        closed *= term
        sigma[live] = closed * (rest + (rest > 1))
        left = nxt.nonzero()[0]
        live, rest, closed, p = live[left], rest[left], closed[left], nxt[left].astype(np.int64)
    return sigma
