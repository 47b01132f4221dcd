"""Brute-force reference implementations for cross-checking test results.

Everything here is deliberately naive and independent of the package's own
code paths: trial division, a bytearray prime sieve, divisor scans and
sieves (one of them in numpy), base-p carry counts, bit tricks, binomial
coefficients, the per-prime Legendre loop and the recurrence of Catalan
exponents, and chunked digit counting.
"""

from bisect import bisect_right
from itertools import compress
from math import comb, isqrt

import numpy as np


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_by_sieve(limit: int) -> list[int]:
    """The primes <= limit, by a sieve of Eratosthenes over a bytearray."""
    sieve = bytearray(2) + bytearray([1]) * (limit - 1)  # 0 and 1 are not prime
    for d in range(2, isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    return list(compress(range(limit + 1), sieve))


def indices_without_5_mod_6_prime(n_max: int) -> list[int]:
    """The n <= n_max with no prime q = 5 mod 6 in (n + 1, 2n], by
    bisecting the sieve's primes q = 5 mod 6 up to 2 * n_max."""
    fives = [q for q in primes_by_sieve(max(2 * n_max, 2)) if q % 6 == 5]
    return [n for n in range(n_max + 1) if bisect_right(fives, 2 * n) <= bisect_right(fives, n + 1)]


def erdos_pairs(n_max: int) -> list[tuple[int, int]]:
    """The (n, p) with 1 <= n <= n_max and p prime in (n + 1, 2n], ordered
    by n and then p, by a nested loop over the sieve's primes."""
    primes = primes_by_sieve(max(2 * n_max, 2))
    pairs = []
    for n in range(1, n_max + 1):
        for p in primes:
            if p > 2 * n:
                break
            if p > n + 1:
                pairs.append((n, p))
    return pairs


def sigma_by_scan(n: int) -> int:
    """Sum of divisors by scanning d <= sqrt(n)."""
    total = 0
    r = isqrt(n)
    for d in range(1, r + 1):
        if n % d == 0:
            total += d + n // d
    if r * r == n:
        total -= r
    return total


def divisor_pairs(limit: int, z: int = 1, r: int = 0):
    """Yield (m, d, m // d) for every m <= limit with m % z == r and every
    divisor d of m with d * d < m, by sieving: for each d <= sqrt(limit),
    walk the multiples m = d * q with q > d.  The q with d * q % z == r
    repeat mod z, so each class found among the first z values of q is
    walked in steps of z."""
    for d in range(1, isqrt(limit) + 1):
        for q0 in range(d + 1, d + 1 + z):
            if d * q0 % z == r:
                for q in range(q0, limit // d + 1, z):
                    yield d * q, d, q


def sigma_by_pair_sieve(limit: int, z: int = 1, r: int = 0, chunk: int = 1 << 16) -> np.ndarray:
    """sigma(m) for every m = z * j + r <= limit (0 <= r < z, j >= 0), as
    an int64 array indexed by j; sigma(0) reads 0.  A divisor-pair sieve:
    each d <= sqrt(limit) adds d + q to every m = d * q with q > d, and d
    alone where q = d.  The q with d * q % z == r repeat mod z, so each
    class found among q = d .. d + z - 1 runs in steps of z, and its m sit
    at every d-th entry.  A row is added at most `chunk` entries at a time,
    so the d = 1 row never spans the whole range."""
    out = np.zeros((limit - r) // z + 1, dtype=np.int64)
    for d in range(1, isqrt(limit) + 1):
        for q0 in range(d, min(d + z, limit // d + 1)):
            if d * q0 % z != r:
                continue
            rows = (limit // d - q0) // z + 1
            j0 = (d * q0 - r) // z
            for t in range(0, rows, chunk):
                q = q0 + z * np.arange(t, min(rows, t + chunk), dtype=np.int64)
                out[j0 + d * t :: d][: len(q)] += d + q
            if q0 == d:
                out[j0] -= d
    return out


def carries(a: int, b: int, p: int) -> int:
    """Number of carries when a + b is added in base p; by Kummer's theorem
    this is the exponent of the prime p in C(a + b, a)."""
    count = carry = 0
    while a or b or carry:
        carry = int(a % p + b % p + carry >= p)
        count += carry
        a, b = a // p, b // p
    return count


def legendre_catalan_factors(n: int, primes) -> list[tuple[int, int]]:
    """(p, v_p(C_n)) for each of the given primes that divides C_n, in the
    given order: the Legendre sum of 2n // p**k - (n + 1) // p**k - n // p**k
    over k >= 1, taken in full for every prime, with x // p**(k+1) as
    (x // p**k) // p."""
    factors = []
    for p in primes:
        t, m, d = 2 * n // p, (n + 1) // p, n // p
        v = t - m - d
        while t >= p:
            t, m, d = t // p, m // p, d // p
            v += t - m - d
        if v:
            factors.append((p, v))
    return factors


def catalan_exponents_by_recurrence(n_max: int):
    """Yield {p: v_p(C_n)} for n = 0, 1, ..., n_max, from
    C_n = C_(n-1) * 2 (2n - 1) / (n + 1), each factor split by trial
    division; a prime whose exponent falls to 0 leaves the dict."""
    exponents: dict[int, int] = {}
    yield {}
    for n in range(1, n_max + 1):
        for p, e in trial_factor(2 * (2 * n - 1)).items():
            exponents[p] = exponents.get(p, 0) + e
        for p, e in trial_factor(n + 1).items():
            exponents[p] -= e
            if not exponents[p]:
                del exponents[p]
        yield dict(exponents)


def catalan_by_comb(n: int) -> int:
    """The nth Catalan number as C(2n, n) / (n + 1), through math.comb."""
    return comb(2 * n, n) // (n + 1)


def v2(x: int) -> int:
    """Exponent of 2 in the positive integer x, from its lowest set bit."""
    return (x & -x).bit_length() - 1


def factor_by_prime_list(value: int, primes) -> tuple[dict[int, int], int]:
    """Divide out the given primes; returns ({prime: exponent}, leftover)."""
    out: dict[int, int] = {}
    for p in primes:
        if value == 1:
            break
        e = 0
        while value % p == 0:
            value //= p
            e += 1
        if e:
            out[p] = e
    return out, value


def decimal_digits(x: int) -> int:
    """Digit count via chunked division (str() caps out on huge ints)."""
    chunk = 10**1000
    count = 0
    while x >= chunk:
        x //= chunk
        count += 1000
    return count + len(str(x))
