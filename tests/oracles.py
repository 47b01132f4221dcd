"""Brute-force reference implementations for cross-checking test results.

Everything here is deliberately naive and independent of the package's own
code paths: trial division, divisor scans and sieves, bit tricks, binomial
coefficients, and chunked digit counting.
"""

from math import comb, isqrt


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
