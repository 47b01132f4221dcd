"""Prime factorizations, the spf walk that factors an integer a prime table
covers, and p-adic valuations of factorials."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .primes import PrimeTable, is_prime


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization: (prime, exponent) pairs, strictly
    increasing by prime, exponents >= 1."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.entries:
            if p <= last:
                raise ValueError("entries must be strictly increasing by prime")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = p

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def value(self) -> int:
        """Reconstructed integer, one prime power at a time (about 4 s for C_1000000)."""
        out = 1
        for p, e in self.entries:
            out *= p**e
        return out

    def prime_factors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def exponent_of(self, p: int) -> int:
        for q, e in self.entries:
            if q == p:
                return e
        return 0


def binary_digit_sum(n: int) -> int:
    """Sum of the base-2 digits of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n.bit_count()


def legendre_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n!, i.e. the finite sum of n // p**i.

    Python integers keep the p**i iterate exact, so the loop terminates
    correctly even for n near 2**63.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def factor_u64(n: int, table: PrimeTable) -> Factorization:
    """Factor n into its canonical form by walking the table's spf array.

    The domain is [2, table.limit]; any other n raises ValueError.
    """
    if not 2 <= n <= table.limit:
        raise ValueError(f"{n} outside [2, {table.limit}]")
    entries = []
    while n > 1:
        # a Python int, not the table's uint32: callers raise primes to
        # powers and serialize them
        p = int(table.spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        entries.append((p, e))
    return Factorization(tuple(entries))
