"""Factorization of 64-bit integers and p-adic valuations of factorials."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

import numpy as np

from .primes import PrimeTable, is_prime

_U64_MAX = 2**64 - 1
_TRIAL_BOUND = 1000


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
        """Reconstructed integer (arbitrary precision)."""
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


@dataclass(frozen=True)
class TwoAdicSplit:
    """value == <<exponent>> powers of two times an odd part."""

    exponent: int
    odd_part: int

    @property
    def value(self) -> int:
        return (1 << self.exponent) * self.odd_part


def two_adic_split(value: int) -> TwoAdicSplit:
    """Split a positive integer as 2**e * odd."""
    if value < 1:
        raise ValueError("value must be positive")
    e = (value & -value).bit_length() - 1
    return TwoAdicSplit(e, value >> e)


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


def _factor_spf(n: int, spf: np.ndarray) -> list[tuple[int, int]]:
    out = []
    while n > 1:
        # a Python int, not the table's uint32: callers raise primes to
        # powers and serialize them
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n via Brent's cycle finder.

    The polynomial increment c steps deterministically (1, 2, 3, ...) so the
    same input always splits the same way; no randomness involved.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched gcd overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _factor_generic(n: int) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(counts.items())


def factor_u64(n: int, table: PrimeTable | None = None) -> Factorization:
    """Factor 2 <= n < 2**64 into its canonical form.

    Takes the spf walk when the table covers n; otherwise trial division up
    to 1000 followed by Brent splitting, with every prime that the splitter
    reports confirmed by the deterministic primality test.  Output is
    reproducible run to run.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > _U64_MAX:
        raise ValueError("n exceeds the 64-bit range")
    if table is not None and n <= table.limit:
        return Factorization(tuple(_factor_spf(n, table.spf)))
    return Factorization(tuple(_factor_generic(n)))
