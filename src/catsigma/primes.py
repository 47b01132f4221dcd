"""Prime generation, deterministic primality testing, and mod-6 classes.

The sieve streams through fixed-size segments, so the peak working buffer
stays small even for limits around 10**8; what grows with the limit is the
list of primes itself.  The smallest-prime-factor table is materialized
lazily because only dense factorization sweeps need it; it is a numpy uint32
array, 4 bytes per integer.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import CapacityError

_SEGMENT = 1 << 20

# Fixed Miller-Rabin witness set, deterministic for all n below
# 3,317,044,064,679,887,385,961,981 (Sorenson & Webster), which covers the
# full 64-bit range with margin.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# spf entries are stored as uint32.
_SPF_LIMIT_MAX = 2**32 - 1


class Mod6Class(enum.Enum):
    """Residue class of a prime modulo 6."""

    IS_TWO = "is_two"
    IS_THREE = "is_three"
    ONE_PLUS = "one_plus"  # p % 6 == 1
    ONE_MINUS = "one_minus"  # p % 6 == 5


@dataclass
class PrimeTable:
    """All primes up to ``limit``, with prime counting and an optional
    smallest-prime-factor lookup.

    Instances are immutable after construction apart from the lazy spf
    build, which is idempotent.
    """

    limit: int
    primes: list[int]
    _spf: np.ndarray | None = field(default=None, repr=False, compare=False)

    def pi(self, x: int) -> int:
        """Number of primes <= x.  Requires x <= limit."""
        if x > self.limit:
            raise ValueError(f"pi({x}) exceeds table limit {self.limit}")
        return bisect_right(self.primes, x)

    def primes_between(self, lo: int, hi: int) -> list[int]:
        """Primes p with lo < p <= hi.  Requires hi <= limit."""
        if hi > self.limit:
            raise ValueError(f"range end {hi} exceeds table limit {self.limit}")
        return self.primes[bisect_right(self.primes, lo) : bisect_right(self.primes, hi)]

    @property
    def spf(self) -> np.ndarray:
        """Smallest prime factor of every m in [2, limit]; entries 0 and 1
        are 0.  Built on first use as a uint32 array (4 bytes per integer);
        read entries through smallest_prime_factor to get Python ints."""
        if self._spf is None:
            self._spf = _build_spf(self.limit)
        return self._spf

    def smallest_prime_factor(self, m: int) -> int:
        if not 2 <= m <= self.limit:
            raise ValueError(f"{m} outside [2, {self.limit}]")
        return int(self.spf[m])


def _sieve_flags(n: int) -> np.ndarray:
    """Boolean primality flags for [0, n]."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit (limit >= 2).  Output is deterministic."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit <= _SEGMENT:
        return PrimeTable(limit, np.flatnonzero(_sieve_flags(limit)).tolist())

    root = isqrt(limit)
    base = np.flatnonzero(_sieve_flags(root)).tolist()
    chunks = [np.asarray(base, dtype=np.int64)]
    for lo in range(root + 1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        seg = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            start = max(p * p, (lo + p - 1) // p * p)
            if start <= hi:
                seg[start - lo :: p] = False
        chunks.append(np.flatnonzero(seg) + lo)
    return PrimeTable(limit, np.concatenate(chunks).tolist())


def check_spf_limit(limit: int) -> None:
    """Raise CapacityError when an spf table up to limit would not fit the
    uint32 entries; cheap, so callers run it before sieving anything."""
    if limit > _SPF_LIMIT_MAX:
        raise CapacityError(f"spf table limited to {_SPF_LIMIT_MAX}, {limit} requested")


def _build_spf(limit: int) -> np.ndarray:
    check_spf_limit(limit)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    remaining = np.flatnonzero(spf[2:] == 0) + 2  # untouched entries are prime
    spf[remaining] = remaining
    return spf


def is_prime(n: int) -> bool:
    """Deterministic primality test via Miller-Rabin over a fixed witness
    set; exact for every n below the documented 3.3e24 bound."""
    if n < 2:
        return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise CapacityError("input exceeds the deterministic witness-set bound")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def classify_mod6(p: int) -> Mod6Class:
    """Residue class of the prime p; every prime > 3 is 1 or 5 mod 6."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return Mod6Class.IS_TWO
    if p == 3:
        return Mod6Class.IS_THREE
    return Mod6Class.ONE_PLUS if p % 6 == 1 else Mod6Class.ONE_MINUS
