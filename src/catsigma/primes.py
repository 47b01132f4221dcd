"""Prime tables and deterministic primality testing.

build_prime_table runs one smallest-prime-factor sieve: the entries that no
smaller prime marks are the primes, so every table carries both the prime
array and the spf array.  The spf array is numpy uint32, 4 bytes per integer,
which caps a table's limit at 2**32 - 1.  That cap and the estimated peak
memory against the physical memory are checked before anything is
allocated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import isqrt, log

import numpy as np

from .errors import CapacityError

# Fixed Miller-Rabin witness set, deterministic for all n below
# 3,317,044,064,679,887,385,961,981 (Sorenson & Webster), which covers the
# full 64-bit range with margin.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# spf entries are stored as uint32.
_SPF_LIMIT_MAX = 2**32 - 1

# Peak memory of a table build, as tracemalloc measures it at limits 10**6
# to 2*10**7: the uint32 spf array plus the sieve's boolean mask come to
# 5 bytes per integer, and each prime costs the 8 bytes of its int64 array
# entry.  pi(x) < 1.26 x / ln x for x > 1 (Rosser and Schoenfeld, 1962).
_BYTES_PER_INTEGER = 5
_BYTES_PER_PRIME = 8


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` and the smallest prime factor of every
    integer up to it, with prime counting.  Immutable; equality is by limit.

    ``primes`` is the sieve's int64 array, ascending, 8 bytes per prime.
    ``spf`` is a uint32 array of limit + 1 entries: spf[m] is the smallest
    prime factor of m for m >= 2, and entries 0 and 1 are 0.
    """

    limit: int
    primes: np.ndarray = field(repr=False, compare=False)
    spf: np.ndarray = field(repr=False, compare=False)

    def pi(self, x: int) -> int:
        """Number of primes <= x.  Requires x <= limit."""
        if x > self.limit:
            raise ValueError(f"pi({x}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))


def check_spf_limit(limit: int) -> None:
    """Raise CapacityError when a table up to limit would not fit the uint32
    spf entries, or when its estimated peak memory (5 bytes per integer, 8
    per prime) exceeds physical memory; cheap, so callers run it first."""
    if limit > _SPF_LIMIT_MAX:
        raise CapacityError(f"spf table limited to {_SPF_LIMIT_MAX}, {limit} requested")
    prime_bound = 1.26 * limit / log(max(limit, 2))
    needed = _BYTES_PER_INTEGER * (limit + 1) + int(_BYTES_PER_PRIME * prime_bound)
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise CapacityError(
            f"prime table to {limit} needs about {needed >> 20} MiB, "
            f"more than the {memory >> 20} MiB of physical memory"
        )


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit (2 <= limit <= 2**32 - 1) together with the
    smallest prime factor of every integer up to limit.  Costs about 5 bytes
    per integer while sieving and 4 afterwards, plus 8 bytes per prime.
    Output is deterministic."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    check_spf_limit(limit)
    spf, primes = _build_spf(limit)
    return PrimeTable(limit, primes, spf)


def _build_spf(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The spf array for [0, limit] and the primes up to limit as an array."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2  # untouched entries are prime
    spf[primes] = primes
    return spf, primes


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
