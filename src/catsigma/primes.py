"""Prime tables and deterministic primality testing.

A PrimeTable's two arrays, the primes and the odd-only smallest prime
factor (spf) array, are each sieved when first read, so a caller pays only
for the array it reads.  The primes come from a bytearray sieve of the odd
integers and need no numpy; the numpy spf array is marked from the primes
of a table to its square root, so one sieve route serves both.  The uint16
spf entries cap a table's limit at 2**32 - 1; that cap and the estimated
peak memory against the memory budget are checked when a table is built."""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import isqrt, log
from typing import TYPE_CHECKING

from .errors import CapacityError

if TYPE_CHECKING:
    import numpy as np

# Fixed Miller-Rabin witness set, deterministic for all n below
# 3,317,044,064,679,887,385,961,981 (Sorenson & Webster), which covers the
# full 64-bit range with margin.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Composites up to this limit have an spf below 2**16, so uint16 entries hold it.
_SPF_LIMIT_MAX = 2**32 - 1

# Peak memory of either array, at most 1 byte per integer plus 8 per prime:
# the uint16 spf array, or the bytearray sieve plus each prime's int64 entry.
# pi(x) < 1.26 x / ln x for x > 1 (Rosser and Schoenfeld, 1962).
_BYTES_PER_INTEGER = 1
_BYTES_PER_PRIME = 8

# cgroup v2, then v1, memory limit of the process's container; v1 reads
# 9223372036854771712 when no limit is set, v2 reads "max".
_CGROUP_LIMIT_FILES = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` and the smallest prime factor of every
    odd integer up to it, with prime counting.  Immutable; equality is by
    limit.  Each array is sieved when first read and then kept.

    ``primes`` is an ``array('q')`` of int64, ascending, 8 bytes per prime;
    numpy can read it in place through ``np.frombuffer``.
    ``spf`` is a numpy uint16 array of (limit + 1) // 2 entries, 1 byte per
    integer: spf[i] is the smallest prime factor of m = 2i + 1 when m is
    composite, and 0 when m is prime or 1.  Readers strip the power of two
    from an even m first.
    """

    limit: int

    @cached_property
    def primes(self) -> array:
        """A bytearray sieve of the odd integers, in which each odd p up to
        sqrt(limit) that is still unmarked marks its odd multiples from
        p*p, read off with 2 in place of 1: about 25 ns per integer of the
        limit (0.14 s at 6*10**6 on a 2-vCPU Xeon)."""
        sieve = bytearray([1]) * ((self.limit + 1) // 2)  # entry i: 2i + 1
        for p in range(3, isqrt(self.limit) + 1, 2):
            if sieve[p >> 1]:
                start = p * p >> 1
                sieve[start::p] = bytes(len(range(start, len(sieve), p)))
        primes = array("q", compress(range(1, self.limit + 1, 2), sieve))
        primes[0] = 2
        return primes

    @cached_property
    def spf(self) -> np.ndarray:
        return _build_spf(self.limit)

    def pi(self, x: int) -> int:
        """Number of primes <= x.  Requires x <= limit."""
        if x > self.limit:
            raise ValueError(f"pi({x}) exceeds table limit {self.limit}")
        return bisect_right(self.primes, x)


def check_spf_limit(limit: int) -> None:
    """Raise CapacityError when a table up to limit would not fit the uint16
    spf entries, or when the estimated peak memory of either of its arrays
    exceeds the memory budget, the smallest of physical memory, the cgroup
    limit and the soft address-space limit (ulimit -v); cheap, so callers
    run it first.  The estimate is 1 byte
    per integer and 8 per prime, with the pi bound above: 1.65, 9.42 and
    30.51 MiB at limits 10**6, 6*10**6 and 2*10**7, where tracemalloc
    measures peaks of 0.96, 5.73 and 19.1 MiB for the spf array and 1.09,
    6.20 and 19.5 MiB for the primes (the bytearray sieve and the growing
    array('q'); the array alone keeps 0.61, 3.34 and 9.95 MiB)."""
    if limit > _SPF_LIMIT_MAX:
        raise CapacityError(f"spf table limited to {_SPF_LIMIT_MAX}, {limit} requested")
    prime_bound = 1.26 * limit / log(max(limit, 2))
    needed = int(_BYTES_PER_INTEGER * (limit + 1) + _BYTES_PER_PRIME * prime_bound)
    limits = (_physical_memory(), _cgroup_memory_limit(), _address_space_limit())
    budget = min((m for m in limits if m is not None), default=None)
    if budget is not None and needed > budget:
        raise CapacityError(
            f"prime table to {limit} needs about {needed >> 20} MiB, more than the "
            f"{budget >> 20} MiB budget (physical memory, cgroup limit or address-space limit)"
        )


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def _cgroup_memory_limit() -> int | None:
    """The cgroup memory limit in bytes from the first readable limit file,
    or None where none is readable or it reads "max" (v1's unlimited value
    is huge and never the smaller budget)."""
    for path in _CGROUP_LIMIT_FILES:
        try:
            with open(path) as f:
                text = f.read().strip()
        except OSError:
            continue
        return int(text) if text.isdigit() else None
    return None


def _address_space_limit() -> int | None:
    """The soft address-space limit (RLIMIT_AS) in bytes, or None where it
    is unlimited or the resource module is missing (it is POSIX only)."""
    try:
        import resource
    except ImportError:
        return None
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return None if soft == resource.RLIM_INFINITY else soft


def build_prime_table(limit: int) -> PrimeTable:
    """The table up to limit (2 <= limit <= 2**32 - 1), capacity checked; an
    array is sieved when first read, at most 1 byte per integer plus 8 bytes
    per prime (at 6*10**6 on a 2-vCPU Xeon: the primes 0.14 s and 6.2 MiB,
    the spf array 0.02 s and 5.7 MiB once numpy is imported).  Output is
    deterministic."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    check_spf_limit(limit)
    return PrimeTable(limit)


def _build_spf(limit: int) -> np.ndarray:
    """The odd-only spf array for [1, limit]: the odd primes of a table to
    sqrt(limit), the largest first, each mark their odd multiples from p*p,
    so the smallest prime factor is the one written last."""
    import numpy as np

    spf = np.zeros((limit + 1) // 2, dtype=np.uint16)
    for p in PrimeTable(isqrt(limit)).primes[:0:-1]:  # 2 is at [0]
        spf[p * p >> 1 :: p] = p
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
