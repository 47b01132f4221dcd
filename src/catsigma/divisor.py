"""Sum-of-divisors arithmetic on factorizations, exact and modular, and the
block kernel behind the sigma(z*k - 1) sweeps."""

from __future__ import annotations

import numpy as np

from .factorint import Factorization


def sigma_exact(f: Factorization) -> int:
    """Sum of all divisors of f.value, as a product of prime-power terms."""
    total = 1
    for p, e in f:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def sigma_mod(f: Factorization, m: int) -> int:
    """sigma(f.value) mod m.

    Each prime-power term is a geometric sum evaluated by repeated modular
    addition, so m never needs to be coprime to anything.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    total = 1 % m
    for p, e in f:
        term = 1 % m
        power = 1
        for _ in range(e):
            power = power * p % m
            term = (term + power) % m
        total = total * term % m
    return total


def sigma_mod_block(values: np.ndarray, z: int, spf: np.ndarray) -> np.ndarray:
    """sigma(v) mod z for every entry v of values, as an int64 array.

    The array form of factor_u64 plus sigma_mod over an spf table, which
    must cover every value (1 <= v < len(spf); sigma(1) == 1).  Each step
    divides the smallest prime factor out of every unfinished entry and
    drops the entries that reach 1, so a block costs as many steps as its
    largest prime-factor count (fewer than 32).  Prime-power terms and their
    product are kept exact: each is a divisor-sum of a divisor of v, so no
    intermediate exceeds sigma(v) < 2**36 for v < 2**32 and int64 cannot
    wrap.  Only the finished sigma is reduced mod z.
    """
    if z < 2:
        raise ValueError("modulus must be >= 2")
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 1 or values.max() >= len(spf)):
        raise ValueError(f"values must lie in [1, {len(spf) - 1}]")
    sigma = np.ones(values.shape, dtype=np.int64)
    live = np.flatnonzero(values > 1)
    rest = values[live]
    prime = np.zeros_like(rest)  # prime of the open term
    power = np.ones_like(rest)  # its highest power divided out so far
    term = np.ones_like(rest)  # 1 + prime + ... + power
    closed = np.ones_like(rest)  # product of the finished terms
    while live.size:
        p = spf[rest].astype(np.int64)
        rest //= p
        new = p != prime
        closed = np.where(new, closed * term, closed)
        power = np.where(new, p, power * p)
        term = np.where(new, 1, term) + power
        prime = p
        done = rest == 1
        if done.any():
            sigma[live[done]] = closed[done] * term[done]
            keep = ~done
            live, rest, prime, power, term, closed = (
                a[keep] for a in (live, rest, prime, power, term, closed)
            )
    return sigma % z
