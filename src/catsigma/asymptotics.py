"""Empirical distinct-prime-factor statistics of Catalan numbers next to
their heuristic predictions.

The predictions (2n/ln n factors overall, n/ln n of them congruent to
5 mod 6, and a twin-pair count scaled by the constant below) are reported
alongside the exact counts; nothing here asserts convergence.
"""

from __future__ import annotations

from math import log
from typing import NamedTuple

from .catalan import catalan_factorization
from .primes import PrimeTable

# Twin prime density constant, fixed to five decimal places.
TWIN_PRIME_CONSTANT = 0.66016

_LN2 = log(2)


class OmegaRecord(NamedTuple):
    """Distinct-prime-factor counts for one Catalan index, with predictions.

    pred_omega_corrected subtracts the second-order 2n*ln2/(ln n)^2 term
    from pred_omega.
    """

    n: int
    omega: int
    omega_6kminus1: int
    twin_pairs: int
    pred_omega: float
    pred_omega_corrected: float
    pred_6kminus1: float
    pred_twins: float


def omega_record(n: int, table: PrimeTable) -> OmegaRecord:
    """Exact factor counts for catalan(n) plus the predicted values.

    Twin pairs are unordered pairs (p, p+2) with both primes dividing the
    Catalan number, regardless of exponent.
    """
    if n < 2:
        raise ValueError("predictions are undefined for n < 2")
    ps = catalan_factorization(n, table).prime_factors()
    pset = set(ps)
    ln = log(n)
    return OmegaRecord(
        n=n,
        omega=len(ps),
        omega_6kminus1=sum(1 for p in ps if p % 6 == 5),
        twin_pairs=sum(1 for p in ps if p + 2 in pset),
        pred_omega=2 * n / ln,
        pred_omega_corrected=2 * n / ln - 2 * n * _LN2 / ln**2,
        pred_6kminus1=n / ln,
        pred_twins=TWIN_PRIME_CONSTANT * n / ln**2,
    )


def omega_table(n_values, table: PrimeTable) -> list[OmegaRecord]:
    """omega_record for each index, preserving input order."""
    return [omega_record(n, table) for n in n_values]
