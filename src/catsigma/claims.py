"""One verifier per divisibility claim.

Each verifier sweeps an integer range, collects counterexample witnesses,
and returns a VerificationOutcome.  Sweeps run serially in ascending order
over contiguous blocks that start at 16 elements and double up to 50k, so
the reported witnesses are always the first ten.  The sigma(z*k - 1)
sweeps compute a whole block of remainders with one sigma_mod_block call,
stop after the block that yields the tenth witness, and factor only the
values they report.  The index sweeps check one n at a time and stop at
the tenth witness itself.  Witness records are plain dicts so they
serialize as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from time import perf_counter

import numpy as np

from .catalan import _valuation, catalan_factorization, catalan_v2
from .divisor import sigma_exact, sigma_mod, sigma_mod_block
from .errors import InconclusiveError
from .factorint import binary_digit_sum, factor_u64
from .primes import PrimeTable, build_prime_table, check_spf_limit

# The six moduli z for which z | sigma(z*k - 1) holds for every k; the
# conjecture search asks whether any other modulus shares the property.
FAMILY_MODULI = (3, 4, 6, 8, 12, 24)

# Catalan indices below 6 whose value has no prime factor congruent to
# 5 mod 6 (values 1, 1, 2, 14, 42; index 3 is absent because its value is 5).
SMALL_INDEX_EXCEPTIONS = frozenset({0, 1, 2, 4, 5})

ALWAYS_COPRIME = "always_coprime"
SHARED_DIVISOR = "shared_divisor"

_BLOCK = 50_000
_MAX_WITNESSES = 10
# First block of every sweep: most conjecture moduli and failing families
# fail at a small k, so the blocks start small and double up to _BLOCK.
_FIRST_PROBE_BLOCK = 16


@dataclass
class VerificationOutcome:
    """Result of one claim sweep.  holds is true iff no counterexamples."""

    claim_id: str
    range: tuple[int, int]
    holds: bool
    counterexamples: list[dict]
    elapsed: float = 0.0


@dataclass(frozen=True)
class CoprimalityEdge:
    """Coprimality status of the pair (a*k - 1, b*k - 1) over all k >= 1.

    always_coprime edges satisfy gcd(a*k-1, b*k-1) == 1 for every k; the
    shared_divisor status carries the gcd at the smallest violating k.
    """

    a: int
    b: int
    status: str
    shared_divisor: int | None = None
    witness_k: int | None = None


def _outcome(claim_id, span, witnesses, started) -> VerificationOutcome:
    return VerificationOutcome(
        claim_id=claim_id,
        range=span,
        holds=not witnesses,
        counterexamples=witnesses,
        elapsed=perf_counter() - started,
    )


def _sweep(lo: int, hi: int, worker):
    """Witnesses of worker(a, b) over consecutive blocks covering [lo, hi],
    in ascending order.  Blocks start at _FIRST_PROBE_BLOCK elements and
    double up to _BLOCK; a block runs only when the caller asks for more
    witnesses than the earlier blocks gave."""
    size = min(_FIRST_PROBE_BLOCK, _BLOCK)
    while lo <= hi:
        yield from worker(lo, min(lo + size - 1, hi))
        lo += size
        size = min(2 * size, _BLOCK)


def _first_witnesses(lo: int, hi: int, worker) -> list:
    return list(islice(_sweep(lo, hi, worker), _MAX_WITNESSES))


def _per_index(check):
    """Block worker yielding the witnesses of check(n) for each n in
    [lo, hi] in turn; lazy, so a sweep stops at the witness it needs."""

    def worker(lo, hi):
        for n in range(lo, hi + 1):
            yield from check(n)

    return worker


def _ensure_table(table: PrimeTable | None, needed: int) -> PrimeTable:
    """A table covering [2, needed]: the caller's, or a new one.  The spf
    ceiling and the memory estimate are checked before anything is sieved."""
    check_spf_limit(needed)
    if table is None:
        return build_prime_table(max(needed, 2))
    if table.limit < needed:
        raise ValueError(f"table limit {table.limit} below required {needed}")
    return table


def _sigma_failures(z: int, table: PrimeTable):
    """Block worker yielding (k, remainder) for each k in [lo, hi] with
    z not dividing sigma(z*k - 1), in ascending k."""

    def worker(lo, hi):
        ks = np.arange(lo, hi + 1, dtype=np.int64)
        remainders = sigma_mod_block(z * ks - 1, z, table.spf)
        bad = np.flatnonzero(remainders)[:_MAX_WITNESSES]  # no block is asked for more
        return zip(ks[bad].tolist(), remainders[bad].tolist())

    return worker


def _sigma_witness(k: int, z: int, remainder: int, table: PrimeTable) -> dict:
    """Witness record for a k with z not dividing sigma(z*k - 1); sigma(1) == 1."""
    n = z * k - 1
    sigma = 1 if n == 1 else sigma_exact(factor_u64(n, table))
    return {"k": k, "value": n, "sigma": sigma, "remainder": remainder}


def verify_lemma_six(k_max: int, table: PrimeTable | None = None) -> VerificationOutcome:
    """Check 6 | sigma(6k - 1) for every 1 <= k <= k_max."""
    started = perf_counter()
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = _ensure_table(table, 6 * k_max - 1)
    hits = _first_witnesses(1, k_max, _sigma_failures(6, table))
    witnesses = [{"k": k, "value": 6 * k - 1, "remainder": r} for k, r in hits]
    return _outcome("lemma-six", (1, k_max), witnesses, started)


def verify_family(z: int, k_max: int, table: PrimeTable | None = None) -> VerificationOutcome:
    """Check z | sigma(z*k - 1) for 1 <= k <= k_max; witnesses carry the
    smallest violating k values."""
    started = perf_counter()
    if z < 2:
        raise ValueError("z must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = _ensure_table(table, z * k_max - 1)
    hits = _first_witnesses(1, k_max, _sigma_failures(z, table))
    witnesses = [_sigma_witness(k, z, r, table) for k, r in hits]
    return _outcome(f"family-z{z}", (1, k_max), witnesses, started)


@dataclass
class ConjectureSearch:
    """Moduli in [2, b_max] that survive the divisibility sweep to k_max.

    Survival up to a bound is not a proof; the checked bound is part of the
    result so reports never overstate it.
    """

    b_max: int
    k_max: int
    survivors: list[int]
    eliminated: list[dict]
    elapsed: float = 0.0


def search_conjecture(b_max: int, k_max: int, table: PrimeTable | None = None) -> ConjectureSearch:
    """For each b in [2, b_max], find the minimal k <= k_max with
    b not dividing sigma(b*k - 1), or record b as a survivor."""
    started = perf_counter()
    if b_max < 2:
        raise ValueError("b_max must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = _ensure_table(table, b_max * k_max - 1)

    survivors, eliminated = [], []
    for b in range(2, b_max + 1):
        hit = next(_sweep(1, k_max, _sigma_failures(b, table)), None)
        if hit is None:
            survivors.append(b)
            continue
        k, r = hit
        w = _sigma_witness(k, b, r, table)
        eliminated.append({"b": b, "witness_k": k, "value": w["value"], "sigma": w["sigma"], "remainder": r})
    return ConjectureSearch(b_max, k_max, survivors, eliminated, perf_counter() - started)


def verify_theorem_6kminus1(n_min: int, n_max: int, table: PrimeTable | None = None) -> VerificationOutcome:
    """Check that each Catalan number in the index range has at least one
    prime factor congruent to 5 mod 6; witnesses list the indices without."""
    started = perf_counter()
    if n_min < 0 or n_max < n_min:
        raise ValueError("need 0 <= n_min <= n_max")
    table = _ensure_table(table, max(2 * n_max, 2))

    def check(n):
        factors = catalan_factorization(n, table)
        if not any(p % 6 == 5 for p, _ in factors):
            yield {"n": n, "primes": list(factors.prime_factors())}

    witnesses = _first_witnesses(n_min, n_max, _per_index(check))
    return _outcome("theorem1", (n_min, n_max), witnesses, started)


def verify_sigma_catalan(n_min: int, n_max: int, table: PrimeTable | None = None) -> VerificationOutcome:
    """Check 6 | sigma(catalan(n)) over the index range, working modulo 6
    on the factorization (the exact sigma value is never formed)."""
    started = perf_counter()
    if n_min < 0 or n_max < n_min:
        raise ValueError("need 0 <= n_min <= n_max")
    table = _ensure_table(table, max(2 * n_max, 2))

    def check(n):
        r = sigma_mod(catalan_factorization(n, table), 6)
        if r:
            yield {"n": n, "remainder": r}

    witnesses = _first_witnesses(n_min, n_max, _per_index(check))
    return _outcome("sigma-catalan", (n_min, n_max), witnesses, started)


def verify_erdos_interval(n_max: int, table: PrimeTable | None = None) -> VerificationOutcome:
    """Check that every prime in (n+1, 2n] divides the nth Catalan number
    with exponent exactly 1, for all n <= n_max."""
    started = perf_counter()
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = _ensure_table(table, 2 * n_max)

    def check(n):
        for p in table.primes_between(n + 1, 2 * n):
            v = _valuation(n, p)
            if v != 1:
                yield {"n": n, "p": p, "exponent": v}

    witnesses = _first_witnesses(1, n_max, _per_index(check))
    return _outcome("erdos-interval", (1, n_max), witnesses, started)


def verify_mersenne_parity(n_max: int) -> VerificationOutcome:
    """Check the parity criterion for all n <= n_max: catalan(n) is odd iff
    n + 1 is a power of two, with the Legendre and digit-sum routes for the
    2-adic valuation agreeing everywhere."""
    started = perf_counter()
    if n_max < 0:
        raise ValueError("n_max must be >= 0")

    def check(n):
        v_legendre = catalan_v2(n)
        v_digit = binary_digit_sum(n + 1) - 1
        power_of_two = (n + 1) & n == 0
        if v_legendre != v_digit or (v_legendre == 0) != power_of_two:
            yield {"n": n, "v2_legendre": v_legendre, "v2_digit_sum": v_digit}

    witnesses = _first_witnesses(0, n_max, _per_index(check))
    return _outcome("mersenne-parity", (0, n_max), witnesses, started)


def analyze_coprimality(a: int, b: int, search_bound: int = 1000) -> CoprimalityEdge:
    """Decide whether a*k - 1 and b*k - 1 are coprime for every k.

    They always are exactly when every prime factor of b - a divides a
    (any common prime q divides b*(a*k-1) - a*(b*k-1) = a - b yet cannot
    divide a).  Otherwise the smallest k with a nontrivial gcd is located
    by direct scan and reported with that gcd.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    if b <= a:
        raise ValueError("need a < b")
    if search_bound < 1:
        raise ValueError("search_bound must be >= 1")
    d = b - a
    while (g := gcd(d, a)) > 1:
        d //= g
    if d == 1:
        return CoprimalityEdge(a, b, ALWAYS_COPRIME)
    for k in range(1, search_bound + 1):
        g = gcd(a * k - 1, b * k - 1)
        if g > 1:
            return CoprimalityEdge(a, b, SHARED_DIVISOR, shared_divisor=g, witness_k=k)
    raise InconclusiveError(
        f"pair ({a}, {b}) shares divisors of {d} but no witness k <= {search_bound}"
    )


def coprimality_graph(coeffs, search_bound: int = 1000) -> list[CoprimalityEdge]:
    """analyze_coprimality over every unordered pair, in sorted pair order."""
    values = sorted(coeffs)
    if len(values) != len(set(values)):
        raise ValueError("coefficients must be distinct")
    if any(c < 2 for c in values):
        raise ValueError("coefficients must be >= 2")
    return [
        analyze_coprimality(a, b, search_bound)
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    ]
