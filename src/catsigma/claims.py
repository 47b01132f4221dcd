"""One verifier per divisibility claim.

Each verifier builds the prime table its range needs, sweeps the range in
ascending order, and returns a VerificationOutcome carrying the first ten
counterexample witnesses; the sweep stops once it has them.  The
conjecture search keeps only the first failing k of each modulus.  Every
sweep but two takes its blocks from _blocks, 16 entries doubling up to
4096, and runs a block only when the caller asks for more witnesses than
the earlier blocks gave.  The sigma(z*k - 1) sweeps (lemma six, the family,
the conjecture search) reduce one exact sigma_block call per block mod z
and factor only the values they report.  erdos and mersenne are numpy
passes built on catalan._valuation_block; erdos blocks its (n, p) pairs.
These block sweeps import numpy when they run, and nothing else here
does.  theorem1 and sigma-catalan are the other two: _gap_sweep factors,
each over a table to 2n, only the n that _uncovered lists from a chain of
primes congruent to 5 mod 6, and their witnesses come from the full
factorization.  Witness records are plain dicts so they serialize as-is.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from time import perf_counter
from typing import NamedTuple

from .catalan import _INT64_INDEX_BOUND, _valuation_block, catalan_factorization, catalan_v2
from .divisor import sigma_block, sigma_exact, sigma_mod
from .errors import CapacityError, InconclusiveError
from .factorint import factor_u64
from .primes import _MR_DETERMINISTIC_BOUND, PrimeTable, build_prime_table, is_prime

# The six moduli z for which z | sigma(z*k - 1) holds for every k; the
# conjecture search asks whether any other modulus shares the property.
FAMILY_MODULI = (3, 4, 6, 8, 12, 24)

# Catalan indices below 6 whose value has no prime factor congruent to
# 5 mod 6 (values 1, 1, 2, 14, 42; index 3 is absent because its value is 5).
SMALL_INDEX_EXCEPTIONS = frozenset({0, 1, 2, 4, 5})

ALWAYS_COPRIME = "always_coprime"
SHARED_DIVISOR = "shared_divisor"

_MAX_WITNESSES = 10
# First block of every sweep: most conjecture moduli and failing families
# fail at a small k, so the blocks start small and double up to _BLOCK.
_FIRST_PROBE_BLOCK = 16
# Largest block of every sweep (values of k, indices, or erdos (n, p)
# pairs): small enough that a block's arrays stay within the numpy
# import's memory floor.
_BLOCK = 4096


class VerificationOutcome(NamedTuple):
    """Result of one claim sweep.  holds is true iff no counterexamples."""

    claim_id: str
    range: tuple[int, int]
    holds: bool
    counterexamples: list[dict]
    elapsed: float = 0.0


class CoprimalityEdge(NamedTuple):
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
    """The outcome of a sweep whose witnesses arrive lazily in ascending
    order; the sweep runs only as far as the first _MAX_WITNESSES."""
    witnesses = list(islice(witnesses, _MAX_WITNESSES))
    return VerificationOutcome(
        claim_id=claim_id,
        range=span,
        holds=not witnesses,
        counterexamples=witnesses,
        elapsed=perf_counter() - started,
    )


def _blocks(lo: int, hi: int):
    """Ascending int64 arrays covering [lo, hi], none if lo > hi.  The
    first has _FIRST_PROBE_BLOCK entries and each later one twice as many
    as the one before, up to _BLOCK; the last may be shorter."""
    import numpy as np

    size = min(_FIRST_PROBE_BLOCK, _BLOCK)
    while lo <= hi:
        yield np.arange(lo, min(lo + size, hi + 1), dtype=np.int64)
        lo += size
        size = min(2 * size, _BLOCK)


def _sigma_failures(z: int, k_max: int, table: PrimeTable):
    """(k, remainder) for each k in [1, k_max] with z not dividing
    sigma(z*k - 1), in ascending k.  Each block of k from _blocks is one
    sigma_block call, reduced mod z here."""
    for ks in _blocks(1, k_max):
        remainders = sigma_block(z * ks - 1, table) % z
        bad = remainders.nonzero()[0][:_MAX_WITNESSES]  # no caller asks for more
        yield from zip(ks[bad].tolist(), remainders[bad].tolist())


def _sigma_witness(k: int, z: int, remainder: int, table: PrimeTable) -> dict:
    """Witness record for a k with z not dividing sigma(z*k - 1)."""
    n = z * k - 1
    return {"k": k, "value": n, "sigma": sigma_exact(factor_u64(n, table)), "remainder": remainder}


def verify_lemma_six(k_max: int) -> VerificationOutcome:
    """Check 6 | sigma(6k - 1) for every 1 <= k <= k_max: the z = 6 member
    of the family.  No witness can exist: every divisor d of m = 6k - 1 is
    coprime to 6, and m is -1 mod 6, hence no square, so the divisors pair
    off as d, m/d with one 1 and the other -1 mod 6, and each pair sums to
    0 mod 6."""
    return verify_family(6, k_max)._replace(claim_id="lemma-six")


def verify_family(z: int, k_max: int) -> VerificationOutcome:
    """Check z | sigma(z*k - 1) for 1 <= k <= k_max; witnesses carry the
    smallest violating k values."""
    started = perf_counter()
    if z < 2:
        raise ValueError("z must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = build_prime_table(max(z * k_max - 1, 2))
    witnesses = (_sigma_witness(k, z, r, table) for k, r in _sigma_failures(z, k_max, table))
    return _outcome(f"family-z{z}", (1, k_max), witnesses, started)


class ConjectureSearch(NamedTuple):
    """Moduli in [2, b_max] that survive the divisibility sweep to k_max.

    Survival up to a bound is not a proof; the checked bound is part of the
    result so reports never overstate it.
    """

    b_max: int
    k_max: int
    survivors: list[int]
    eliminated: list[dict]
    elapsed: float = 0.0


def search_conjecture(b_max: int, k_max: int) -> ConjectureSearch:
    """For each b in [2, b_max], find the minimal k <= k_max with
    b not dividing sigma(b*k - 1), or record b as a survivor."""
    started = perf_counter()
    if b_max < 2:
        raise ValueError("b_max must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = build_prime_table(max(b_max * k_max - 1, 2))

    survivors, eliminated = [], []
    for b in range(2, b_max + 1):
        hit = next(_sigma_failures(b, k_max, table), None)
        if hit is None:
            survivors.append(b)
            continue
        k, r = hit
        w = _sigma_witness(k, b, r, table)
        eliminated.append({"b": b, "witness_k": k, "value": w["value"], "sigma": w["sigma"], "remainder": r})
    return ConjectureSearch(b_max, k_max, survivors, eliminated, perf_counter() - started)


def _uncovered(n_min: int, n_max: int):
    """The n in [n_min, n_max] with no prime q congruent to 5 mod 6 in
    (n + 1, 2n], ascending.  Such a q divides C_n exactly once (2n // q = 1,
    (n + 1) // q = n // q = 0 and q * q > 2n), so it is a 6k - 1 factor,
    and sigma's q-term 1 + q is 0 mod 6; it settles each n from
    ceil(q / 2) to q - 2.  While every n <= c is settled, the largest such
    q <= 2c + 2 (is_prime, stepping down by 6) settles c + 1 exactly when
    q >= c + 3, and c moves on to q - 2; otherwise c + 1 is listed.  Each
    step about doubles c, so about log2(n_max) primes cover the range, and
    every q tested is at most 2 * n_max."""
    c = n_min - 1
    while c < n_max:
        q = 2 * c + 2 - (2 * c + 3) % 6
        while q >= c + 3 and not is_prime(q):
            q -= 6
        if q >= c + 3:
            c = q - 2
        else:
            c += 1
            yield c


def _gap_sweep(claim_id: str, n_min: int, n_max: int, witness) -> VerificationOutcome:
    """The theorem1 or sigma-catalan sweep of [n_min, n_max]: each n that
    _uncovered lists is factored over its own table to 2n, and
    witness(n, factors) gives its record, or None where the claim holds.
    _uncovered tests primes up to 2 * n_max, so n_max must keep them below
    is_prime's witness-set bound; a larger n_max is refused up front."""
    started = perf_counter()
    if n_min < 0 or n_max < n_min:
        raise ValueError("need 0 <= n_min <= n_max")
    if 2 * n_max >= _MR_DETERMINISTIC_BOUND:
        raise CapacityError(f"n_max {n_max} exceeds {(_MR_DETERMINISTIC_BOUND - 1) // 2}, "
                            "half the primality test's witness-set bound")
    records = (witness(n, catalan_factorization(n, build_prime_table(max(2 * n, 2))))
               for n in _uncovered(n_min, n_max))
    return _outcome(claim_id, (n_min, n_max), filter(None, records), started)


def verify_theorem_6kminus1(n_min: int, n_max: int) -> VerificationOutcome:
    """Check that each Catalan number in the index range has at least one
    prime factor congruent to 5 mod 6; witnesses list the indices without.
    Only the indices _uncovered lists are factored."""

    def witness(n, factors):
        covered = any(p % 6 == 5 for p, _ in factors)
        return None if covered else {"n": n, "primes": list(factors.prime_factors())}

    return _gap_sweep("theorem1", n_min, n_max, witness)


def verify_sigma_catalan(n_min: int, n_max: int) -> VerificationOutcome:
    """Check 6 | sigma(catalan(n)) over the index range, working modulo 6
    on the factorization (the exact sigma value is never formed).  Only the
    indices _uncovered lists are factored."""

    def witness(n, factors):
        r = sigma_mod(factors, 6)
        return {"n": n, "remainder": r} if r else None

    return _gap_sweep("sigma-catalan", n_min, n_max, witness)


def _erdos_pairs(n_max: int, primes):
    """Arrays (n, p) of the pairs with 1 <= n <= n_max and p prime in
    (n + 1, 2n], ordered by n and then p, in blocks of at most _BLOCK
    pairs.  The primes of one n are a run of the prime array, so a block is
    a window of offsets into the concatenated runs of one block of n: each
    n it meets is repeated once per pair of it inside the window.  numpy
    reads the table's int64 primes in place, without a copy."""
    import numpy as np

    primes = np.frombuffer(primes, dtype=np.int64)
    for ns in _blocks(1, n_max):
        first = np.searchsorted(primes, ns + 1, side="right")
        ends = np.cumsum(np.searchsorted(primes, 2 * ns, side="right") - first)
        starts = np.concatenate(([0], ends[:-1]))
        for at in _blocks(0, int(ends[-1]) - 1):
            lo, hi = np.searchsorted(ends, (at[0], at[-1]), side="right")
            rows = np.arange(lo, hi + 1)
            rows = np.repeat(rows, np.minimum(ends[rows], at[-1] + 1) - np.maximum(starts[rows], at[0]))
            yield ns[rows], primes[first[rows] + at - starts[rows]]


def verify_erdos_interval(n_max: int) -> VerificationOutcome:
    """Check that every prime in (n+1, 2n] divides the nth Catalan number
    with exponent exactly 1, for all n <= n_max."""
    started = perf_counter()
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = build_prime_table(2 * n_max)

    def witnesses():
        for ns, ps in _erdos_pairs(n_max, table.primes):
            exponents = _valuation_block(ns, ps)
            bad = (exponents != 1).nonzero()[0][:_MAX_WITNESSES]
            for n, p, v in zip(ns[bad].tolist(), ps[bad].tolist(), exponents[bad].tolist()):
                yield {"n": n, "p": p, "exponent": v}

    return _outcome("erdos-interval", (1, n_max), witnesses(), started)


def verify_mersenne_parity(n_max: int) -> VerificationOutcome:
    """Check the parity criterion for all n <= n_max: catalan(n) is odd iff
    n + 1 is a power of two, with the Legendre and digit-sum routes for the
    2-adic valuation agreeing everywhere.  Both routes run as array passes;
    a flagged n reports catalan_v2(n) and (n + 1).bit_count() - 1.
    The passes form 2n in int64, so n_max stays below 2**62."""
    import numpy as np

    started = perf_counter()
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max >= _INT64_INDEX_BOUND:
        raise CapacityError(f"2-adic valuation capped below index {_INT64_INDEX_BOUND}")

    def witnesses():
        for ns in _blocks(0, n_max):
            v_legendre = _valuation_block(ns, 2)
            v_digit = np.bitwise_count(ns + 1).astype(np.int64) - 1
            power_of_two = (ns + 1) & ns == 0
            bad = (v_legendre != v_digit) | ((v_legendre == 0) != power_of_two)
            for n in ns[bad].tolist():
                yield {"n": n, "v2_legendre": catalan_v2(n), "v2_digit_sum": (n + 1).bit_count() - 1}

    return _outcome("mersenne-parity", (0, n_max), witnesses(), started)


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
