from bisect import bisect_right
from dataclasses import replace
from functools import cache
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from catsigma import (
    FAMILY_MODULI,
    SMALL_INDEX_EXCEPTIONS,
    CapacityError,
    InconclusiveError,
    analyze_coprimality,
    catalan_factorization,
    claims,
    coprimality_graph,
    primes,
    search_conjecture,
    sigma_mod,
    verify_erdos_interval,
    verify_family,
    verify_lemma_six,
    verify_mersenne_parity,
    verify_sigma_catalan,
    verify_theorem_6kminus1,
)
from catsigma.catalan import _valuation_block


def test_lemma_six_holds_small():
    for k_max in (1, 21, 10_000):
        outcome = verify_lemma_six(k_max)
        assert outcome.holds
        assert outcome.counterexamples == []
        assert outcome.range == (1, k_max)
        assert outcome.claim_id == "lemma-six"


def test_lemma_six_validation():
    with pytest.raises(ValueError):
        verify_lemma_six(0)


def test_family_holds_for_known_moduli():
    for z in FAMILY_MODULI:
        assert verify_family(z, 2_000).holds


def test_family_counterexamples_reverify():
    outcome = verify_family(5, 100)
    assert not outcome.holds
    first = outcome.counterexamples[0]
    assert first == {"k": 1, "value": 4, "sigma": 7, "remainder": 2}
    for witness in outcome.counterexamples:
        sigma = oracles.sigma_by_scan(witness["value"])
        assert sigma == witness["sigma"]
        assert sigma % 5 == witness["remainder"] != 0


def test_family_z2_dies_at_k1():
    outcome = verify_family(2, 3)
    assert not outcome.holds
    assert outcome.counterexamples[0] == {"k": 1, "value": 1, "sigma": 1, "remainder": 1}


def test_family_witness_list_is_capped():
    outcome = verify_family(5, 20_000)
    assert not outcome.holds
    assert len(outcome.counterexamples) == 10
    assert [w["k"] for w in outcome.counterexamples] == sorted(
        w["k"] for w in outcome.counterexamples
    )


def test_family_validation():
    with pytest.raises(ValueError):
        verify_family(1, 10)
    with pytest.raises(ValueError):
        verify_family(5, 0)


def test_outcomes_hold_iff_no_counterexamples():
    good = verify_family(6, 500)
    bad = verify_family(7, 500)
    assert good.holds and not good.counterexamples
    assert not bad.holds and bad.counterexamples


def test_conjecture_search_small():
    result = search_conjecture(24, 1_000)
    assert result.survivors == [3, 4, 6, 8, 12, 24]
    eliminated_b = {w["b"] for w in result.eliminated}
    assert eliminated_b == set(range(2, 25)) - set(result.survivors)


def test_conjecture_search_minimal_witnesses():
    result = search_conjecture(10, 1_000)
    for witness in result.eliminated:
        b, k = witness["b"], witness["witness_k"]
        n = b * k - 1
        sigma = 1 if n == 1 else oracles.sigma_by_scan(n)
        assert sigma % b != 0
        for earlier in range(1, k):  # no earlier k violates
            m = b * earlier - 1
            assert (1 if m == 1 else oracles.sigma_by_scan(m)) % b == 0


def test_conjecture_search_b2_dies_immediately():
    result = search_conjecture(2, 1)
    assert result.survivors == []
    assert result.eliminated[0]["witness_k"] == 1


def test_theorem_range_examples():
    assert verify_theorem_6kminus1(3, 3).holds  # value 5 is 6*1-1
    single = verify_theorem_6kminus1(4, 4)
    assert not single.holds
    assert single.counterexamples[0]["primes"] == [2, 7]
    low = verify_theorem_6kminus1(0, 5)
    assert {w["n"] for w in low.counterexamples} == set(SMALL_INDEX_EXCEPTIONS)
    assert verify_theorem_6kminus1(6, 500).holds


def test_sigma_catalan_range():
    assert verify_sigma_catalan(6, 300).holds
    n2 = verify_sigma_catalan(2, 2)
    assert not n2.holds
    assert n2.counterexamples == [{"n": 2, "remainder": 3}]
    assert verify_sigma_catalan(7, 7).holds


def test_erdos_interval():
    assert verify_erdos_interval(1).holds  # empty interval
    assert verify_erdos_interval(300).holds


def test_erdos_exponents_are_kummer_carries():
    # Kummer: the exponent of p in C(2n, n) is the number of carries in
    # n + n in base p, and a p in (n + 1, 2n] does not divide n + 1, so it
    # is also the exponent of p in C_n
    listed = oracles.primes_by_sieve(6_000)
    pairs = [
        (n, p)
        for n in range(1, 3_001)
        for p in listed[bisect_right(listed, n + 1) : bisect_right(listed, 2 * n)]
    ]
    assert len(pairs) == 564_987
    carried = [oracles.carries(n, n, p) for n, p in pairs]
    ns, ps = np.array(pairs, dtype=np.int64).T
    assert _valuation_block(ns, ps).tolist() == carried == [1] * len(pairs)


def test_index_claims_hold_from_6_to_a_million_by_an_independent_sieve():
    # from the oracle's own sieve, every n in 6..10**6 has a prime
    # q = 5 mod 6 in (n + 1, 2n]; such a q divides C_n exactly once
    # (2n // q = 1, (n + 1) // q = n // q = 0, q * q > 2n), so C_n has a
    # 6k - 1 factor and 6 | sigma(C_n), and both sweeps must hold there
    n_max = 10**6
    fives = [q for q in oracles.primes_by_sieve(2 * n_max) if q % 6 == 5]
    lacking = [n for n in range(6, n_max + 1) if fives[bisect_right(fives, 2 * n) - 1] <= n + 1]
    assert lacking == []
    assert verify_theorem_6kminus1(6, n_max).holds
    assert verify_sigma_catalan(6, n_max).holds


def test_index_sweep_stops_at_the_tenth_witness(table_10k, monkeypatch):
    # with every valuation 0, each prime in (n+1, 2n] is a witness; the
    # sweep reports the first ten (n, p) pairs and evaluates no block after
    # the one that yields the tenth
    blocks = []

    def zeros(ns, ps):
        blocks.append(list(zip(ns.tolist(), ps.tolist())))
        return np.zeros(len(ns), dtype=np.int64)

    monkeypatch.setattr(claims, "_BLOCK", 7)  # n-blocks and pair windows alike
    monkeypatch.setattr(claims, "_valuation_block", zeros)
    outcome = verify_erdos_interval(50)
    listed = table_10k.primes.tolist()
    pairs = [(n, p) for n in range(1, 51) for p in listed if n + 1 < p <= 2 * n]
    assert [(w["n"], w["p"]) for w in outcome.counterexamples] == pairs[:10]
    assert all(w["exponent"] == 0 for w in outcome.counterexamples)
    evaluated = [pair for block in blocks for pair in block]
    assert evaluated == pairs[: len(evaluated)]
    assert all(0 < len(block) <= 7 for block in blocks)
    assert len(evaluated) - len(blocks[-1]) < 10 <= len(evaluated)


def test_k_sweeps_stop_at_the_tenth_witness(monkeypatch):
    # with every sigma 1, hence every remainder 1, each k is a witness; the
    # sweep evaluates no block after the one that yields the tenth (or, per
    # b, the first)
    blocks = []

    def ones(values, table):
        blocks.append(values.tolist())
        return np.ones(len(values), dtype=np.int64)

    monkeypatch.setattr(claims, "sigma_block", ones)
    outcome = verify_family(5, 10_000)
    assert [w["k"] for w in outcome.counterexamples] == list(range(1, 11))
    assert blocks == [[5 * k - 1 for k in range(1, 17)]]

    blocks.clear()
    result = search_conjecture(6, 1_000)
    assert result.survivors == []
    assert [w["witness_k"] for w in result.eliminated] == [1] * 5
    assert blocks == [[b * k - 1 for k in range(1, 17)] for b in range(2, 7)]


def _check_blocks(lo, hi, block):
    blocks = list(claims._blocks(lo, hi))
    if lo > hi:
        assert blocks == []
        return
    assert all(b.dtype == np.int64 and b.size > 0 for b in blocks)
    assert np.array_equal(np.concatenate(blocks), np.arange(lo, hi + 1))
    # 16, 32, ... capped at the block size; only the last may fall short
    full = [min(min(16, block) << i, block) for i in range(len(blocks))]
    sizes = [b.size for b in blocks]
    assert sizes[:-1] == full[:-1] and sizes[-1] <= full[-1]


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(-50, 10**6), length=st.integers(-3, 20_000))
def test_blocks_double_up_to_the_default_cap(lo, length):
    _check_blocks(lo, lo + length - 1, claims._BLOCK)


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(0, 1_000), length=st.integers(-3, 400), block=st.integers(1, 40))
def test_blocks_double_up_to_a_patched_cap(lo, length, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(claims, "_BLOCK", block)
        _check_blocks(lo, lo + length - 1, block)


def test_blocks_cover_every_small_window():
    # every window near zero, empty ones included, then spans past three
    # full blocks (16 + 32 + ... + 2048 entries come first)
    for lo in range(-3, 40):
        for hi in range(lo - 2, lo + 70):
            _check_blocks(lo, hi, claims._BLOCK)
    ramp = sum(16 << i for i in range(8))
    _check_blocks(5, 5 + ramp + 3 * claims._BLOCK + 100, claims._BLOCK)
    assert [b.size for b in claims._blocks(0, ramp + 3 * claims._BLOCK)][-5:] == [2048, 4096, 4096, 4096, 1]


def test_erdos_pairs_match_a_nested_loop():
    # 154,366 pairs, in the order of the nested loop over n and then p
    n_max = 1500
    pairs = [
        pair
        for ns, ps in claims._erdos_pairs(n_max, primes.build_prime_table(2 * n_max).primes)
        for pair in zip(ns.tolist(), ps.tolist())
    ]
    assert len(pairs) == 154_366
    assert pairs == oracles.erdos_pairs(n_max)


def _holds_by_factorization(n, table):
    factors = catalan_factorization(n, table)
    return any(p % 6 == 5 for p, _ in factors), sigma_mod(factors, 6) == 0


def _fives(table):
    return [p for p in table.primes if p % 6 == 5]


def test_uncovered_indices_are_the_small_exceptions(table_10k):
    uncovered = list(claims._uncovered(0, 5_000))
    assert uncovered == sorted(SMALL_INDEX_EXCEPTIONS)
    for n in range(5_001):
        if n not in SMALL_INDEX_EXCEPTIONS:
            assert _holds_by_factorization(n, table_10k) == (True, True)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 10**5), length=st.integers(1, 10**5))
@example(a=4, length=6)  # a window that starts inside a gap
def test_uncovered_indices_in_random_windows(table_200k, a, length):
    b = min(a + length - 1, 10**5)
    uncovered = list(claims._uncovered(a, b))
    assert uncovered == sorted(n for n in SMALL_INDEX_EXCEPTIONS if a <= n <= b)
    for n in {a, b} - SMALL_INDEX_EXCEPTIONS:
        assert _holds_by_factorization(n, table_200k) == (True, True)


@cache
def _lacking_by_sieve():
    return oracles.indices_without_5_mod_6_prime(10**6)


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(st.integers(0, 40), st.integers(0, 10**6)), length=st.one_of(st.just(1), st.integers(1, 10**6)))
@example(a=4, length=1)  # windows that start inside a gap
@example(a=4, length=3)
@example(a=5, length=1)
@example(a=3, length=1)  # and one that starts and ends between the gaps
@example(a=0, length=10**6)
def test_uncovered_matches_an_independent_sieve(a, length):
    b = min(a + length - 1, 10**6)
    assert list(claims._uncovered(a, b)) == [n for n in _lacking_by_sieve() if a <= n <= b]


@pytest.mark.parametrize("a", [2**32, 10**12, 10**18])
def test_uncovered_lists_nothing_past_the_table_cap(a):
    assert list(claims._uncovered(a, a)) == []
    assert list(claims._uncovered(a, 2 * a)) == []


def test_index_sweeps_past_the_table_cap_build_no_table(monkeypatch):
    monkeypatch.setattr(claims, "build_prime_table", lambda limit: pytest.fail(f"built a table to {limit}"))
    assert verify_theorem_6kminus1(6, 10**18).holds
    assert verify_sigma_catalan(6, 10**18).holds


def test_index_sweeps_without_the_gap_list(monkeypatch):
    expected = [verify_theorem_6kminus1(0, 3_000), verify_sigma_catalan(0, 3_000)]
    monkeypatch.setattr(claims, "_uncovered", lambda n_min, n_max: iter(range(n_min, n_max + 1)))
    factored = [verify_theorem_6kminus1(0, 3_000), verify_sigma_catalan(0, 3_000)]
    assert [o.counterexamples for o in factored] == [o.counterexamples for o in expected]


def test_index_sweeps_over_tables_without_a_5_mod_6_prime(monkeypatch):
    tables = []

    def recording(n):
        tables.append(primes.build_prime_table(n))
        return tables[-1]

    monkeypatch.setattr(claims, "build_prime_table", recording)
    assert verify_theorem_6kminus1(0, 0).counterexamples == [{"n": 0, "primes": []}]
    assert verify_theorem_6kminus1(0, 2).counterexamples == [
        {"n": 0, "primes": []},
        {"n": 1, "primes": []},
        {"n": 2, "primes": [2]},
    ]
    assert verify_sigma_catalan(2, 2).counterexamples == [{"n": 2, "remainder": 3}]
    assert [t.limit for t in tables] == [2, 2, 2, 4, 4]  # one table to 2n per listed n
    assert all(len(_fives(t)) == 0 for t in tables)


def test_mersenne_witnesses_come_from_the_per_index_routes(monkeypatch):
    # with the array Legendre pass patched to 0, every n + 1 that is not a
    # power of two is flagged; the records carry catalan_v2 and the digit sum
    monkeypatch.setattr(claims, "_valuation_block", lambda ns, p: np.zeros(len(ns), dtype=np.int64))
    outcome = verify_mersenne_parity(20)
    flagged = [n for n in range(21) if (n + 1) & n]
    assert [w["n"] for w in outcome.counterexamples] == flagged[:10]
    for w in outcome.counterexamples:
        assert w["v2_legendre"] == w["v2_digit_sum"] == oracles.v2(oracles.catalan_by_comb(w["n"]))


def test_mersenne_parity_small():
    outcome = verify_mersenne_parity(5_000)
    assert outcome.holds
    assert outcome.range == (0, 5_000)


@pytest.mark.parametrize("block", [7, 1000])
def test_outcomes_do_not_depend_on_block_size(monkeypatch, block):
    # witnesses straddle blocks of 7, and the sweep stops after the block
    # that yields the tenth; blocks of 1000 cover the same ranges coarsely
    def outcomes():
        results = (
            verify_lemma_six(3_000),
            verify_family(5, 3_000),
            verify_family(24, 3_000),
            search_conjecture(40, 200),
            verify_theorem_6kminus1(0, 300),
            verify_sigma_catalan(0, 300),
            verify_erdos_interval(300),
            verify_mersenne_parity(3_000),
        )
        return [replace(r, elapsed=0.0) for r in results]

    expected = outcomes()
    monkeypatch.setattr(claims, "_BLOCK", block)
    assert outcomes() == expected


def test_range_validation():
    with pytest.raises(ValueError):
        verify_theorem_6kminus1(5, 4)
    with pytest.raises(ValueError):
        verify_sigma_catalan(-1, 4)
    with pytest.raises(ValueError):
        verify_erdos_interval(0)
    with pytest.raises(ValueError):
        verify_mersenne_parity(-1)


def test_mersenne_parity_capped_below_int64_index_bound(monkeypatch):
    # the passes form 2n in int64: 2**62 - 1 is the last n_max accepted (it
    # stops at its tenth witness here), and 2**62 is refused before any pass
    monkeypatch.setattr(claims, "_valuation_block", lambda ns, p: np.zeros(len(ns), dtype=np.int64))
    assert len(verify_mersenne_parity(2**62 - 1).counterexamples) == 10
    monkeypatch.setattr(claims, "_valuation_block", lambda ns, p: pytest.fail("swept past the bound"))
    with pytest.raises(CapacityError, match="capped below index"):
        verify_mersenne_parity(2**62)


@pytest.mark.parametrize(
    "verifier,args,limits",
    [
        (verify_lemma_six, (100,), [599]),  # 6k - 1
        (verify_family, (5, 30), [149]),  # z*k - 1
        (verify_family, (2, 1), [2]),
        (search_conjecture, (10, 20), [199]),  # b*k - 1
        (search_conjecture, (2, 1), [2]),
        (verify_theorem_6kminus1, (3, 40), [8, 10]),  # 2n for each listed n
        (verify_theorem_6kminus1, (0, 0), [2]),
        (verify_sigma_catalan, (3, 40), [8, 10]),
        (verify_sigma_catalan, (0, 0), [2]),
        (verify_erdos_interval, (40,), [80]),  # 2 * n_max
        (verify_mersenne_parity, (40,), []),  # no table
        (verify_theorem_6kminus1, (6, 40), []),  # nothing listed, so no table
        (verify_sigma_catalan, (6, 40), []),
    ],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, list) and v else None,
)
def test_each_verifier_builds_the_table_its_range_needs(monkeypatch, verifier, args, limits):
    built = []

    def recording(n):
        built.append(n)
        return primes.build_prime_table(n)

    monkeypatch.setattr(claims, "build_prime_table", recording)
    verifier(*args)
    assert built == limits


@pytest.mark.parametrize(
    "a,b,divisor,witness",
    [(3, 8, 5, 2), (3, 24, 7, 5), (4, 24, 5, 4)],
)
def test_shared_divisor_edges(a, b, divisor, witness):
    edge = analyze_coprimality(a, b)
    assert edge.status == "shared_divisor"
    assert edge.shared_divisor == divisor
    assert edge.witness_k == witness
    assert gcd(a * witness - 1, b * witness - 1) % divisor == 0


@pytest.mark.parametrize("a,b", [(3, 4), (4, 8), (3, 6), (6, 8), (6, 12), (12, 24)])
def test_always_coprime_edges(a, b):
    edge = analyze_coprimality(a, b)
    assert edge.status == "always_coprime"
    assert edge.shared_divisor is None
    # justification: every prime factor of b-a divides a
    assert all(a % p == 0 for p in oracles.trial_factor(b - a))


def test_coprimality_closed_form_matches_brute_scan():
    for a in range(2, 30):
        for b in range(a + 1, 31):
            edge = analyze_coprimality(a, b, search_bound=10_000)
            brute = next(
                (k for k in range(1, 10_001) if gcd(a * k - 1, b * k - 1) > 1), None
            )
            if edge.status == "always_coprime":
                assert brute is None
            else:
                assert brute == edge.witness_k
                assert gcd(a * brute - 1, b * brute - 1) == edge.shared_divisor


def test_coprimality_validation():
    with pytest.raises(ValueError):
        analyze_coprimality(1, 5)
    with pytest.raises(ValueError):
        analyze_coprimality(4, 4)
    with pytest.raises(ValueError):
        analyze_coprimality(3, 8, search_bound=0)


def test_coprimality_inconclusive_when_bound_too_small():
    with pytest.raises(InconclusiveError):
        analyze_coprimality(3, 8, search_bound=1)  # witness is k=2


def test_graph_on_the_six_coefficients():
    edges = coprimality_graph([3, 4, 6, 8, 12, 24])
    assert len(edges) == 15
    shared = {(e.a, e.b): (e.shared_divisor, e.witness_k) for e in edges if e.shared_divisor}
    assert shared == {(3, 8): (5, 2), (3, 24): (7, 5), (4, 24): (5, 4)}
    assert sum(e.shared_divisor is None for e in edges) == 12
    for e in edges:
        assert e.witness_k is None or e.witness_k <= 5


def test_graph_small_cases():
    edges = coprimality_graph([3, 6])
    assert len(edges) == 1
    assert edges[0].status == "always_coprime"
    with pytest.raises(ValueError):
        coprimality_graph([3, 3])
    with pytest.raises(ValueError):
        coprimality_graph([1, 5])
