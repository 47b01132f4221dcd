from dataclasses import replace
from math import gcd

import pytest

import oracles
from catsigma import (
    FAMILY_MODULI,
    SMALL_INDEX_EXCEPTIONS,
    InconclusiveError,
    analyze_coprimality,
    claims,
    coprimality_graph,
    search_conjecture,
    verify_erdos_interval,
    verify_family,
    verify_lemma_six,
    verify_mersenne_parity,
    verify_sigma_catalan,
    verify_theorem_6kminus1,
)


def test_lemma_six_holds_small(table_100k):
    for k_max in (1, 21, 10_000):
        outcome = verify_lemma_six(k_max, table_100k)
        assert outcome.holds
        assert outcome.counterexamples == []
        assert outcome.range == (1, k_max)
        assert outcome.claim_id == "lemma-six"


def test_lemma_six_validation():
    with pytest.raises(ValueError):
        verify_lemma_six(0)


def test_family_holds_for_known_moduli(table_100k):
    for z in FAMILY_MODULI:
        assert verify_family(z, 2_000, table_100k).holds


def test_family_counterexamples_reverify(table_100k):
    outcome = verify_family(5, 100, table_100k)
    assert not outcome.holds
    first = outcome.counterexamples[0]
    assert first == {"k": 1, "value": 4, "sigma": 7, "remainder": 2}
    for witness in outcome.counterexamples:
        sigma = oracles.sigma_by_scan(witness["value"])
        assert sigma == witness["sigma"]
        assert sigma % 5 == witness["remainder"] != 0


def test_family_z2_dies_at_k1(table_100k):
    outcome = verify_family(2, 3, table_100k)
    assert not outcome.holds
    assert outcome.counterexamples[0] == {"k": 1, "value": 1, "sigma": 1, "remainder": 1}


def test_family_witness_list_is_capped(table_100k):
    outcome = verify_family(5, 20_000, table_100k)
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


def test_outcomes_hold_iff_no_counterexamples(table_100k):
    good = verify_family(6, 500, table_100k)
    bad = verify_family(7, 500, table_100k)
    assert good.holds and not good.counterexamples
    assert not bad.holds and bad.counterexamples


def test_conjecture_search_small(table_100k):
    result = search_conjecture(24, 1_000, table_100k)
    assert result.survivors == [3, 4, 6, 8, 12, 24]
    eliminated_b = {w["b"] for w in result.eliminated}
    assert eliminated_b == set(range(2, 25)) - set(result.survivors)


def test_conjecture_search_minimal_witnesses(table_100k):
    result = search_conjecture(10, 1_000, table_100k)
    for witness in result.eliminated:
        b, k = witness["b"], witness["witness_k"]
        n = b * k - 1
        sigma = 1 if n == 1 else oracles.sigma_by_scan(n)
        assert sigma % b != 0
        for earlier in range(1, k):  # no earlier k violates
            m = b * earlier - 1
            assert (1 if m == 1 else oracles.sigma_by_scan(m)) % b == 0


def test_conjecture_search_b2_dies_immediately(table_100k):
    result = search_conjecture(2, 1, table_100k)
    assert result.survivors == []
    assert result.eliminated[0]["witness_k"] == 1


def test_theorem_range_examples(table_10k):
    assert verify_theorem_6kminus1(3, 3, table_10k).holds  # value 5 is 6*1-1
    single = verify_theorem_6kminus1(4, 4, table_10k)
    assert not single.holds
    assert single.counterexamples[0]["primes"] == [2, 7]
    low = verify_theorem_6kminus1(0, 5, table_10k)
    assert {w["n"] for w in low.counterexamples} == set(SMALL_INDEX_EXCEPTIONS)
    assert verify_theorem_6kminus1(6, 500, table_10k).holds


def test_sigma_catalan_range(table_10k):
    assert verify_sigma_catalan(6, 300, table_10k).holds
    n2 = verify_sigma_catalan(2, 2, table_10k)
    assert not n2.holds
    assert n2.counterexamples == [{"n": 2, "remainder": 3}]
    assert verify_sigma_catalan(7, 7, table_10k).holds


def test_erdos_interval(table_10k):
    assert verify_erdos_interval(1, table_10k).holds  # empty interval
    assert verify_erdos_interval(300, table_10k).holds


def test_index_sweep_stops_at_the_tenth_witness(table_10k, monkeypatch):
    # with every valuation 0, each prime in (n+1, 2n] is a witness; the
    # sweep reports the first ten (n, p) pairs and checks no further prime
    calls = []

    def zero(n, p):
        calls.append((n, p))
        return 0

    monkeypatch.setattr(claims, "_valuation", zero)
    outcome = verify_erdos_interval(50, table_10k)
    expected = [
        (n, p) for n in range(1, 51) for p in table_10k.primes_between(n + 1, 2 * n)
    ][:10]
    assert [(w["n"], w["p"]) for w in outcome.counterexamples] == expected
    assert all(w["exponent"] == 0 for w in outcome.counterexamples)
    assert calls == expected


def test_mersenne_parity_small():
    outcome = verify_mersenne_parity(5_000)
    assert outcome.holds
    assert outcome.range == (0, 5_000)


@pytest.mark.parametrize("block", [7, 1000])
def test_outcomes_do_not_depend_on_block_size(table_100k, monkeypatch, block):
    # witnesses straddle blocks of 7, and the sweep stops after the block
    # that yields the tenth; blocks of 1000 cover the same ranges coarsely
    def outcomes():
        results = (
            verify_lemma_six(3_000, table_100k),
            verify_family(5, 3_000, table_100k),
            verify_family(24, 3_000, table_100k),
            search_conjecture(40, 200, table_100k),
            verify_theorem_6kminus1(0, 300, table_100k),
            verify_sigma_catalan(0, 300, table_100k),
        )
        return [replace(r, elapsed=0.0) for r in results]

    expected = outcomes()
    monkeypatch.setattr(claims, "_BLOCK", block)
    assert outcomes() == expected


def test_range_validation(table_10k):
    with pytest.raises(ValueError):
        verify_theorem_6kminus1(5, 4, table_10k)
    with pytest.raises(ValueError):
        verify_sigma_catalan(-1, 4, table_10k)
    with pytest.raises(ValueError):
        verify_erdos_interval(0, table_10k)
    with pytest.raises(ValueError):
        verify_mersenne_parity(-1)


def test_undersized_table_rejected(table_10k):
    with pytest.raises(ValueError):
        verify_lemma_six(10_000, table_10k)  # needs 6k-1 up to 59999


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
