import numpy as np
import pytest

import oracles
from catsigma import CapacityError, Mod6Class, build_prime_table, classify_mod6, is_prime, primes


def test_first_primes():
    assert build_prime_table(10).primes == [2, 3, 5, 7]


def test_pi_30():
    assert build_prime_table(30).pi(30) == 10


def test_pi_two_million():
    # independent frozen count for the main build size
    assert build_prime_table(2_000_000).pi(2_000_000) == 148933


def test_limit_below_two_rejected():
    with pytest.raises(ValueError):
        build_prime_table(1)


def test_build_is_deterministic():
    assert build_prime_table(50_000).primes == build_prime_table(50_000).primes


def test_primes_are_spf_fixed_points():
    # the prime list and the spf array come from one sieve; they must agree
    for limit in (2, 3, 4, 1_300_000):
        table = build_prime_table(limit)
        assert table.spf.dtype == np.uint32 and len(table.spf) == limit + 1
        fixed = np.flatnonzero(table.spf == np.arange(limit + 1)).tolist()
        assert table.primes == [m for m in fixed if m >= 2]
        assert all(type(p) is int for p in table.primes)
    assert table.pi(1_300_000) == 100021  # frozen


def test_memory_estimate_against_budget(monkeypatch):
    assert primes._physical_memory() > 0
    monkeypatch.setattr(primes, "_physical_memory", lambda: 100 * 2**20)
    primes.check_spf_limit(10**7)  # about 84 MiB by the estimate
    with pytest.raises(CapacityError, match="physical memory"):
        primes.check_spf_limit(2 * 10**7)
    # where the physical memory is unknown, only the uint32 cap applies
    monkeypatch.setattr(primes, "_physical_memory", lambda: None)
    primes.check_spf_limit(2**32 - 1)
    with pytest.raises(CapacityError, match="spf table limited"):
        primes.check_spf_limit(2**32)


def test_pi_matches_trial_counting(table_10k):
    running = 0
    for x in range(2, 10_001):
        running += oracles.trial_is_prime(x)
        assert table_10k.pi(x) == running


def test_pi_beyond_limit_rejected(table_10k):
    with pytest.raises(ValueError):
        table_10k.pi(10_001)


def test_listed_primes_pass_deterministic_test(table_10k):
    assert all(is_prime(p) for p in table_10k.primes)


def test_spf_is_smallest_prime_factor(table_10k):
    spf = table_10k.spf
    for m in range(2, 10_001):
        assert spf[m] == min(oracles.trial_factor(m))


def test_smallest_prime_factor_bounds(table_10k):
    assert table_10k.smallest_prime_factor(9999) == 3
    assert type(table_10k.smallest_prime_factor(9973)) is int
    with pytest.raises(ValueError):
        table_10k.smallest_prime_factor(1)
    with pytest.raises(ValueError):
        table_10k.smallest_prime_factor(10_001)


def test_primes_between(table_10k):
    assert table_10k.primes_between(8, 14) == [11, 13]
    assert table_10k.primes_between(2, 2) == []
    with pytest.raises(ValueError):
        table_10k.primes_between(1, 20_000)


def test_twin_detection_agrees_with_prime_list(table_100k):
    pset = set(table_100k.primes)
    from_list = [p for p in table_100k.primes if p + 2 in pset]
    from_test = [p for p in range(2, 10**5 - 1) if is_prime(p) and is_prime(p + 2)]
    assert from_list == from_test


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (5, True),  # 6*1 - 1
        (35, False),  # 6*6 - 1 = 5*7
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (2**61 - 1, True),
        (18446744073709551557, True),  # largest prime below 2**64
        (18446744073709551556, False),
    ],
)
def test_is_prime_cases(n, expected):
    assert is_prime(n) is expected


def test_is_prime_beyond_witness_bound():
    with pytest.raises(CapacityError):
        is_prime(10**25)


@pytest.mark.parametrize(
    "p,expected",
    [
        (2, Mod6Class.IS_TWO),
        (3, Mod6Class.IS_THREE),
        (7, Mod6Class.ONE_PLUS),
        (11, Mod6Class.ONE_MINUS),
    ],
)
def test_classify_examples(p, expected):
    assert classify_mod6(p) is expected


def test_classify_rejects_composites():
    with pytest.raises(ValueError):
        classify_mod6(35)


def test_every_prime_above_three_splits_mod6(table_10k):
    for p in table_10k.primes:
        cls = classify_mod6(p)
        if p > 3:
            assert cls in (Mod6Class.ONE_PLUS, Mod6Class.ONE_MINUS)
            assert cls is (Mod6Class.ONE_PLUS if p % 6 == 1 else Mod6Class.ONE_MINUS)
