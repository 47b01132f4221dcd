import numpy as np
import pytest

import oracles
from catsigma import CapacityError, build_prime_table, catalan_factorization, is_prime, primes


def test_first_primes():
    assert build_prime_table(10).primes.tolist() == [2, 3, 5, 7]


def test_pi_30():
    assert build_prime_table(30).pi(30) == 10


def test_pi_two_million():
    # independent frozen count for the main build size
    assert build_prime_table(2_000_000).pi(2_000_000) == 148933


def test_limit_below_two_rejected():
    with pytest.raises(ValueError):
        build_prime_table(1)


def test_build_is_deterministic():
    assert build_prime_table(50_000).primes.tolist() == build_prime_table(50_000).primes.tolist()


def test_primes_are_spf_fixed_points():
    # the prime array and the spf array come from one sieve; they must agree
    for limit in (2, 3, 4, 1_300_000):
        table = build_prime_table(limit)
        assert table.spf.dtype == np.uint32 and len(table.spf) == limit + 1
        assert table.primes.dtype == np.int64 and table.primes.ndim == 1
        fixed = np.flatnonzero(table.spf == np.arange(limit + 1)).tolist()
        assert table.primes.tolist() == [m for m in fixed if m >= 2]
        # Python ints are made where primes leave the table
        listed = table.primes_between(0, limit)
        assert listed == table.primes.tolist()
        assert all(type(p) is int for p in listed)
    assert table.pi(1_300_000) == 100021  # frozen
    entries = catalan_factorization(650_000, table).entries
    assert entries and all(type(p) is int and type(e) is int for p, e in entries)


def test_memory_estimate_against_budget(monkeypatch):
    assert primes._physical_memory() > 0
    monkeypatch.setattr(primes, "_physical_memory", lambda: 100 * 2**20)
    primes.check_spf_limit(10**7)  # about 54 MiB by the estimate
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
    assert all(is_prime(p) for p in table_10k.primes.tolist())


def test_spf_is_smallest_prime_factor(table_10k):
    spf = table_10k.spf
    for m in range(2, 10_001):
        assert spf[m] == min(oracles.trial_factor(m))


def test_primes_between(table_10k):
    assert table_10k.primes_between(8, 14) == [11, 13]
    assert table_10k.primes_between(2, 2) == []
    with pytest.raises(ValueError):
        table_10k.primes_between(1, 20_000)


def test_twin_detection_agrees_with_prime_list(table_100k):
    listed = table_100k.primes.tolist()
    pset = set(listed)
    from_list = [p for p in listed if p + 2 in pset]
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


def test_every_prime_above_three_splits_mod6(table_10k):
    assert all(p % 6 in (1, 5) for p in table_10k.primes if p > 3)
