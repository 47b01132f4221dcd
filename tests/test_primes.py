import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_tables_are_equal_and_hash_by_limit():
    a, b = build_prime_table(1000), build_prime_table(1000)
    a.primes  # a sieved array does not enter equality
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != build_prime_table(1001)
    assert a != 1000
    assert repr(a) == "PrimeTable(limit=1000)"


def test_primes_are_spf_fixed_points():
    # the prime array and the odd-only spf array come from two sieves, so
    # each checks the other: the spf array's zero entries are 1 and exactly
    # the listed odd primes, every other entry is a listed prime that
    # divides its odd m, with p * p <= m; the limits p*p and p*p - 1 sit on
    # either side of the first m that p marks
    for limit in (2, 3, 4, 8, 9, 25, 120, 121, 1_300_000):
        table = build_prime_table(limit)
        assert table.spf.dtype == np.uint16 and len(table.spf) == (limit + 1) // 2
        assert table.primes.typecode == "q" and table.primes.itemsize == 8
        odd = 2 * np.arange(len(table.spf), dtype=np.int64) + 1
        marked = table.spf != 0
        assert table.primes.tolist() == [2] + odd[~marked][1:].tolist()
        p = table.spf[marked].astype(np.int64)
        assert (odd[marked] % p == 0).all() and (p * p <= odd[marked]).all()
        assert np.isin(p, table.primes).all()
    assert table.pi(1_300_000) == 100021  # frozen
    # Python ints are made where primes leave the table
    entries = catalan_factorization(650_000, table).entries
    assert entries and all(type(p) is int and type(e) is int for p, e in entries)


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(2, 2_000_000), data=st.data())
@example(limit=2, data=None)
@example(limit=3, data=None)
@example(limit=4, data=None)
@example(limit=1_000_000, data=None)  # even
@example(limit=999_983, data=None)  # odd, and prime
def test_spf_matches_trial_factoring_in_random_ranges(limit, data):
    # every entry of a window of up to 300 odd m, drawn at random or (for
    # the examples) ending at the limit, against trial division
    table = build_prime_table(limit)
    size = len(table.spf)
    lo = size - min(size, 300) if data is None else data.draw(st.integers(0, size - 1))
    for i in range(lo, min(lo + 300, size)):
        m = 2 * i + 1
        smallest = min(oracles.trial_factor(m)) if m > 1 else 1
        assert table.spf[i] == (0 if smallest == m else smallest), m
    assert table.primes.tolist()[-3:] == oracles.primes_by_sieve(limit)[-3:]


def test_memory_estimate_against_budget(monkeypatch):
    # 4*10**7 needs about 60 MiB by the estimate, 8*10**7 about 118 MiB
    monkeypatch.setattr(primes, "_address_space_limit", lambda: None)
    assert primes._physical_memory() > 0
    monkeypatch.setattr(primes, "_cgroup_memory_limit", lambda: 100 * 2**20)
    primes.check_spf_limit(4 * 10**7)
    with pytest.raises(CapacityError, match="100 MiB budget"):
        primes.check_spf_limit(8 * 10**7)
    # the budget is the smaller of the two, whichever it is
    monkeypatch.setattr(primes, "_cgroup_memory_limit", lambda: None)
    monkeypatch.setattr(primes, "_physical_memory", lambda: 100 * 2**20)
    primes.check_spf_limit(4 * 10**7)
    with pytest.raises(CapacityError, match="100 MiB budget"):
        primes.check_spf_limit(8 * 10**7)
    monkeypatch.setattr(primes, "_cgroup_memory_limit", lambda: 2**63)
    with pytest.raises(CapacityError, match="100 MiB budget"):
        primes.check_spf_limit(8 * 10**7)
    # where neither is known, only the 2**32 - 1 cap applies
    monkeypatch.setattr(primes, "_cgroup_memory_limit", lambda: None)
    monkeypatch.setattr(primes, "_physical_memory", lambda: None)
    primes.check_spf_limit(2**32 - 1)
    with pytest.raises(CapacityError, match="spf table limited"):
        primes.check_spf_limit(2**32)


def test_address_space_limit(monkeypatch):
    # the soft RLIMIT_AS (ulimit -v) joins the budget; unlimited, or no
    # resource module, reads None
    resource = pytest.importorskip("resource")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    assert primes._address_space_limit() == (None if soft == resource.RLIM_INFINITY else soft)
    monkeypatch.setitem(sys.modules, "resource", None)
    assert primes._address_space_limit() is None
    monkeypatch.setattr(primes, "_cgroup_memory_limit", lambda: None)
    monkeypatch.setattr(primes, "_physical_memory", lambda: None)
    monkeypatch.setattr(primes, "_address_space_limit", lambda: 100 * 2**20)
    primes.check_spf_limit(4 * 10**7)
    with pytest.raises(CapacityError, match="100 MiB budget"):
        primes.check_spf_limit(8 * 10**7)


def test_cgroup_limit_files(monkeypatch, tmp_path):
    # the v2 file wins where it exists; "max" means no limit
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(primes, "_CGROUP_LIMIT_FILES", (str(v2), str(v1)))
    assert primes._cgroup_memory_limit() is None
    v1.write_text("9223372036854771712\n")
    assert primes._cgroup_memory_limit() == 9223372036854771712
    v2.write_text("max\n")
    assert primes._cgroup_memory_limit() is None
    v2.write_text("536870912\n")
    assert primes._cgroup_memory_limit() == 512 * 2**20


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
    # every entry: odd m = 2i + 1 <= 10**4, with 0 for 1 and for each prime
    spf = table_10k.spf
    assert len(spf) == 5_000 and spf[0] == 0
    for i in range(1, 5_000):
        m = 2 * i + 1
        assert (int(spf[i]) or m) == min(oracles.trial_factor(m))


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
