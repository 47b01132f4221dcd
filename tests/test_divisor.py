from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from catsigma import FAMILY_MODULI, Factorization, build_prime_table, factor_u64, sigma_block, sigma_exact, sigma_mod


@pytest.mark.parametrize(
    "entries,expected",
    [
        (((5, 1),), 6),
        ((), 1),
        (((3, 1), (11, 1), (13, 1)), 672),
        (((5, 3),), 156),
        (((2, 1), (7, 1)), 24),
    ],
)
def test_sigma_exact_examples(entries, expected):
    assert sigma_exact(Factorization(entries)) == expected


def test_sigma_exact_matches_divisor_scan(table_100k):
    for n in range(2, 5_000):
        assert sigma_exact(factor_u64(n, table_100k)) == oracles.sigma_by_scan(n)


@pytest.mark.parametrize("n", [2003**2, 2417**2, 5 * 1_000_003])
def test_sigma_exact_on_spf_factors_past_32_bits(table_6m, n):
    f = factor_u64(n, table_6m)
    # p**(e + 1) leaves the 32-bit range for some prime
    assert any(p ** (e + 1) > 2**32 for p, e in f)
    assert sigma_exact(f) == oracles.sigma_by_scan(n)


@settings(max_examples=80, deadline=None)
@given(z=st.integers(2, 60), k_lo=st.integers(1, 1_500), count=st.integers(1, 160))
@example(z=2, k_lo=1, count=1)  # the value 1
def test_sigma_block_matches_scalar_path(table_100k, z, k_lo, count):
    ks = np.arange(k_lo, k_lo + count, dtype=np.int64)
    values = z * ks - 1
    expected = [sigma_exact(factor_u64(int(v), table_100k)) for v in values]
    assert sigma_block(values, table_100k).tolist() == expected


def test_sigma_block_validation(table_10k):
    assert sigma_block(np.array([], dtype=np.int64), table_10k).tolist() == []
    with pytest.raises(ValueError):
        sigma_block(np.array([0, 5]), table_10k)
    with pytest.raises(ValueError):
        sigma_block(np.array([10_001]), table_10k)


def test_sigma_block_edges():
    # sigma(2**a) = 2**(a + 1) - 1; values up to the table's own limit,
    # even or odd, are accepted, and one past it is refused
    for limit in (10_000, 10_007):
        table = build_prime_table(limit)
        powers = [2**a for a in range(limit.bit_length())]
        assert sigma_block(np.array(powers), table).tolist() == [2 * v - 1 for v in powers]
        top = np.array([limit - 1, limit])
        assert sigma_block(top, table).tolist() == [oracles.sigma_by_scan(v) for v in top]
        with pytest.raises(ValueError, match=rf"\[1, {limit}\]"):
            sigma_block(np.array([limit + 1]), table)


def _exact_sigma_blocks(values, table, block=2**16):
    return np.concatenate([sigma_block(values[at : at + block], table) for at in range(0, len(values), block)])


def test_sigma_block_whole_ranges_against_pair_sieve(table_6m):
    # exact sigma for every v <= 10**6 and for every 6k - 1 with k <= 10**6,
    # lemma-six's acceptance range, against a divisor-pair sieve that shares
    # no code with the spf table
    values = np.arange(1, 10**6 + 1, dtype=np.int64)
    assert (_exact_sigma_blocks(values, table_6m) == oracles.sigma_by_pair_sieve(10**6)[1:]).all()
    values = 6 * np.arange(1, 10**6 + 1, dtype=np.int64) - 1
    assert (_exact_sigma_blocks(values, table_6m) == oracles.sigma_by_pair_sieve(6 * 10**6 - 1, 6, 5)).all()


@pytest.mark.parametrize(
    "entries,m,expected",
    [
        (((5, 1),), 6, 0),
        (((5, 3),), 6, 0),
        (((2, 1), (7, 1)), 6, 0),
        (((2, 1),), 6, 3),
    ],
)
def test_sigma_mod_examples(entries, m, expected):
    assert sigma_mod(Factorization(entries), m) == expected


def test_sigma_mod_rejects_small_modulus():
    with pytest.raises(ValueError):
        sigma_mod(Factorization(((2, 1),)), 1)


# factorizations whose terms p**(e + 1) run far past 64 bits
_LARGE_EXPONENTS = [
    Factorization(((2, 200), (3, 50))),
    Factorization(((2, 63), (3, 40), (5, 27), (7, 22), (999_983, 5))),
    Factorization(((2_305_843_009_213_693_951, 3),)),
]


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 12, 2**61 - 1, 10**30])
def test_sigma_mod_agrees_with_exact(table_100k, m):
    for n in range(1, 2_001):
        f = factor_u64(n, table_100k)
        assert sigma_mod(f, m) == sigma_exact(f) % m
    for f in _LARGE_EXPONENTS:
        # each term summed power by power, not by the closed form
        assert sigma_mod(f, m) == prod(sum(p**i for i in range(e + 1)) for p, e in f) % m


def test_pair_sums_total_sigma_up_to_1e5(table_100k):
    # sigma(n) is the sum of d + n/d over the divisor pairs across sqrt(n)
    totals = [0] * 100_001
    for m, d, q in oracles.divisor_pairs(100_000):
        totals[m] += d + q
    for n in range(2, 100_001):
        if isqrt(n) ** 2 != n:
            assert totals[n] == sigma_exact(factor_u64(n, table_100k))


@pytest.mark.parametrize("z", FAMILY_MODULI)
def test_family_pair_sums_divisible_by_z(z):
    # the pairing behind the family claim: every pair sum d + m/d of
    # m = z*k - 1 is divisible by z, so z divides sigma(m)
    seen = set()
    for m, d, q in oracles.divisor_pairs(600_000, z, z - 1):
        assert (d + q) % z == 0, (m, d, q)
        seen.add(m)
    assert len(seen) == (600_000 + 1) // z  # every m = z*k - 1 <= 6*10**5


def test_pair_sums_fail_outside_the_family():
    # negative control: z = 5 fails first at 14 = 2 * 7, whose pair sum is 9
    bad = [(m, d) for m, d, q in oracles.divisor_pairs(1_000, 5, 4) if (d + q) % 5]
    assert min(bad) == (14, 2)


def test_sigma_multiplicative_over_coprime_pairs(table_6m):
    small = [0, 1] + [sigma_exact(factor_u64(n, table_6m)) for n in range(2, 1_001)]
    for a in range(2, 1_001):
        sa = small[a]
        for b in range(a + 1, 1_001):
            if gcd(a, b) == 1:
                assert sigma_exact(factor_u64(a * b, table_6m)) == sa * small[b]
