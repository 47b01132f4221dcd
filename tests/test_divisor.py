from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from catsigma import (
    Factorization,
    divisor_list,
    divisor_pairing,
    factor_u64,
    sigma_exact,
    sigma_mod,
    sigma_mod_block,
)


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
    # p**(e + 1) leaves the uint32 range of the spf table for some prime
    assert any(p ** (e + 1) > 2**32 for p, e in f)
    assert sigma_exact(f) == oracles.sigma_by_scan(n)


@settings(max_examples=80, deadline=None)
@given(z=st.integers(2, 60), k_lo=st.integers(1, 1_500), count=st.integers(1, 160))
@example(z=2, k_lo=1, count=1)  # the value 1
def test_sigma_mod_block_matches_scalar_path(table_100k, z, k_lo, count):
    ks = np.arange(k_lo, k_lo + count, dtype=np.int64)
    values = z * ks - 1
    expected = [1 % z if v == 1 else sigma_mod(factor_u64(int(v), table_100k), z) for v in values]
    assert sigma_mod_block(values, z, table_100k.spf).tolist() == expected


def test_sigma_mod_block_validation(table_10k):
    spf = table_10k.spf
    assert sigma_mod_block(np.array([], dtype=np.int64), 6, spf).tolist() == []
    with pytest.raises(ValueError):
        sigma_mod_block(np.array([5]), 1, spf)
    with pytest.raises(ValueError):
        sigma_mod_block(np.array([0, 5]), 6, spf)
    with pytest.raises(ValueError):
        sigma_mod_block(np.array([10_001]), 6, spf)


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


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 12])
def test_sigma_mod_agrees_with_exact(table_100k, m):
    for n in range(2, 2_001):
        f = factor_u64(n, table_100k)
        assert sigma_mod(f, m) == sigma_exact(f) % m


def test_divisor_list(table_100k):
    assert divisor_list(factor_u64(36, table_100k)) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisor_list(Factorization(())) == [1]


def test_pairing_examples(table_100k):
    p35 = divisor_pairing(35, factor_u64(35, table_100k))
    assert p35.pairs == ((1, 35), (5, 7))
    assert p35.pair_sums() == [36, 12]
    assert p35.total() == 48

    p5 = divisor_pairing(5, factor_u64(5, table_100k))
    assert p5.pairs == ((1, 5),)
    assert p5.total() == 6


def test_pairing_rejects_squares_and_mismatches(table_100k):
    with pytest.raises(ValueError):
        divisor_pairing(9, factor_u64(9, table_100k))
    with pytest.raises(ValueError):
        divisor_pairing(1, Factorization(()))
    with pytest.raises(ValueError):
        divisor_pairing(36, factor_u64(35, table_100k))


def test_pair_sums_total_sigma_up_to_1e5(table_6m):
    for n in range(2, 100_001):
        if isqrt(n) ** 2 == n:
            continue
        f = factor_u64(n, table_6m)
        pairing = divisor_pairing(n, f)
        assert pairing.total() == sigma_exact(f)
        # every divisor appears in exactly one pair
        assert len(pairing.pairs) * 2 == len(divisor_list(f))


def test_six_k_minus_one_pair_sums_split_into_proof_halves(table_6m):
    # for n = 6k-1 each pair sum is even and divisible by 3, pairwise
    for k in range(1, 100_001):
        n = 6 * k - 1
        for d, q in divisor_pairing(n, factor_u64(n, table_6m)).pairs:
            s = d + q
            assert s % 2 == 0
            assert s % 3 == 0


def test_sigma_multiplicative_over_coprime_pairs(table_6m):
    small = [0, 1] + [sigma_exact(factor_u64(n, table_6m)) for n in range(2, 1_001)]
    for a in range(2, 1_001):
        sa = small[a]
        for b in range(a + 1, 1_001):
            if gcd(a, b) == 1:
                assert sigma_exact(factor_u64(a * b, table_6m)) == sa * small[b]
