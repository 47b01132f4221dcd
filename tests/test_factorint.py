from math import factorial

import pytest

import oracles
from catsigma import Factorization, build_prime_table, factor_u64, legendre_valuation


@pytest.mark.parametrize("n,p,expected", [(10, 2, 8), (8, 2, 7), (0, 5, 0), (1, 7, 0)])
def test_legendre_examples(n, p, expected):
    assert legendre_valuation(n, p) == expected


def test_legendre_rejects_composite_p():
    with pytest.raises(ValueError):
        legendre_valuation(10, 4)
    with pytest.raises(ValueError):
        legendre_valuation(5, 1)


def test_legendre_rejects_negative_n():
    with pytest.raises(ValueError):
        legendre_valuation(-1, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_legendre_matches_running_factorial_valuation(p):
    # v_p(n!) = v_p((n-1)!) + v_p(n), accumulated by direct division
    running = 0
    for n in range(1, 10_001):
        m = n
        while m % p == 0:
            running += 1
            m //= p
        assert legendre_valuation(n, p) == running


@pytest.mark.parametrize("n,p", [(10, 2), (50, 3), (100, 5), (200, 7)])
def test_legendre_matches_big_factorial_division(n, p):
    f = factorial(n)
    e = 0
    while f % p == 0:
        f //= p
        e += 1
    assert legendre_valuation(n, p) == e


def test_legendre_near_word_size():
    n = 2**62
    assert legendre_valuation(n, 2) == n - 1  # power of two: v2(n!) = n - s2(n)


def test_v2_equals_n_minus_digit_sum():
    for n in range(100_001):
        assert legendre_valuation(n, 2) == n - n.bit_count()


@pytest.mark.parametrize(
    "n,expected",
    [
        (35, ((5, 1), (7, 1))),
        (125, ((5, 3),)),
        (429, ((3, 1), (11, 1), (13, 1))),
        (2, ((2, 1),)),
    ],
)
def test_factor_examples(table_10k, n, expected):
    assert factor_u64(n, table_10k).entries == expected


def test_factor_rejects_out_of_range(table_10k):
    # the domain is [1, table.limit], 1 with no factors; no route factors
    # past the table
    for n in (0, 10_001, 2**64):
        with pytest.raises(ValueError):
            factor_u64(n, table_10k)
    assert factor_u64(1, table_10k).entries == ()
    assert factor_u64(10_000, table_10k).value == 10_000


def test_factor_even_numbers_and_the_limit():
    # the power of two comes off before the odd-only table is read; the
    # limit itself is in the domain, whether even, odd or prime
    table = build_prime_table(10_007)  # prime
    assert factor_u64(2**13, table).entries == ((2, 13),)
    assert factor_u64(2, table).entries == ((2, 1),)
    assert factor_u64(10_000, table).entries == ((2, 4), (5, 4))
    assert factor_u64(2 * 3**2 * 7 * 79, table).entries == ((2, 1), (3, 2), (7, 1), (79, 1))
    assert factor_u64(10_007, table).entries == ((10_007, 1),)
    with pytest.raises(ValueError):
        factor_u64(10_008, table)
    table = build_prime_table(10_006)  # even, 2 * 5003
    assert factor_u64(10_006, table).entries == ((2, 1), (5003, 1))
    with pytest.raises(ValueError):
        factor_u64(10_007, table)


def test_factor_spf_path_exhaustive(table_100k):
    # the prime list itself is validated against trial division in test_primes
    pset = set(table_100k.primes)
    for n in range(2, 100_001):
        f = factor_u64(n, table_100k)
        assert f.value == n
        assert all(p in pset for p, _ in f)
        # Python ints, not the table's uint16, so powers cannot wrap
        assert all(type(p) is int and type(e) is int for p, e in f)


def test_factor_spf_path_matches_trial_division(table_100k):
    for n in range(2, 3_000):
        assert dict(factor_u64(n, table_100k).entries) == oracles.trial_factor(n)


def test_factorizations_are_equal_and_hash_by_entries():
    f, g = Factorization(((2, 2), (3, 1))), Factorization(((2, 2), (3, 1)))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != Factorization(((2, 2),))
    assert f != ((2, 2), (3, 1))
    assert repr(f) == "Factorization(entries=((2, 2), (3, 1)))"
    with pytest.raises(ValueError):
        Factorization(((2, 1), (2, 1)))  # a repeated prime


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(((5, 1), (3, 1)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(((3, 0),))  # exponent < 1
    f = Factorization(((2, 2), (3, 1)))
    assert f.value == 12
    assert f.prime_factors() == (2, 3)
    assert len(f) == 2

