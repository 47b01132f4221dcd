from math import log

import pytest

from catsigma import TWIN_PRIME_CONSTANT, omega_record, omega_table


def test_twin_prime_constant_value():
    assert TWIN_PRIME_CONSTANT == 0.66016


def test_record_n7(table_10k):
    r = omega_record(7, table_10k)
    assert (r.omega, r.omega_6kminus1, r.twin_pairs) == (3, 1, 1)  # {3, 11, 13}


def test_record_n6(table_10k):
    r = omega_record(6, table_10k)
    assert (r.omega, r.omega_6kminus1, r.twin_pairs) == (3, 1, 0)  # {2, 3, 11}


def test_record_n2(table_10k):
    r = omega_record(2, table_10k)
    assert (r.omega, r.omega_6kminus1, r.twin_pairs) == (1, 0, 0)


def test_record_validation(table_10k):
    with pytest.raises(ValueError):
        omega_record(1, table_10k)


def test_record_predictions_follow_formulas(table_10k):
    for n in (10, 100, 1000):
        r = omega_record(n, table_10k)
        ln = log(n)
        assert r.pred_omega == pytest.approx(2 * n / ln, rel=1e-12)
        assert r.pred_omega_corrected == pytest.approx(
            2 * n / ln - 2 * n * log(2) / ln**2, rel=1e-12
        )
        assert r.pred_6kminus1 == pytest.approx(n / ln, rel=1e-12)
        assert r.pred_twins == pytest.approx(0.66016 * n / ln**2, rel=1e-12)


def test_record_lower_bounds(table_10k):
    for n in (10, 50, 100, 500, 1000, 2000):
        r = omega_record(n, table_10k)
        interval_primes = table_10k.pi(2 * n) - table_10k.pi(n + 1)
        assert r.omega >= interval_primes
        assert r.omega_6kminus1 >= 1
        assert r.omega_6kminus1 <= r.omega
        assert r.twin_pairs <= r.omega


def test_table_preserves_input_order(table_10k):
    assert omega_table([], table_10k) == []
    records = omega_table([7, 2, 100], table_10k)
    assert [r.n for r in records] == [7, 2, 100]
    assert records[0].omega == 3
