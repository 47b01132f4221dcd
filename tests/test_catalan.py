from math import exp, lgamma, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from catsigma import (
    CATALAN_EXACT_CEILING,
    CapacityError,
    asymptotic_log,
    build_prime_table,
    catalan_exact,
    catalan_factorization,
    catalan_v2,
    catalan_valuation,
    convolution_check,
    digit_count,
    product_form,
    stirling_log_estimate,
)
from catsigma.catalan import _valuation_block

KNOWN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_known_prefix():
    assert [catalan_exact(n) for n in range(10)] == KNOWN_PREFIX


def test_exact_bounds():
    with pytest.raises(ValueError):
        catalan_exact(-1)
    with pytest.raises(CapacityError):
        catalan_exact(CATALAN_EXACT_CEILING + 1)


def test_factorization_examples(table_10k):
    assert catalan_factorization(7, table_10k).entries == ((3, 1), (11, 1), (13, 1))
    assert catalan_factorization(2, table_10k).entries == ((2, 1),)
    assert catalan_factorization(6, table_10k).entries == ((2, 2), (3, 1), (11, 1))
    assert catalan_factorization(0, table_10k).entries == ()
    assert catalan_factorization(1, table_10k).entries == ()


def test_factorization_requires_coverage():
    small = build_prime_table(10)
    with pytest.raises(ValueError):
        catalan_factorization(6, small)
    with pytest.raises(ValueError):
        catalan_factorization(-1, small)


def test_factorization_reconstructs_value(table_10k):
    for n in range(51):
        assert catalan_factorization(n, table_10k).value == oracles.catalan_by_comb(n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 3_000))
@example(n=0)
@example(n=1)
@example(n=1023)
@example(n=10**5)
def test_exact_matches_binomial_route(n):
    assert catalan_exact(n) == oracles.catalan_by_comb(n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 3_000))
@example(n=6)
@example(n=7)
@example(n=100)
@example(n=500)
def test_valuation_matches_factorization(table_10k, n):
    # the three-Legendre-sum route against the production factorization,
    # over every prime up to 2n
    factors = catalan_factorization(n, table_10k)
    exponents = dict(factors.entries)
    positive = []
    for p in table_10k.primes[: table_10k.pi(2 * n)].tolist():
        v = catalan_valuation(n, p)
        assert v == exponents.get(p, 0)
        if v:
            positive.append(p)
    assert factors.prime_factors() == tuple(positive)
    with pytest.raises(ValueError):
        catalan_valuation(5, 4)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 10**5), st.integers(0, 17_983)),  # pi(200000) = 17984
        min_size=1,
        max_size=50,
    )
)
@example(pairs=[(0, 0), (1, 0), (3, 2), (4, 3), (2**15 - 1, 0), (10**5, 17_983)])
def test_valuation_block_matches_catalan_valuation(table_200k, pairs):
    ns = np.array([n for n, _ in pairs], dtype=np.int64)
    ps = np.array([table_200k.primes[i] for _, i in pairs], dtype=np.int64)
    got = _valuation_block(ns, ps)
    assert got.tolist() == [catalan_valuation(n, p) for n, p in zip(ns.tolist(), ps.tolist())]
    assert _valuation_block(ns, 2).tolist() == [catalan_valuation(n, 2) for n in ns.tolist()]


def test_valuation_block_rejects_p_below_two():
    # p = 1 never shrinks the quotients, so the loop would not end
    ns = np.array([10, 20], dtype=np.int64)
    for ps in (1, 0, -3, np.array([3, 1]), np.array([0, 5])):
        with pytest.raises(ValueError):
            _valuation_block(ns, ps)


@pytest.mark.parametrize("n,expected", [(3, 0), (4, 1), (6, 2), (0, 0)])
def test_v2_examples(n, expected):
    assert catalan_v2(n) == expected


def test_v2_routes_agree_up_to_20k():
    for n in range(20_001):
        v = catalan_v2(n)
        assert v == (n + 1).bit_count() - 1
        assert v == catalan_valuation(n, 2)
        assert (v == 0) == ((n + 1) & n == 0)  # odd iff n+1 a power of two


def test_v2_int64_edge():
    # Python ints do not wrap, so 2n past int64 changes nothing
    for n in (2**62 - 2, 2**62 - 1, 2**62, 2**64):
        assert catalan_v2(n) == (n + 1).bit_count() - 1
    assert catalan_v2(2**62 - 1) == 0
    assert catalan_v2(2**62 - 2) == 61
    assert catalan_v2(2**64) == 1


def test_v2_matches_two_adic_split_of_value(table_10k):
    for n in range(201):
        assert catalan_v2(n) == oracles.v2(oracles.catalan_by_comb(n))


@pytest.mark.parametrize(
    "k,parity,expected_index",
    [(1, "even", 2), (3, "odd", 5), (3, "even", 6), (1, "odd", 1), (2, "odd", 3)],
)
def test_product_form_examples(k, parity, expected_index):
    assert product_form(k, parity) == catalan_exact(expected_index)


def test_product_form_sweep():
    for k in range(1, 61):
        assert product_form(k, "even") == catalan_exact(2 * k)
        assert product_form(k, "odd") == catalan_exact(2 * k - 1)


def test_product_form_validation():
    with pytest.raises(ValueError):
        product_form(0, "even")
    with pytest.raises(ValueError):
        product_form(3, "both")


def test_convolution_check():
    assert convolution_check(1)
    assert convolution_check(5)
    assert convolution_check(100)
    with pytest.raises(ValueError):
        convolution_check(0)


@pytest.mark.parametrize("n,expected", [(0, 1), (7, 3), (1023, 612)])
def test_digit_count_examples(n, expected):
    assert digit_count(n) == expected


def test_digit_count_matches_chunked_oracle():
    # every n <= 2000, across many powers of ten; the value comes from the
    # recurrence C(n+1) = C(n) * 2(2n+1) / (n+2), not from catalan_exact
    c = 1
    for n in range(2_001):
        assert digit_count(n) == oracles.decimal_digits(c)
        c = c * 2 * (2 * n + 1) // (n + 2)


@pytest.mark.parametrize(
    "n,digits",
    [
        (64775590242875, 38998791299869),
        (587576775742018, 353756468507730),
        (822464890808878, 495173205027925),
    ],
)
def test_digit_count_is_never_wrong_past_the_ceiling(n, digits):
    # true counts from log-gamma at 80 significant digits; log10 C_n lies
    # above an integer by less than its float rounding here, so the
    # estimate may refuse but must not return a count one short
    try:
        assert digit_count(n) == digits
    except CapacityError:
        pass


def _envelope_ratio(n, ln_c):
    # |ln C_n - asymptotic_log(n)| as a share of the error envelope that
    # digit_count's margin is built on
    return abs(ln_c - asymptotic_log(n)) / (9 / (8 * n) + 0.005)


def test_digit_count_envelope_holds_over_whole_ranges():
    # exact ln C_n (C_n from the recurrence) for every n <= 20000, then
    # log-gamma on a stride up to 10**6; the peak is 0.917, at n = 10
    c, worst = 1, 0.0
    for n in range(1, 20_001):
        c = c * 2 * (2 * n - 1) // (n + 1)
        worst = max(worst, _envelope_ratio(n, log(c)))
    assert 0.9 < worst < 1
    for n in range(20_001, 10**6 + 1, 7):
        ln_c = lgamma(2 * n + 1) - 2 * lgamma(n + 1) - log(n + 1)
        assert _envelope_ratio(n, ln_c) < 1, n


def test_digit_count_ties_match_the_oracle(monkeypatch):
    # every index n <= 20000 whose envelope holds an integer forms C_n to
    # break the tie; each such count must match the chunked oracle on the
    # value from the recurrence
    import catsigma.catalan as catalan_module

    ties = []

    def recording(n):
        ties.append(n)
        return catalan_exact(n)

    monkeypatch.setattr(catalan_module, "catalan_exact", recording)
    c = 1
    for n in range(20_001):
        digits = digit_count(n)
        if ties and ties[-1] == n:
            assert digits == oracles.decimal_digits(c), n
        c = c * 2 * (2 * n + 1) // (n + 2)
    assert len(ties) > 50


@pytest.mark.parametrize("n,expected", [(1023, 612), (100_000, 60199), (150_000, 90301), (10**6, 602_051)])
def test_digit_count_away_from_a_tie_builds_no_table(monkeypatch, n, expected):
    import catsigma.catalan as catalan_module

    monkeypatch.setattr(catalan_module, "build_prime_table", lambda limit: pytest.fail(f"built a table to {limit}"))
    assert digit_count(n) == expected


def test_digit_count_estimate_route(monkeypatch):
    # drop the exact ceiling to where the true count is still easy to
    # compute directly: every count there comes from the estimate, and
    # indices whose envelope holds an integer are refused, as past the
    # real ceiling
    import catsigma.catalan as catalan_module

    monkeypatch.setattr(catalan_module, "CATALAN_EXACT_CEILING", 500)
    resolved = 0
    for n in range(501, 601):
        exact = oracles.catalan_by_comb(n)
        try:
            estimated = catalan_module.digit_count(n)
        except CapacityError:
            continue
        assert estimated == len(str(exact))
        resolved += 1
    assert resolved >= 50


def test_digit_count_rejects_negative():
    with pytest.raises(ValueError):
        digit_count(-1)


def test_stirling_frozen_values():
    assert stirling_log_estimate(1) == pytest.approx(-0.65342640972002735, rel=1e-12)
    assert stirling_log_estimate(5) == pytest.approx(30.094287507236363, rel=1e-12)
    assert stirling_log_estimate(10) == pytest.approx(2685.4879439230277, rel=1e-12)


def test_stirling_bounds():
    with pytest.raises(ValueError):
        stirling_log_estimate(0)
    with pytest.raises(CapacityError):
        stirling_log_estimate(1024)  # overflows a float
    with pytest.raises(CapacityError):
        stirling_log_estimate(5000)


def test_asymptotic_frozen_values():
    assert asymptotic_log(1) == pytest.approx(0.81392941819519053, rel=1e-12)
    assert asymptotic_log(100) == pytest.approx(131.14931589008222, rel=1e-12)
    assert asymptotic_log(1023) == pytest.approx(1407.211024333796, rel=1e-12)
    assert asymptotic_log(100, "coarse") == pytest.approx(131.13936555922906, rel=1e-12)
    assert asymptotic_log(1, "coarse") == pytest.approx(0.12078223763524522, rel=1e-12)


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_log(0)
    with pytest.raises(ValueError):
        asymptotic_log(10, "sharp")
    for mode in ("refined", "coarse"):
        with pytest.raises(CapacityError):
            asymptotic_log(10**400, mode)  # no float holds the index
        with pytest.raises(CapacityError):
            asymptotic_log(15 * 10**307, mode)  # n * ln 4 overflows


def test_asymptotic_ratio_shrinks():
    previous = None
    for n in range(50, 501):
        deviation = abs(exp(asymptotic_log(n) - log(catalan_exact(n))) - 1)
        assert deviation <= 9 / (8 * n) + 0.005
        if previous is not None:
            assert deviation <= previous
        previous = deviation


def test_interval_primes_have_exponent_one(table_10k):
    for n in range(1, 301):
        exponents = dict(catalan_factorization(n, table_10k).entries)
        for p in table_10k.primes[table_10k.pi(n + 1) : table_10k.pi(2 * n)].tolist():
            assert exponents[p] == 1
