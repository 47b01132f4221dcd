"""Planted defects: each check below must fail with its defect and pass on
the real code, so a later change cannot quietly blunt it.

A defect is one string replace in the source of one function, compiled
into a copy of that function's module namespace and swapped in with
monkeypatch wherever a catsigma module binds the function; src/ is never
edited.  The defects under which a verifier reports `holds` for a range
where the claim fails come first."""

import inspect
import sys
from functools import cache

import numpy as np
import pytest

import oracles
from catsigma import build_prime_table, catalan, catalan_factorization, catalan_v2, claims, divisor, factor_u64, primes

LIMIT = 20_000


def _plant(monkeypatch, module, name, old, new):
    """Swap module.name, wherever a catsigma module binds it, for a copy
    compiled from its source with old, which must occur exactly once,
    replaced by new."""
    real = getattr(module, name)
    source = inspect.getsource(real)
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    # the annotations name np, which the modules import only for type checking
    exec("from __future__ import annotations\n" + source.replace(old, new), namespace)
    for owner in [m for key, m in sys.modules.items() if key.split(".")[0] == "catsigma"]:
        if getattr(owner, name, None) is real:
            monkeypatch.setattr(owner, name, namespace[name])


def theorem1_matches_trial_factoring(n_min, n_max):
    """verify theorem1's witnesses are the n whose C_n, factored by trial
    division of math.comb's value, has no prime factor 5 mod 6."""

    def check():
        expected = [
            n
            for n in range(n_min, n_max + 1)
            if all(q % 6 != 5 for q in oracles.trial_factor(oracles.catalan_by_comb(n)))
        ]
        outcome = claims.verify_theorem_6kminus1(n_min, n_max)
        return [w["n"] for w in outcome.counterexamples] == expected

    check.__name__ = f"theorem1_{n_min}_to_{n_max}_matches_trial_factoring"
    return check


def uncovered_matches_sieve_oracle():
    """The gap list of every window [a, b] with b <= 60 is the oracle's,
    bisected from the sieve's primes 5 mod 6."""
    lacking = oracles.indices_without_5_mod_6_prime(60)
    windows = [(a, b) for b in range(61) for a in range(b + 1)]
    return all(list(claims._uncovered(a, b)) == [n for n in lacking if a <= n <= b] for a, b in windows)


def mersenne_holds_to_20000():
    return claims.verify_mersenne_parity(LIMIT).holds


def erdos_holds_to_300():
    return claims.verify_erdos_interval(300).holds


@cache
def _sigma_oracle():
    return oracles.sigma_by_pair_sieve(LIMIT)[1:]


def sigma_block_matches_pair_sieve():
    values = np.arange(1, LIMIT + 1, dtype=np.int64)
    return (divisor.sigma_block(values, build_prime_table(LIMIT)) == _sigma_oracle()).all()


def sigma_exact_and_mod_match_pair_sieve():
    table = build_prime_table(LIMIT)
    for v, s in zip(range(1, LIMIT + 1), _sigma_oracle().tolist()):
        f = factor_u64(v, table)
        if divisor.sigma_exact(f) != s or divisor.sigma_mod(f, 1_000_003) != s % 1_000_003:
            return False
    return True


def spf_matches_trial_factoring():
    spf = build_prime_table(LIMIT).spf.tolist()
    return all((spf[m >> 1] or m) == min(oracles.trial_factor(m)) for m in range(3, LIMIT + 1, 2))


@cache
def _erdos_pairs_oracle():
    return oracles.erdos_pairs(1500)


def erdos_pairs_match_nested_loop():
    try:
        pairs = [
            pair
            for ns, ps in claims._erdos_pairs(1500, build_prime_table(3000).primes)
            for pair in zip(ns.tolist(), ps.tolist())
        ]
    except ValueError:  # a window whose n and p runs differ in length
        return False
    return pairs == _erdos_pairs_oracle()


def blocks_cover_small_windows():
    for lo in range(-3, 40):
        for hi in range(lo - 2, lo + 70):
            blocks = [b.tolist() for b in claims._blocks(lo, hi)]
            if sum(blocks, []) != list(range(lo, hi + 1)):
                return False
    return True


def catalan_factors_match_comb():
    return _indices_off_comb(build_prime_table(600)) == []


DEFECTS = [
    # a verifier reports holds where the claim fails
    ("chain-start-off-by-two", claims, "_uncovered", "(2 * c + 3) % 6", "(2 * c + 1) % 6",
     theorem1_matches_trial_factoring(4, 5)),
    ("chain-settles-one-past-q-minus-two", claims, "_uncovered", "c = q - 2", "c = q - 1",
     theorem1_matches_trial_factoring(3, 4)),
    ("three-read-as-five", claims, "verify_theorem_6kminus1", "p % 6 == 5", "p % 6 in (3, 5)",
     theorem1_matches_trial_factoring(5, 5)),
    # a verifier lists the wrong witnesses, fails a claim that holds, or a
    # kernel disagrees with its oracle
    ("chain-ends-one-short", claims, "_uncovered", "while c < n_max:", "while c < n_max - 1:",
     uncovered_matches_sieve_oracle),
    ("valuation-loop-never-entered", catalan, "_valuation_block", "while (t >= p).any():", "while False:",
     mersenne_holds_to_20000),
    ("valuation-n-plus-two-mersenne", catalan, "_valuation_block", "(n + 1) // p", "(n + 2) // p",
     mersenne_holds_to_20000),
    ("valuation-n-plus-two-erdos", catalan, "_valuation_block", "(n + 1) // p", "(n + 2) // p",
     erdos_holds_to_300),
    ("valuation-loop-test-t-above-p", catalan, "_valuation_block", "while (t >= p)", "while (t > p)",
     mersenne_holds_to_20000),
    ("sigma-block-power-of-two-term-dropped", divisor, "sigma_block", "closed = 2 * low - 1", "closed = low // low",
     sigma_block_matches_pair_sieve),
    ("sigma-block-again-peel-skipped", divisor, "sigma_block", "if again.size:", "if False:",
     sigma_block_matches_pair_sieve),
    ("sigma-exact-term-cut-to-p-to-the-e", divisor, "sigma_exact", "p ** (e + 1)", "p**e",
     sigma_exact_and_mod_match_pair_sieve),
    ("sigma-mod-term-cut-to-p-to-the-e", divisor, "sigma_mod", "p ** (e + 1)", "p**e",
     sigma_exact_and_mod_match_pair_sieve),
    ("spf-sieve-writes-smallest-prime-first", primes, "_build_spf", ".primes[:0:-1]", ".primes[1:]",
     spf_matches_trial_factoring),
    ("legendre-loop-test-t-above-p", catalan, "_catalan_factors", "while t >= p:", "while t > p:",
     catalan_factors_match_comb),
    # a sweep enumerator drops, adds or misaligns pairs or indices
    ("erdos-window-end-exclusive", claims, "_erdos_pairs", "at[-1] + 1)", "at[-1])",
     erdos_pairs_match_nested_loop),
    ("erdos-primes-to-2n-minus-1", claims, "_erdos_pairs", "2 * ns, side", "2 * ns - 1, side",
     erdos_pairs_match_nested_loop),
    ("erdos-last-window-one-short", claims, "_erdos_pairs", "int(ends[-1]) - 1", "int(ends[-1]) - 2",
     erdos_pairs_match_nested_loop),
    ("blocks-stop-before-hi", claims, "_blocks", "while lo <= hi:", "while lo < hi:",
     blocks_cover_small_windows),
    ("blocks-exclusive-hi", claims, "_blocks", "min(lo + size, hi + 1)", "min(lo + size, hi)",
     blocks_cover_small_windows),
]


@pytest.mark.parametrize("defect", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_check_catches_planted_defect(defect, monkeypatch):
    _, module, name, old, new, check = defect
    assert check(), check.__name__
    with monkeypatch.context() as patch:
        _plant(patch, module, name, old, new)
        assert not check(), check.__name__
    assert check(), check.__name__


def _legendre_n_plus_two(n, primes):
    # defect: (n + 2) // p in place of (n + 1) // p
    factors = []
    for p in primes:
        t = 2 * n // p
        v = t - (n + 2) // p - n // p
        if t >= p:
            m, d = (n + 2) // p, n // p
            while t >= p:
                t, m, d = t // p, m // p, d // p
                v += t - m - d
        if v:
            factors.append((p, v))
    return factors


def _legendre_first_term(n, primes):
    # defect: the sum stops after the k = 1 term
    factors = []
    for p in primes:
        v = 2 * n // p - (n + 1) // p - n // p
        if v:
            factors.append((p, v))
    return factors


def _indices_off_comb(table, n_max=300):
    """The n <= n_max where catalan_factorization or catalan_v2 disagree
    with the math.comb value, or where the factorization is refused."""
    off = []
    for n in range(n_max + 1):
        value = oracles.catalan_by_comb(n)
        try:
            agree = catalan_factorization(n, table).value == value and catalan_v2(n) == oracles.v2(value)
        except ValueError:  # Factorization refuses an exponent below 1
            agree = False
        if not agree:
            off.append(n)
    return off


def test_whole_range_check_catches_planted_legendre_defects(table_10k, monkeypatch):
    # the per-prime Legendre loop behind catalan_factorization and
    # catalan_v2, checked against math.comb over a whole range: the real
    # loop passes it, and a copy with either defect fails it
    assert _indices_off_comb(table_10k) == []
    for defect in (_legendre_n_plus_two, _legendre_first_term):
        with monkeypatch.context() as patch:
            patch.setattr(catalan, "_catalan_factors", defect)
            assert _indices_off_comb(table_10k) != [], defect.__name__
