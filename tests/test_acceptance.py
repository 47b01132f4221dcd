"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  These run at full scale, so this
module carries most of the suite's runtime.
"""

import json
from math import exp, log
from time import perf_counter

import pytest

import oracles
from catsigma import (
    FAMILY_MODULI,
    SMALL_INDEX_EXCEPTIONS,
    asymptotic_log,
    catalan_exact,
    catalan_factorization,
    convolution_check,
    coprimality_graph,
    digit_count,
    product_form,
    sigma_exact,
    sigma_mod,
    verify_erdos_interval,
    verify_family,
    verify_mersenne_parity,
    verify_sigma_catalan,
    verify_theorem_6kminus1,
)
from catsigma.cli import run


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def run_cli_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_lemma_six_full_sweep(capsys):
    started = perf_counter()
    code, envelope = run_cli_json(capsys, "verify", "lemma-six", "--k-max", "1000000")
    elapsed = perf_counter() - started
    outcome = envelope["outcome"]
    ok = (
        code == 0
        and outcome["holds"] is True
        and outcome["counterexamples"] == []
        and elapsed < 60.0
    )
    report(1, "6 | sigma(6k-1) for k <= 10^6", ok, f"{elapsed:.1f}s")


def test_criterion_02_family_sweeps():
    failures = []
    for z in FAMILY_MODULI:
        outcome = verify_family(z, 10**5)
        if not outcome.holds or outcome.counterexamples:
            failures.append(z)
    report(2, "z | sigma(z*k-1) for k <= 10^5, z in {3,4,6,8,12,24}", not failures, str(failures))


def test_criterion_03_conjecture_search(capsys):
    code, envelope = run_cli_json(
        capsys, "verify", "conjecture", "--b-max", "100", "--k-max", "10000"
    )
    outcome = envelope["outcome"]
    ok = code == 0 and outcome["survivors"] == [3, 4, 6, 8, 12, 24]
    detail = f"survivors={outcome['survivors']}"
    eliminated = outcome["eliminated"]
    ok = ok and len(eliminated) == 99 - 6
    for witness in eliminated:
        b, k = witness["b"], witness["witness_k"]
        if k > 100:
            ok, detail = False, f"witness for b={b} is {k} > 100"
            break
        n = b * k - 1
        sigma = 1 if n == 1 else oracles.sigma_by_scan(n)
        if sigma % b == 0:
            ok, detail = False, f"witness for b={b} does not re-verify"
            break
    report(3, "survivors of b | sigma(b*k-1) for b <= 100 are exactly {3,4,6,8,12,24}", ok, detail)


def test_criterion_04_six_k_minus_one_factor():
    swept = verify_theorem_6kminus1(6, 5000)
    low = verify_theorem_6kminus1(0, 5)
    exceptions = {w["n"] for w in low.counterexamples}
    ok = swept.holds and exceptions == set(SMALL_INDEX_EXCEPTIONS)
    report(4, "catalan(n) has a 6k-1 prime factor for 6 <= n <= 5000; exceptions below 6 are {0,1,2,4,5}", ok)


def test_criterion_05_sigma_catalan_divisible_by_six(table_6m):
    swept = verify_sigma_catalan(6, 2000)
    ok = swept.holds
    detail = ""
    for n in range(201):
        factors = catalan_factorization(n, table_6m)
        if sigma_mod(factors, 6) != sigma_exact(factors) % 6:
            ok, detail = False, f"modular/exact mismatch at n={n}"
            break
    report(5, "6 | sigma(catalan(n)) for 6 <= n <= 2000; modular route matches exact for n <= 200", ok, detail)


def test_criterion_06_parity_criterion():
    outcome = verify_mersenne_parity(10**5)
    report(6, "catalan(n) odd iff n+1 a power of two, Legendre and digit-sum v2 agree, n <= 10^5", outcome.holds)


def test_criterion_07_interval_primes():
    outcome = verify_erdos_interval(2000)
    report(7, "every prime in (n+1, 2n] divides catalan(n) exactly once, n <= 2000", outcome.holds)


def test_criterion_08_digit_claim(capsys):
    exact_digits = oracles.decimal_digits(catalan_exact(1023))
    code, envelope = run_cli_json(capsys, "digits", "1023")
    ok = (
        digit_count(1023) == 612
        and exact_digits == 612
        and code == 0
        and envelope["outcome"]["digits"] == 612
    )
    report(8, "catalan(1023) has exactly 612 decimal digits", ok)


def test_criterion_09_coprimality_graph():
    edges = coprimality_graph([3, 4, 6, 8, 12, 24], search_bound=1000)
    always = [e for e in edges if e.shared_divisor is None]
    shared = {(e.a, e.b): (e.shared_divisor, e.witness_k) for e in edges if e.shared_divisor}
    ok = len(always) == 12 and shared == {(3, 8): (5, 2), (3, 24): (7, 5), (4, 24): (5, 4)}
    report(9, "six coefficients give 12 always-coprime pairs and 3 shared-divisor pairs", ok, str(shared))


def test_criterion_10_factorization_oracle_equivalence(table_6m):
    ok, detail = True, ""
    for n in range(301):
        value = oracles.catalan_by_comb(n)
        factors = catalan_factorization(n, table_6m)
        if factors.value != value:
            ok, detail = False, f"product mismatch at n={n}"
            break
        by_trial, leftover = oracles.factor_by_prime_list(value, table_6m.primes_between(1, 2 * n))
        if leftover != 1 or by_trial != dict(factors.entries):
            ok, detail = False, f"trial-division mismatch at n={n}"
            break
    report(10, "valuation-based factorization reconstructs catalan(n) and matches trial division, n <= 300", ok, detail)


def test_criterion_11_product_forms_and_convolution():
    ok, detail = True, ""
    for k in range(1, 501):
        if product_form(k, "even") != catalan_exact(2 * k) or product_form(k, "odd") != catalan_exact(2 * k - 1):
            ok, detail = False, f"product form mismatch at k={k}"
            break
    ok = ok and convolution_check(100)
    report(11, "product forms match catalan for k <= 500; convolution reproduces the sequence to 100", ok, detail)


def test_criterion_12_asymptotic_ratio():
    ok, detail = True, ""
    previous = None
    for n in (50, 100, 200, 500):
        deviation = abs(exp(asymptotic_log(n) - log(catalan_exact(n))) - 1)
        bound = 9 / (8 * n) + 0.005
        if deviation > bound:
            ok, detail = False, f"deviation {deviation:.5f} exceeds {bound:.5f} at n={n}"
            break
        if previous is not None and deviation > previous:
            ok, detail = False, f"deviation grew at n={n}"
            break
        previous = deviation
    report(12, "asymptotic ratio within 9/(8n) + 0.005 and shrinking over n in {50,100,200,500}", ok, detail)


def test_criterion_13_omega_table(capsys, table_6m):
    code, envelope = run_cli_json(capsys, "omega", "--range", "100:2000:100")
    records = envelope["outcome"]
    ok = code == 0 and len(records) == 20
    detail = f"{len(records)} records"
    for r in records:
        n = r["n"]
        ln = log(n)
        interval = table_6m.pi(2 * n) - table_6m.pi(n + 1)
        preds_ok = (
            r["pred_omega"] == pytest.approx(2 * n / ln, rel=1e-9)
            and r["pred_6kminus1"] == pytest.approx(n / ln, rel=1e-9)
            and r["pred_twins"] == pytest.approx(0.66016 * n / ln**2, rel=1e-9)
        )
        if not (r["omega"] >= interval and r["omega_6kminus1"] >= 1 and preds_ok):
            ok, detail = False, f"record n={n} violates bounds"
            break
    report(13, "omega table emits 20 records with lower bounds and finite predictions", ok, detail)
