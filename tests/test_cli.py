import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catsigma
import oracles
from catsigma import (
    CATALAN_EXACT_CEILING,
    __version__,
    build_prime_table,
    catalan_factorization,
    claims,
    primes,
    sigma_exact,
)
from catsigma.cli import _build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


def test_digits_subcommand(capsys):
    code, report, _ = invoke_json(capsys, "digits", "1023")
    assert code == 0
    assert report["command"] == "digits"
    assert report["outcome"] == {"n": 1023, "digits": 612}
    assert report["tool_version"] == __version__
    assert report["elapsed_ms"] == 0


def test_factor_catalan(capsys):
    code, report, _ = invoke_json(capsys, "factor-catalan", "7")
    assert code == 0
    assert report["outcome"]["factors"] == [[3, 1], [11, 1], [13, 1]]


def test_factor_catalan_index_zero(capsys):
    code, report, _ = invoke_json(capsys, "factor-catalan", "0")
    assert code == 0
    assert report["outcome"]["factors"] == []


def test_sigma_catalan_exact_and_mod(capsys):
    code, report, _ = invoke_json(capsys, "sigma-catalan", "7")
    assert code == 0
    assert report["outcome"]["sigma"] == 672
    code, report, _ = invoke_json(capsys, "sigma-catalan", "7", "--mod", "6")
    assert code == 0
    assert report["outcome"]["remainder"] == 0
    # the exact ceiling leaves the modular mode alone
    code, report, _ = invoke_json(capsys, "sigma-catalan", str(CATALAN_EXACT_CEILING + 1), "--mod", "6")
    assert code == 0
    assert report["outcome"]["remainder"] == 0


def test_sigma_catalan_exact_past_int_str_limit(capsys):
    # sigma(catalan(20000)) has more digits than the default int-to-str limit
    default = sys.get_int_max_str_digits()
    code, out, _ = invoke(capsys, "sigma-catalan", "20000")
    assert code == 0
    assert sys.get_int_max_str_digits() == default  # restored after the report
    expected = sigma_exact(catalan_factorization(20000, build_prime_table(40_000)))
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(expected)) > default
        assert json.loads(out)["outcome"]["sigma"] == expected
    finally:
        sys.set_int_max_str_digits(default)


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(catsigma.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "catsigma", "digits", "9"],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, err = invoke(capsys, "digits", "9")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_verify_lemma_six_holds(capsys):
    code, report, _ = invoke_json(capsys, "verify", "lemma-six", "--k-max", "1000")
    assert code == 0
    outcome = report["outcome"]
    assert outcome["claim_id"] == "lemma-six"
    assert outcome["holds"] is True
    assert outcome["counterexamples"] == []
    assert outcome["range"] == [1, 1000]


def test_verify_family_counterexample_exit_code(capsys):
    code, report, _ = invoke_json(capsys, "verify", "family", "--z", "5", "--k-max", "10")
    assert code == 1
    outcome = report["outcome"]
    assert outcome["holds"] is False
    assert outcome["counterexamples"][0] == {"k": 1, "value": 4, "sigma": 7, "remainder": 2}


def test_verify_family_witnesses_serialize(capsys):
    code, report, _ = invoke_json(capsys, "verify", "family", "--z", "5", "--k-max", "20000")
    assert code == 1
    witnesses = report["outcome"]["counterexamples"]
    assert len(witnesses) == 10
    for w in witnesses:
        assert w["sigma"] == oracles.sigma_by_scan(w["value"])
        assert w["sigma"] % 5 == w["remainder"] != 0


def test_spf_capacity_checked_before_sieving(capsys, monkeypatch):
    def refuse(limit):
        pytest.fail(f"sieved to {limit} before the capacity check")

    # every table build refuses before allocating its spf array
    monkeypatch.setattr(primes, "_build_spf", refuse)
    for argv, message in (
        (("verify", "lemma-six", "--k-max", str(10**9)), "spf table limited"),
        (("verify", "family", "--z", "5", "--k-max", str(10**9)), "spf table limited"),
        (("verify", "conjecture", "--b-max", "100", "--k-max", str(10**8)), "spf table limited"),
        (("verify", "theorem1", "--n-min", "0", "--n-max", "2147483648"), "spf table limited"),
        (("factor-catalan", "2147483648"), "spf table limited"),
        (("sigma-catalan", str(CATALAN_EXACT_CEILING + 1)), "exact sigma capped"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err


def test_memory_checked_before_sieving(capsys, monkeypatch):
    def refuse(limit):
        pytest.fail(f"sieved to {limit} past the memory budget")

    monkeypatch.setattr(primes, "_physical_memory", lambda: 64 * 2**20)
    assert invoke(capsys, "factor-catalan", "7")[0] == 0  # a small table still fits
    monkeypatch.setattr(primes, "_build_spf", refuse)
    for argv in (
        ("factor-catalan", "10000000"),
        ("sigma-catalan", "10000000", "--mod", "6"),
        ("verify", "lemma-six", "--k-max", "2000000"),
        ("verify", "theorem1", "--n-min", "0", "--n-max", "10000000"),
        ("omega", "--range", "2:10000000:1000000"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "physical memory" in err


VERIFIERS = {
    "lemma-six": claims.verify_lemma_six,
    "family": claims.verify_family,
    "conjecture": claims.search_conjecture,
    "theorem1": claims.verify_theorem_6kminus1,
    "sigma-catalan": claims.verify_sigma_catalan,
    "erdos": claims.verify_erdos_interval,
    "mersenne": claims.verify_mersenne_parity,
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_verify_options_are_the_verifier_parameters():
    # the verify dispatch passes a claim's options as the verifier's keyword
    # arguments; a mismatch would end in a TypeError traceback and exit 1
    claim_parsers = _subparsers(_subparsers(_build_parser())["verify"])
    assert set(claim_parsers) == set(VERIFIERS)
    for claim, parser in claim_parsers.items():
        dests = [a.dest for a in parser._actions if a.dest != "help"]
        assert dests == list(inspect.signature(VERIFIERS[claim]).parameters), claim


def test_verify_conjecture(capsys):
    code, report, _ = invoke_json(capsys, "verify", "conjecture", "--b-max", "30", "--k-max", "100")
    assert code == 0
    outcome = report["outcome"]
    assert outcome["survivors"] == [3, 4, 6, 8, 12, 24]
    assert outcome["unexpected_survivors"] == []
    assert {w["b"] for w in outcome["eliminated"]} == set(range(2, 31)) - {3, 4, 6, 8, 12, 24}


def test_verify_range_claims(capsys):
    code, report, _ = invoke_json(capsys, "verify", "theorem1", "--n-min", "6", "--n-max", "50")
    assert code == 0 and report["outcome"]["holds"]
    code, report, _ = invoke_json(capsys, "verify", "sigma-catalan", "--n-min", "6", "--n-max", "50")
    assert code == 0 and report["outcome"]["holds"]
    code, report, _ = invoke_json(capsys, "verify", "erdos", "--n-max", "50")
    assert code == 0 and report["outcome"]["holds"]
    code, report, _ = invoke_json(capsys, "verify", "mersenne", "--n-max", "100")
    assert code == 0 and report["outcome"]["holds"]


def test_coprime_graph(capsys):
    code, report, _ = invoke_json(
        capsys, "coprime-graph", "--coeffs", "3,4,6,8,12,24", "--search-bound", "1000"
    )
    assert code == 0
    outcome = report["outcome"]
    assert outcome["always_coprime"] == 12
    assert outcome["shared_divisor"] == 3
    assert len(outcome["edges"]) == 15


OMEGA_FIELDS = [
    "n",
    "omega",
    "omega_6kminus1",
    "twin_pairs",
    "pred_omega",
    "pred_omega_corrected",
    "pred_6kminus1",
    "pred_twins",
    "ratio_omega",
]


def test_omega_json_and_csv(capsys):
    code, report, _ = invoke_json(capsys, "omega", "--range", "100:400:100")
    assert code == 0
    records = report["outcome"]
    assert [r["n"] for r in records] == [100, 200, 300, 400]
    assert all(r["ratio_omega"] > 0 for r in records)
    assert all(list(r) == OMEGA_FIELDS for r in records)

    code, out, _ = invoke(capsys, "omega", "--range", "100:400:100", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == ",".join(OMEGA_FIELDS)
    assert all(len(line.split(",")) == 9 for line in lines)


def test_estimate_kinds(capsys):
    code, report, _ = invoke_json(capsys, "estimate", "--kind", "stirling", "--n", "5")
    assert code == 0
    assert report["outcome"]["log_value"] == pytest.approx(30.0942875072, rel=1e-9)
    code, report, _ = invoke_json(capsys, "estimate", "--kind", "asymptotic", "--n", "100")
    assert code == 0
    assert report["outcome"]["log_refined"] == pytest.approx(131.149315890, rel=1e-9)
    assert report["outcome"]["log_coarse"] == pytest.approx(131.139365559, rel=1e-9)


def test_usage_errors_exit_two(capsys):
    code, _, _ = invoke(capsys, "bogus")
    assert code == 2
    code, _, _ = invoke(capsys, "omega", "--range", "100:400")
    assert code == 2
    code, _, err = invoke(capsys, "digits", "--", "-5")
    assert code == 2
    assert "nonnegative" in err
    code, _, _ = invoke(capsys, "verify", "family", "--z", "1", "--k-max", "5")
    assert code == 2
    code, _, _ = invoke(capsys, "estimate", "--kind", "stirling", "--n", "5000")
    assert code == 2  # capacity error
    for coeffs in ("", ",", "3,x"):
        code, out, _ = invoke(capsys, "coprime-graph", "--coeffs", coeffs)
        assert (code, out) == (2, "")
    huge = str(10**400)  # past the float range
    for argv in (("digits", huge), ("estimate", "--kind", "asymptotic", "--n", huge)):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "float range" in err


def test_reports_are_byte_stable(capsys):
    _, first, _ = invoke(capsys, "verify", "lemma-six", "--k-max", "500")
    _, second, _ = invoke(capsys, "verify", "lemma-six", "--k-max", "500")
    assert first == second


def test_timing_flag_populates_elapsed(capsys):
    code, report, _ = invoke_json(capsys, "--timing", "verify", "mersenne", "--n-max", "20000")
    assert code == 0
    assert report["outcome"]["elapsed_ms"] >= 0
    assert report["elapsed_ms"] >= 1


def test_stdout_carries_exactly_one_document(capsys):
    _, out, _ = invoke(capsys, "digits", "9")
    json.loads(out)  # a single well-formed document
    assert out.endswith("\n")
