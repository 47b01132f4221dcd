import argparse
import hashlib
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
    catalan,
    catalan_factorization,
    claims,
    cli,
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


def _cli_env():
    return dict(os.environ, PYTHONPATH=str(Path(catsigma.__file__).parent.parent))


def test_python_dash_m_runs_the_cli(capsys):
    proc = subprocess.run([sys.executable, "-m", "catsigma", "digits", "9"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    code, out, err = invoke(capsys, "digits", "9")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader is gone before the report is written; exit 1 would claim a
    # counterexample, so the CLI reports the closed stdout and exits 2
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "catsigma", "verify", "lemma-six", "--k-max", "100"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("catsigma: ") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_exits_2_without_a_traceback():
    # every write to /dev/full fails with ENOSPC; exit 1 would claim a
    # counterexample, so the CLI names the error and exits 2
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "catsigma", "factor-catalan", "7"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("catsigma: the report could not be written to stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("step", ["catalan_factorization", "_dumps"])
def test_exhausted_memory_exits_2_with_one_line(capsys, monkeypatch, step):
    # from the computation through the serialization of the report
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, step, exhausted)
    assert invoke(capsys, "factor-catalan", "7") == (2, "", "catsigma: out of memory\n")


def test_address_space_limit_refuses_a_table_in_a_limited_process():
    # the child lowers its own soft RLIMIT_AS to 120000 KiB (ulimit -v 120000);
    # a table to 2 * 10**8 needs about 291 MiB by the estimate
    resource = pytest.importorskip("resource")

    def lower_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 120_000 * 1024 if hard == resource.RLIM_INFINITY else min(120_000 * 1024, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    proc = subprocess.run([sys.executable, "-m", "catsigma", "factor-catalan", "100000000"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60,
                          preexec_fn=lower_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert "MiB budget" in proc.stderr and proc.stderr.count("\n") == 1


# runs argv through the CLI, report discarded, then prints the exit code and
# whether numpy was loaded; with no argv it only imports the package
NUMPY_PROBE = """
import contextlib, io, sys
import catsigma
code = 0
if sys.argv[1:]:
    from catsigma.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

# only the block sweeps (the sigma(z*k - 1) sweeps, erdos, mersenne) need
# numpy; the Catalan commands need only the primes and a Legendre sum
NUMPY_FREE_COMMANDS = [
    ((), "0"),
    (("factor-catalan", "183"), "0"),
    (("sigma-catalan", "183"), "0"),
    (("sigma-catalan", "183", "--mod", "6"), "0"),
    (("digits", "1023"), "0"),
    (("verify", "theorem1", "--n-min", "0", "--n-max", "300"), "1"),
    (("verify", "sigma-catalan", "--n-min", "0", "--n-max", "300"), "1"),
    (("omega", "--range", "100:2000:100"), "0"),
    (("estimate", "--kind", "asymptotic", "--n", "1023"), "0"),
    (("coprime-graph", "--coeffs", "3,4,6,8,12,24"), "0"),
]


@pytest.mark.parametrize("argv,exit_code", NUMPY_FREE_COMMANDS,
                         ids=[" ".join(a) or "import catsigma" for a, _ in NUMPY_FREE_COMMANDS])
def test_catalan_commands_run_without_numpy(argv, exit_code):
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [exit_code, "False"]


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

    # every table build refuses before allocating either array
    monkeypatch.setattr(primes, "_build_spf", refuse)
    monkeypatch.setattr(primes.PrimeTable, "primes", property(lambda table: refuse(table.limit)))
    for argv, message in (
        (("verify", "lemma-six", "--k-max", str(10**9)), "spf table limited"),
        (("verify", "family", "--z", "5", "--k-max", str(10**9)), "spf table limited"),
        (("verify", "conjecture", "--b-max", "100", "--k-max", str(10**8)), "spf table limited"),
        (("verify", "erdos", "--n-max", "2147483648"), "spf table limited"),
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

    monkeypatch.setattr(primes, "_physical_memory", lambda: 16 * 2**20)
    assert invoke(capsys, "factor-catalan", "7")[0] == 0  # a small table still fits
    monkeypatch.setattr(primes, "_build_spf", refuse)
    monkeypatch.setattr(primes.PrimeTable, "primes", property(lambda table: refuse(table.limit)))
    for argv in (
        ("factor-catalan", "10000000"),
        ("sigma-catalan", "10000000", "--mod", "6"),
        ("verify", "lemma-six", "--k-max", "2000000"),
        ("verify", "erdos", "--n-max", "10000000"),
        ("omega", "--range", "2:10000000:1000000"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "physical memory" in err


def test_address_space_limit_checked_before_sieving(capsys, monkeypatch):
    monkeypatch.setattr(primes, "_address_space_limit", lambda: 16 * 2**20)
    assert invoke(capsys, "factor-catalan", "7")[0] == 0  # a small table still fits
    monkeypatch.setattr(primes.PrimeTable, "primes", property(lambda table: pytest.fail(f"sieved to {table.limit}")))
    code, out, err = invoke(capsys, "factor-catalan", "10000000")
    assert (code, out) == (2, "")
    assert "16 MiB budget" in err and err.count("\n") == 1


def test_index_sweep_bound_is_half_the_primality_bound(capsys, monkeypatch):
    # the chain tests q <= 2 * n_max, so n_max up to 1.6e24 keeps every q
    # below is_prime's deterministic bound, and a larger n_max is refused
    monkeypatch.setattr(claims, "build_prime_table", lambda limit: pytest.fail(f"built a table to {limit}"))
    for claim in ("theorem1", "sigma-catalan"):
        code, out, err = invoke(capsys, "verify", claim, "--n-min", "6", "--n-max", str(16 * 10**23))
        assert (code, err) == (0, "")
        assert json.loads(out)["outcome"]["holds"] is True
        code, out, err = invoke(capsys, "verify", claim, "--n-min", "6", "--n-max", str(10**25))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "witness-set bound" in err and "Traceback" not in err


# the largest n_max whose chain keeps every q <= 2 * n_max below is_prime's
# deterministic bound, 3317044064679887385961981
INDEX_SWEEP_N_MAX = 1658522032339943692980990


@pytest.mark.parametrize("claim", ["theorem1", "sigma-catalan"])
def test_index_sweep_runs_at_its_bound(capsys, claim):
    code, out, err = invoke(capsys, "verify", claim, "--n-min", "6", "--n-max", str(INDEX_SWEEP_N_MAX))
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"]["holds"] is True


@pytest.mark.parametrize("claim", ["theorem1", "sigma-catalan"])
def test_index_sweep_past_its_bound_is_refused_up_front(capsys, monkeypatch, claim):
    monkeypatch.setattr(claims, "is_prime", lambda q: pytest.fail(f"tested {q} for primality"))
    code, out, err = invoke(capsys, "verify", claim, "--n-min", "6", "--n-max", str(INDEX_SWEEP_N_MAX + 1))
    assert (code, out) == (2, "")
    assert f"n_max {INDEX_SWEEP_N_MAX + 1} exceeds {INDEX_SWEEP_N_MAX}" in err
    assert err.count("\n") == 1 and "witness-set bound" in err and "Traceback" not in err


def test_modulus_checked_before_factoring(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_prime_table", lambda limit: pytest.fail(f"built a table to {limit} first"))
    for modulus in ("1", "0", "-6"):
        code, out, err = invoke(capsys, "sigma-catalan", "20000000", "--mod", modulus)
        assert (code, out) == (2, "")
        assert "modulus must be >= 2" in err


def test_mersenne_index_bound_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(claims, "_valuation_block", lambda ns, p: pytest.fail("swept past the bound"))
    code, out, err = invoke(capsys, "verify", "mersenne", "--n-max", str(2**62))
    assert (code, out) == (2, "")
    assert "capped below index" in err


# each production route reads one of a table's two arrays, so it sieves
# only that one: the sigma(z*k - 1) sweeps the spf array, the rest the primes
ONE_ARRAY_ROUTES = [
    (("verify", "lemma-six", "--k-max", "3000"), "spf"),
    (("verify", "family", "--z", "5", "--k-max", "3000"), "spf"),
    (("verify", "conjecture", "--b-max", "40", "--k-max", "200"), "spf"),
    (("verify", "theorem1", "--n-min", "0", "--n-max", "300"), "primes"),
    (("verify", "sigma-catalan", "--n-min", "0", "--n-max", "300"), "primes"),
    (("verify", "erdos", "--n-max", "300"), "primes"),
    (("factor-catalan", "183"), "primes"),
    (("sigma-catalan", "183"), "primes"),
    (("sigma-catalan", "183", "--mod", "6"), "primes"),
    (("omega", "--range", "100:2000:100"), "primes"),
    (("digits", "50047"), "primes"),  # a tie: its envelope holds an integer
]


@pytest.mark.parametrize("argv,array", ONE_ARRAY_ROUTES, ids=[" ".join(a) for a, _ in ONE_ARRAY_ROUTES])
def test_each_route_reads_one_array(capsys, monkeypatch, argv, array):
    tables = []

    def recording(limit):
        tables.append(primes.build_prime_table(limit))
        return tables[-1]

    for module in (claims, cli, catalan):
        monkeypatch.setattr(module, "build_prime_table", recording)
    assert invoke(capsys, *argv)[0] in (0, 1)
    assert tables and [sorted(vars(t)) for t in tables] == [sorted(("limit", array))] * len(tables)


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


# sha256 of stdout and the exit code of small acceptance commands: reports
# stay byte-identical for the same arguments, so a change that moves a
# report byte or an exit code fails here
GOLDEN_REPORTS = [
    ("verify family --z 5 --k-max 20000", 1, "b8ded439534bf9a068148175688f57f9274163eecb7ccb2b46a14d699b47c97d"),
    ("verify conjecture --b-max 40 --k-max 200", 0, "185428510a71158760682281440d727a75eefdb0b2cd0522792400037e5e75db"),
    ("verify theorem1 --n-min 0 --n-max 300", 1, "11576a3cdfbdba5909c15436e3409a2872a160997c4255d7f624f643f095cbf6"),
    ("verify sigma-catalan --n-min 0 --n-max 300", 1, "bfcf787612e363d4af5736f249811050e56473fe6657a02668c79a7eeb2828cc"),
    ("verify erdos --n-max 300", 0, "2d7584d942d7e9c5fd5829f724edc3ac80c4573b095f18313c5a86256014f8dd"),
    ("verify mersenne --n-max 3000", 0, "5b9189f4da89cfc2dd8008fc7fc124a44325ce73a7af8caf79832acade3652e2"),
    ("omega --range 100:2000:100 --format csv", 0, "e11541f51e24b67900307637f905676fd0600d45abc2cdf4ea9e8fc759f1ab45"),
    ("factor-catalan 183", 0, "2d89f4f032f3d35e594f5c56c763dbcf6b433de3af0a1becdca598f1723adb32"),
    ("verify theorem1 --n-min 0 --n-max 1000000", 1, "db01d8d74fc36431e75c2e1b62f2c7417fea89db439e2b808d9291f35327bda9"),
    ("verify sigma-catalan --n-min 6 --n-max 1000000", 0, "493237c11cf0e47e8363982cb498f4b5246de64209a984660cae31ee8eb65d65"),
    # windows that start inside a gap of primes congruent to 5 mod 6
    ("verify theorem1 --n-min 4 --n-max 9", 1, "e9116b70230aeb4419b646fef92aaeeffcf3e42c701d2cdf7fceffc45dc71a6e"),
    ("verify sigma-catalan --n-min 5 --n-max 6", 0, "b6640ec0d64748ac2a243a6965049e0bcc7bef82424bd8939f5356c40f1b3aef"),
    ("verify lemma-six --k-max 100000", 0, "d4c1bf7869a6b71724b7f1b10ab769548bb43e4be724743db86a435da831bbfc"),
    ("sigma-catalan 3000", 0, "f653c7d0a4b98a9eb4e1615eb7f647c6119a681b7357c6a5ce794e713d3e8219"),
    ("sigma-catalan 150000 --mod 6", 0, "bd2780dabe1763282c55126484b0eebb3e38d667362900351fa2c2cd7b41a33c"),
    ("digits 150000", 0, "ef0066abb56b29a444eff9d1ae2912f9bdc7471baf8005cf8f7bd491f22d5e99"),
    # sigma terms reduced by a modulus other than 6, and a failing k-sweep
    ("sigma-catalan 150000 --mod 1000000007", 0, "1fc2f945e3dc31be63ff7cfbc0097843b27b581f00b6e87b6f54b48c67478316"),
    ("verify family --z 7 --k-max 200000", 1, "0f93480f39f4f23474d059c7d0ae10eddce4fce36541f9dc17bda1a16fa35473"),
]


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN_REPORTS, ids=[c for c, _, _ in GOLDEN_REPORTS])
def test_golden_reports(capsys, command, exit_code, digest):
    code, out, _ = invoke(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


def test_timing_flag_populates_elapsed(capsys):
    code, report, _ = invoke_json(capsys, "--timing", "verify", "mersenne", "--n-max", "20000")
    assert code == 0
    assert report["outcome"]["elapsed_ms"] >= 0
    assert report["elapsed_ms"] >= 1


def test_stdout_carries_exactly_one_document(capsys):
    _, out, _ = invoke(capsys, "digits", "9")
    json.loads(out)  # a single well-formed document
    assert out.endswith("\n")
