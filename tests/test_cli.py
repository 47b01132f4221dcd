import argparse
import contextlib
import hashlib
import io
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # without PYTHONUNBUFFERED, so stdout is block-buffered in every
    # subprocess test, as it is for any caller reading a pipe, and a
    # missing flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(Path(catsigma.__file__).parent.parent))


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


def test_main_ends_the_process_after_the_whole_report():
    # main() flushes, then skips the interpreter's teardown with os._exit:
    # a report larger than a pipe buffer still arrives whole, exit 1 (a
    # counterexample) and exit 2 (a usage error) still reach the caller,
    # and so does the help text
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "catsigma", *argv], capture_output=True, env=_cli_env(),
                              timeout=60)

    proc = cli("factor-catalan", "150000")
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert run(["factor-catalan", "150000"]) == 0
    assert len(proc.stdout) > 1 << 16
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, report.getvalue().encode(), b"")
    proc = cli("verify", "family", "--z", "7", "--k-max", "200000")
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert json.loads(proc.stdout)["outcome"]["holds"] is False
    proc = cli("digits", "-1")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"catsigma: ") and proc.stderr.count(b"\n") == 1
    # argparse's help is still buffered when run() returns
    proc = cli("--help")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage: catsigma") and b"coprime-graph" in proc.stdout


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


def test_address_space_limit_counts_the_factor_list_in_a_limited_process():
    # under ulimit -v 120000 (as above) a table to 2 * 10**7 alone fits the
    # 117 MiB budget (about 30 MiB by the estimate), but with the factor list
    # of C_(10**7) and its report it does not: the request is refused by the
    # estimate, before the sieve, rather than running out of memory after it
    resource = pytest.importorskip("resource")

    def lower_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 120_000 * 1024 if hard == resource.RLIM_INFINITY else min(120_000 * 1024, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    proc = subprocess.run([sys.executable, "-m", "catsigma", "factor-catalan", "10000000"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60,
                          preexec_fn=lower_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("catsigma: prime table to 20000000 with its factor list needs about ")
    assert "MiB budget" in proc.stderr and proc.stderr.count("\n") == 1


# modules that import catsigma.cli must not load: dataclasses brings
# inspect, ast, dis and tokenize, about 10 ms of every request's start-up,
# and json about 2 ms
STARTUP_PROBE = """
import sys
before = set(sys.modules)
import catsigma.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_modules():
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.split())
    assert "catsigma.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "json", "numpy"})


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


def test_factor_list_counted_before_sieving(capsys, monkeypatch):
    # the table to 2 * 10**7 alone fits a 100 MiB budget; the factor list
    # (and factor-catalan's report) of C_(10**7) over it does not
    monkeypatch.setattr(primes, "_address_space_limit", lambda: 100 * 2**20)
    primes.check_spf_limit(2 * 10**7)
    monkeypatch.setattr(primes.PrimeTable, "primes", property(lambda table: pytest.fail(f"sieved to {table.limit}")))
    for argv in (("factor-catalan", "10000000"), ("sigma-catalan", "10000000", "--mod", "6")):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "with its factor list needs about" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("name,argv", [
    ("verify_family", ["verify", "family", "--z", "4", "--k-max", "100"]),
    ("search_conjecture", ["verify", "conjecture", "--b-max", "12", "--k-max", "50"]),
])
def test_verify_calls_the_verifier_bound_in_cli_when_it_runs(capsys, monkeypatch, name, argv):
    # perfbench's tracer times each claim by rebinding its name in cli after
    # the import, so verify must look the verifier up there on every call
    _, expected, _ = invoke(capsys, *argv)
    calls = []

    def stub(**params):
        calls.append(params)
        return getattr(claims, name)(**params)

    monkeypatch.setattr(cli, name, stub)
    assert invoke(capsys, *argv) == (0, expected, "")
    assert calls == [json.loads(expected)["parameters"]]


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


def test_record_fields_are_the_report_keys(capsys):
    # the reports serialize the records through _asdict, in field order
    table = build_prime_table(400)
    assert list(catsigma.omega_record(100, table)._asdict()) == OMEGA_FIELDS[:-1]
    _, report, _ = invoke_json(capsys, "coprime-graph", "--coeffs", "3,4,5")
    edges = claims.coprimality_graph([3, 4, 5])
    assert [list(e._asdict()) for e in edges] == [list(e) for e in report["outcome"]["edges"]]
    assert list(edges[0]._asdict()) == ["a", "b", "status", "shared_divisor", "witness_k"]


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
    # None, bools and edge records; floats; omega records as JSON; a digit
    # count at a tie, which forms C_n; an empty factor list
    ("coprime-graph --coeffs 3,4,6,8,12,24", 0, "f5c5fb5996ceb24279604566c9383b21f8615246f84424ddf43e24a39998d814"),
    ("estimate --kind asymptotic --n 1023", 0, "2cb435dcd5a82e4843ba4f09223fecb07cb413d4e8f90276f455e7df5170f288"),
    ("estimate --kind stirling --n 10", 0, "573156c4ce877800b6b2298be300cd452869b4c8a37f5fdd41065484cef0cec1"),
    ("omega --range 100:2000:100", 0, "922faed033dbf7af23e4d3d8bec60fc551704fc19dd3f57c88e8d57d3d8b447d"),
    ("digits 50047", 0, "00b11480c4e67c949f95bf5c2a0c67c0d3784700fd76647d85aca717d3514632"),
    ("factor-catalan 0", 0, "837b5c025b524a7dd4faf8886bb428e12bd55093272c87c8c880d6fc68c97957"),
]


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN_REPORTS, ids=[c for c, _, _ in GOLDEN_REPORTS])
def test_golden_reports(capsys, command, exit_code, digest):
    code, out, _ = invoke(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


# sha256 of the help texts at COLUMNS=80: the verify subcommands are built
# from one table, and every subcommand's usage, help lines and options stay
# as they were
GOLDEN_HELP = [
    ("--help", "5f2360706f7a73f7abea20d9c1a55d9b190923819f1eec2f5f06e893beefc20f"),
    ("verify --help", "c2e821ff38097a054750766618ac3746a268e6e581c3ab1eb820c00297c519ae"),
    ("verify lemma-six --help", "c437059d06e2b5e92b3ee66fd1b4d003c6d619b32a85a0504312e1e9fe481bfc"),
    ("verify family --help", "5ceb766873abc6885b7731eb651713f38516df85530d6be18e965c15f68e8c96"),
    ("verify conjecture --help", "e231130c9e9c431dd9dbba009f48624cea5ce3ac6d362421d9d41eeb868dc987"),
    ("verify theorem1 --help", "fdfde76557535855d661dada8166ff7dec2070e9dbc31bacade709c51ed2909a"),
    ("verify sigma-catalan --help", "d0d7bff1e076cf454114f4335a5cbda8a67251284979b59f8519c0540566db38"),
    ("verify erdos --help", "294133903193f1253b8e50894a82556cafb59744e9b1ec70ecb6872f0cb882f1"),
    ("verify mersenne --help", "44e85b7b8eb2c79780bc15c6d34d8419edafcec4a6d166f8715d75c777a4b83f"),
    ("factor-catalan --help", "00ef9061a66402feecff2e328a311fe56903a02009e9ddefc30067414376d233"),
    ("sigma-catalan --help", "35051c75fa784897c97aa6d7f192a0eb5b134518a8c5f76e9f94a47d399d55cb"),
    ("digits --help", "2c9a72272f0e7800ecdda67e5b8e7265b392b243e212a927908540264db855df"),
    ("coprime-graph --help", "0de41555c54cd04757935b09b8488e523fd291840c04217cecb57352b666d6b6"),
    ("omega --help", "b99d4c68d09aae355d8827667d0761438fb98aeaec93ba0275ad9d136199a553"),
    ("estimate --help", "705b58710cb4ee26c4889f02b835a081b3e77020b19e18e1a92f329dfae7aa2f"),
]


@pytest.mark.parametrize("command,digest", GOLDEN_HELP, ids=[c for c, _ in GOLDEN_HELP])
def test_golden_help(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, *command.split())
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest)


def test_timing_flag_populates_elapsed(capsys):
    code, report, _ = invoke_json(capsys, "--timing", "verify", "mersenne", "--n-max", "20000")
    assert code == 0
    assert report["outcome"]["elapsed_ms"] >= 0
    assert report["elapsed_ms"] >= 1


def test_stdout_carries_exactly_one_document(capsys):
    _, out, _ = invoke(capsys, "digits", "9")
    json.loads(out)  # a single well-formed document
    assert out.endswith("\n")


def _json_indent_2(value):
    """The oracle for the report writer, with the int-to-str limit lifted
    as the writer lifts it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


INTS = st.integers() | st.builds(lambda digits, sign: sign * (10**digits - 1),
                                 st.integers(4300, 4400), st.sampled_from((1, -1)))
SCALARS = st.none() | st.booleans() | st.floats() | st.text() | INTS


def _rows(items):
    """Lists of rows of one width, each row a list or a tuple."""
    return st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(items, min_size=width, max_size=width) | st.tuples(*[items] * width),
                               max_size=6)
    )


# sizes are bounded: unbounded recursive payloads cost seconds to generate
PAYLOADS = st.recursive(
    # int rows (the template's shape), rows with bools or floats among the
    # ints, and ragged rows
    SCALARS | _rows(INTS) | _rows(INTS | st.booleans() | st.floats()) | st.lists(st.lists(INTS, max_size=3), max_size=4),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
@example([[1, True], [2, 3]])
@example([(1, 2.0), (3, 4)])
@example([(1, 2), [3, 4], (5, 6)])
@example([[1, 2], [3]])
@example([[], []])
@example({"\x00\u00e9\u2028\"": [float("nan"), float("inf"), -float("inf"), None, -0.0]})
@example({"sigma": 10**4400 + 1, "rows": [[10**4400, -1]]})
def test_writer_matches_json_indent_2(value):
    assert cli._dumps(value) == _json_indent_2(value)


def test_factor_catalan_reports_match_json_over_a_whole_range():
    # every factor list to n = 3000 through the writer's row template,
    # against the same envelope through json.dumps(indent=2)
    args = _build_parser().parse_args(["factor-catalan", "0"])
    for n in range(3001):
        args.n = n
        command, parameters, payload, _ = cli._dispatch(args)
        envelope = {"command": command, "parameters": parameters, "outcome": payload,
                    "tool_version": __version__, "elapsed_ms": 0}
        assert cli._dumps(envelope) == json.dumps(envelope, indent=2), n
