"""Self-checks of the benchmark: seeded inputs and the oracle.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads
from workloads import Request

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True  # no bytecode next to the sources

from catsigma.cli import run as cli_run  # noqa: E402


def invoke(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_run(list(argv))
    return code, out.getvalue()


def argv_of(workload, seed):
    return [[r.argv for r in plan] for plan in workloads.generate(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    assert argv_of(workload, 11) == argv_of(workload, 11)
    assert argv_of(workload, 11) != argv_of(workload, 12)


def test_ksweep_passes_cycle_through_every_failing_z():
    cycle = workloads.generate("ksweep", 3)
    assert sorted(int(plan[2].argv[3]) for plan in cycle) == list(workloads.FAILING_Z)
    assert all([r.argv for r in plan[:2] + plan[3:]] == [r.argv for r in cycle[0][:2] + cycle[0][3:]]
               for plan in cycle)


def test_index_bounds_move_at_most_two_percent():
    nominal = {"theorem1": 8000, "sigma-sweep": 4000, "erdos": 8000, "mersenne": 200_000}
    for seed in range(20):
        [plan] = workloads.generate("index", seed)
        for req in plan:
            if req.kind in nominal:
                assert abs(int(req.argv[-1]) - nominal[req.kind]) <= nominal[req.kind] // 50


def test_bigint_keeps_requests_past_the_digit_limit():
    for seed in range(5):
        [plan] = workloads.generate("bigint", seed)
        exact = [r for r in plan if r.kind == "sigma-exact"]
        assert len(exact) == 6
        assert sum(int(r.argv[1]) > 8000 for r in exact) >= 4


def small(kind, *argv):
    return Request(kind, tuple(argv))


SMALL_REQUESTS = [
    small("lemma-six", "verify", "lemma-six", "--k-max", "2000"),
    small("family", "verify", "family", "--z", "24", "--k-max", "500"),
    small("family", "verify", "family", "--z", "7", "--k-max", "300"),
    small("conjecture", "verify", "conjecture", "--b-max", "30", "--k-max", "60"),
    small("theorem1", "verify", "theorem1", "--n-min", "0", "--n-max", "80"),
    small("sigma-sweep", "verify", "sigma-catalan", "--n-min", "6", "--n-max", "80"),
    small("erdos", "verify", "erdos", "--n-max", "80"),
    small("mersenne", "verify", "mersenne", "--n-max", "500"),
    small("omega", "omega", "--range", "100:400:100"),
    small("digits", "digits", "300"),
    small("factor-catalan", "factor-catalan", "60"),
    small("sigma-mod", "sigma-catalan", "61", "--mod", "6"),
    small("sigma-exact", "sigma-catalan", "40"),
]


def test_oracle_accepts_the_cli_reports():
    expected = oracle.expect_all(SMALL_REQUESTS)
    for req, exp in zip(SMALL_REQUESTS, expected):
        code, text = invoke(req.argv)
        assert oracle.check(exp, code, text) == oracle.Verdict(oracle.OK), req.argv


def report_for(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


def tampered_verdict(req, mutate, code_delta=0):
    [exp] = oracle.expect_all([req])
    code, report = report_for(req.argv)
    mutate(report["outcome"])
    return oracle.check(exp, code + code_delta, json.dumps(report)).status


def test_oracle_rejects_a_flipped_holds():
    req = SMALL_REQUESTS[0]
    assert tampered_verdict(req, lambda o: o.update(holds=False)) == oracle.WRONG


def test_oracle_rejects_a_wrong_witness_k():
    req = SMALL_REQUESTS[2]
    assert tampered_verdict(req, lambda o: o["counterexamples"][3].update(k=o["counterexamples"][3]["k"] + 1)) \
        == oracle.WRONG


def test_oracle_rejects_a_missing_survivor_and_a_wrong_digit_count():
    assert tampered_verdict(SMALL_REQUESTS[3], lambda o: o["survivors"].pop()) == oracle.WRONG
    assert tampered_verdict(SMALL_REQUESTS[9], lambda o: o.update(digits=o["digits"] + 1)) == oracle.WRONG
    assert tampered_verdict(SMALL_REQUESTS[10], lambda o: o["factors"][0].__setitem__(1, 99)) == oracle.WRONG


def test_oracle_rejects_an_unexpected_exit_code():
    assert tampered_verdict(SMALL_REQUESTS[2], lambda o: None, code_delta=-1) == oracle.WRONG
    [exp] = oracle.expect_all([SMALL_REQUESTS[0]])
    assert oracle.check(exp, 2, "").status == oracle.ERROR
    assert oracle.check(exp, 1, "").status == oracle.ERROR


def test_oracle_ignores_added_report_fields():
    req = SMALL_REQUESTS[2]
    verdict = tampered_verdict(req, lambda o: o.update(swept=300, counterexamples_total=41))
    assert verdict == oracle.OK


def test_exact_sigma_past_the_digit_limit_is_a_known_defect():
    below, above = oracle.expect_all([small("sigma-exact", "sigma-catalan", "7000"),
                                      small("sigma-exact", "sigma-catalan", "7500")])
    assert not below.defect and above.defect
    with pytest.raises(ValueError):
        json.dumps({"sigma": above.outcome["sigma"]})
    assert oracle.check(above, 1, "").status == oracle.ERROR
    # a later CLI may print the huge value as a decimal string; that passes
    sys.set_int_max_str_digits(0)
    try:
        report = json.dumps({"outcome": {"n": 7500, "sigma": str(above.outcome["sigma"])}})
        wrong = json.dumps({"outcome": {"n": 7500, "sigma": str(above.outcome["sigma"] + 1)}})
    finally:
        sys.set_int_max_str_digits(oracle.INT_STR_DIGITS)
    assert oracle.check(above, 0, report).status == oracle.OK
    # a wrong huge value is reported as wrong, not raised while naming it
    assert oracle.check(above, 0, wrong).status == oracle.WRONG


def test_latency_tail_keeps_ten_samples_beyond():
    many = run.latency_summary([[{"wall_s": float(i + j)} for i in range(24)] for j in range(2)])
    assert (many["samples"], many["tail_percentile"]) == (48, 75.0)
    few = run.latency_summary([[{"wall_s": 1.0}, {"wall_s": 5.0 + j}] for j in range(3)])
    assert few == {"p50": 3.5, "samples": 6, "tail_percentile": 100.0, "tail": 6.0}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = run.end_to_end([[{"wall_s": 1.0, "cpu_s": 1.0, "maxrss_mb": 1.0}]], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
