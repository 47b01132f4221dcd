"""The traced benchmark (perfbench/tracer.py) wraps names bound in the
catsigma modules, and the benchmark's set-up (perfbench/run.py) builds a
table and reads its attributes; a change that drops or renames one of them
fails here rather than in the benchmark."""

import os
import subprocess
import sys
from pathlib import Path

from catsigma import cli, primes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    hooks = tracer.Tracer()
    try:
        hooks.install()
    finally:
        hooks.uninstall()
    assert cli.build_prime_table is primes.build_prime_table  # originals restored


def test_benchmark_setup_code_runs(monkeypatch):
    # the set-up process of each workload, as perfbench/run.py launches it:
    # a table of the workload's largest limit, and its spf array where the
    # workload reads one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    sizes = []
    for workload in workloads.WORKLOADS:
        requests = [req for plan in workloads.generate(workload, 1) for req in plan]
        sizes.append(workloads.setup_size(requests))
    assert any(spf for _, spf in sizes)
    for limit, spf in sizes:
        argv = [sys.executable, "-c", run.SETUP_CODE, str(limit), "1" if spf else "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
