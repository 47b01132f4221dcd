"""The traced benchmark (perfbench/tracer.py) wraps names bound in the
catsigma modules; a change that drops or renames one of them fails here
rather than in the benchmark."""

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
