"""Seeded request lists for the three benchmark workloads.

A workload is a cycle of passes, each an ordered list of CLI requests; a
run plays pass after pass around the cycle.  The seed fixes every
argument, so the same seed always gives the same argv; the CLI sees only
that argv.  Each request also says which prime table it needs, which sets
the workload's set-up size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("ksweep", "index", "bigint")

# The moduli z that fail the family claim and are drawn for the failing sweep.
FAILING_Z = (5, 7, 9, 10, 11)


@dataclass(frozen=True)
class Request:
    """One CLI invocation.  ``kind`` names the check the oracle applies;
    ``table`` is the prime-table limit the request builds (0 for none) and
    ``spf`` whether it also builds the smallest-prime-factor table."""

    kind: str
    argv: tuple[str, ...]
    table: int = 0
    spf: bool = False


def _ksweep(rng: random.Random) -> list[list[Request]]:
    # the failing sweep costs more for some z than for others, so successive
    # passes step through all of them in a seeded order
    return [[
        Request("lemma-six", ("verify", "lemma-six", "--k-max", "1000000"), 6 * 1_000_000 - 1, True),
        Request("family", ("verify", "family", "--z", "24", "--k-max", "100000"), 24 * 100_000 - 1, True),
        Request("family", ("verify", "family", "--z", str(z), "--k-max", "200000"), z * 200_000 - 1, True),
        Request("conjecture", ("verify", "conjecture", "--b-max", "100", "--k-max", "10000"), 100 * 10_000 - 1, True),
    ] for z in rng.sample(FAILING_Z, len(FAILING_Z))]


def _index(rng: random.Random) -> list[list[Request]]:
    def near(bound: int) -> int:
        # moves the bound by at most 1%
        return bound + rng.randint(-(bound // 100), bound // 100)

    t1, sc, er, me, om = near(8000), near(4000), near(8000), near(200_000), near(20_000)
    return [[
        Request("theorem1", ("verify", "theorem1", "--n-min", "0", "--n-max", str(t1)), 2 * t1),
        Request("sigma-sweep", ("verify", "sigma-catalan", "--n-min", "6", "--n-max", str(sc)), 2 * sc),
        Request("erdos", ("verify", "erdos", "--n-max", str(er)), 2 * er),
        Request("mersenne", ("verify", "mersenne", "--n-max", str(me))),
        Request("omega", ("omega", "--range", f"1000:{om}:1000"), 2 * om),
    ]]


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count values from [lo, hi), one near the middle of each of count equal
    strata (within a tenth of the stratum width), so every seed spreads its
    indices over the interval alike and asks for about the same work."""
    width = (hi - lo) // count
    return [lo + i * width + width // 2 + rng.randint(-(width // 20), width // 20) for i in range(count)]


def _bigint(rng: random.Random) -> list[list[Request]]:
    # the slow digits queries are a third of the mix, so the 75th latency
    # percentile falls inside their group rather than on its edge
    requests = [Request("digits", ("digits", str(n))) for n in _stratified(rng, 50_000, 150_000, 8)]
    requests += [
        Request("factor-catalan", ("factor-catalan", str(n)), 2 * n)
        for n in _stratified(rng, 1, 200_001, 6)
    ]
    requests += [
        Request("sigma-mod", ("sigma-catalan", str(n), "--mod", "6"), 2 * n)
        for n in _stratified(rng, 1, 200_001, 4)
    ]
    # the upper part of this range crosses the interpreter's 4300-digit
    # int-to-str limit; those requests stay in on purpose
    requests += [
        Request("sigma-exact", ("sigma-catalan", str(n)), 2 * n)
        for n in _stratified(rng, 2000, 20_000, 6)
    ]
    rng.shuffle(requests)
    return [requests]


def generate(workload: str, seed: int) -> list[list[Request]]:
    """The cycle of passes of one workload for one seed."""
    makers = {"ksweep": _ksweep, "index": _index, "bigint": _bigint}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"))


def setup_size(requests) -> tuple[int, bool]:
    """The largest table limit the requests build (at least 2), and whether
    the smallest-prime-factor table is part of the set-up."""
    return max(2, *(r.table for r in requests)), any(r.spf for r in requests)
