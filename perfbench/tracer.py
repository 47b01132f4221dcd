"""Per-layer timing of catsigma, from outside the package.

The traced run imports catsigma into the benchmark process and replaces
the names that its modules bound with ``from ... import`` by timing
wrappers; nothing in ``src/`` changes, and the originals are put back
afterwards.  Two kinds of wrapper exist:

* span layers (``cli.run``, the verifiers, table builds, ``omega_table``,
  ``digit_count``, ``catalan_exact``) keep one record each, with start,
  end and parent span id, written out when the run ends;
* per-item layers (``factor_u64``, ``sigma_mod``, ``sigma_exact``,
  ``catalan_factorization``, ``catalan_v2``, ``legendre_valuation``,
  ``is_prime``), called millions of times on a k-sweep, only add a call
  count and busy time to a tally per parent span.

Span layers run on the main thread and are timed by wall clock.  Per-item
layers may run on the CLI's worker threads, which take turns on the
interpreter lock, so their busy time is the calling thread's CPU time:
wall time would also count the turns spent waiting for the lock.  A span's
self time is its wall time minus its direct children's time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time

import oracle

SRC = Path(__file__).resolve().parent.parent / "src"

VERIFIERS = ("verify_lemma_six", "verify_family", "search_conjecture", "verify_theorem_6kminus1",
             "verify_sigma_catalan", "verify_erdos_interval", "verify_mersenne_parity")

# layer name -> (module, attribute) bindings that route calls into it
SPAN_LAYERS = {
    "primes.build_prime_table": (("claims", "build_prime_table"), ("cli", "build_prime_table")),
    "primes.spf": (("primes", "_build_spf"),),
    "asymptotics.omega_table": (("cli", "omega_table"),),
    "catalan.digit_count": (("cli", "digit_count"),),
    "catalan.catalan_exact": (("catalan", "catalan_exact"),),
    **{f"claims.{v}": (("cli", v),) for v in VERIFIERS},
}
ITEM_LAYERS = {
    "factorint.factor_u64": (("claims", "factor_u64"),),
    "divisor.sigma_mod": (("claims", "sigma_mod"), ("cli", "sigma_mod")),
    "divisor.sigma_exact": (("claims", "sigma_exact"), ("cli", "sigma_exact")),
    "catalan.catalan_factorization": (("claims", "catalan_factorization"), ("cli", "catalan_factorization"),
                                      ("asymptotics", "catalan_factorization")),
    "catalan.catalan_v2": (("claims", "catalan_v2"),),
    "factorint.legendre_valuation": (("catalan", "legendre_valuation"),),
    "primes.is_prime": (("factorint", "is_prime"), ("catalan", "is_prime")),
}

# the per-layer metrics, in report order, with their units
PER_LAYER = {
    "primes.build_prime_table.calls": "count",
    "primes.build_prime_table.busy_s": "s",
    "primes.spf.busy_s": "s",
    "primes.spf.rss_delta_mb": "MiB",
    "primes.is_prime.calls": "count",
    "factorint.factor_u64.calls": "count",
    "factorint.factor_u64.busy_s": "s",
    "factorint.legendre_valuation.calls": "count",
    "factorint.legendre_valuation.busy_s": "s",
    "divisor.sigma_mod.calls": "count",
    "divisor.sigma_mod.busy_s": "s",
    "divisor.sigma_exact.calls": "count",
    "divisor.sigma_exact.busy_s": "s",
    "catalan.catalan_factorization.calls": "count",
    "catalan.catalan_factorization.busy_s": "s",
    "catalan.catalan_v2.calls": "count",
    "catalan.catalan_v2.busy_s": "s",
    "catalan.catalan_exact.busy_s": "s",
    "catalan.digit_count.busy_s": "s",
    **{f"claims.{v}.wall_s": "s" for v in VERIFIERS},
    "claims.self_s": "s",
    "claims.threads_seen": "count",
    "claims.witness_yield": "ratio",
    "asymptotics.omega_table.busy_s": "s",
    "cli.run.wall_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_MB


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "rss_delta_mb")

    def __init__(self, sid: int, name: str, parent: int | None):
        self.id, self.name, self.parent = sid, name, parent
        self.start = self.end = self.child_s = self.rss_delta_mb = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


class _ThreadTally:
    """Per-item counts of one thread, so worker threads never share a
    counter: (span id, layer) -> [calls, busy s], plus the busy time of
    calls made directly under each span (not nested in another item)."""

    def __init__(self):
        self.depth = 0
        self.items: dict[tuple[int, str], list] = {}
        self.direct: dict[int, float] = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active: Span | None = None  # innermost open span
        self.tallies: list[_ThreadTally] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = _ThreadTally()
            self.tallies.append(tally)
        return tally

    @contextlib.contextmanager
    def span(self, name: str, rss: bool = False):
        parent = self.active
        s = Span(len(self.spans), name, parent.id if parent else None)
        self.spans.append(s)
        self.active = s
        rss0 = _rss_mb() if rss else 0.0
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            if rss:
                s.rss_delta_mb = _rss_mb() - rss0
            self.active = parent
            if parent is not None:
                parent.child_s += s.wall

    def _span_wrapper(self, name, fn):
        rss = name == "primes.spf"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, rss):
                return fn(*args, **kwargs)

        return traced

    def _item_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tally = self._tally()
            tally.depth += 1
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = thread_time() - c0
                tally.depth -= 1
                sid = self.active.id
                acc = tally.items.get((sid, name))
                if acc is None:
                    acc = tally.items[(sid, name)] = [0, 0.0]
                acc[0] += 1
                acc[1] += busy
                if not tally.depth:
                    tally.direct[sid] = tally.direct.get(sid, 0.0) + busy

        return traced

    def install(self) -> None:
        for layers, make in ((SPAN_LAYERS, self._span_wrapper), (ITEM_LAYERS, self._item_wrapper)):
            for name, bindings in layers.items():
                for module_name, attr in bindings:
                    module = sys.modules[f"catsigma.{module_name}"]
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- summaries ---

    def item_totals(self, name: str, spans=None) -> tuple[int, float]:
        ids = None if spans is None else {s.id for s in spans}
        calls, busy = 0, 0.0
        for tally in self.tallies:
            for (sid, layer), (c, b) in tally.items.items():
                if layer == name and (ids is None or sid in ids):
                    calls += c
                    busy += b
        return calls, busy

    def self_time(self, span: Span) -> float:
        return span.wall - span.child_s - sum(t.direct.get(span.id, 0.0) for t in self.tallies)

    def threads_under(self, span: Span) -> int:
        """Threads that ran per-item calls directly under the span."""
        return sum(1 for t in self.tallies if any(sid == span.id for sid, _ in t.items))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        items: dict[tuple[int, str], list] = {}
        for tally in self.tallies:
            for key, (c, b) in tally.items.items():
                entry = items.setdefault(key, [0, 0.0])
                entry[0] += c
                entry[1] += b
        path.write_text(json.dumps({
            "spans": [{"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                       "self_s": self.self_time(s)} for s in self.spans],
            "items": [{"span": sid, "layer": layer, "calls": c, "busy_s": b}
                      for (sid, layer), (c, b) in items.items()],
            "threads": len(self.tallies),
        }))


def _play(cli, requests, expected, tally, tracer: Tracer | None):
    """One closed-loop pass through cli.run; returns (wall s, stdout bytes,
    parsed reports of the verify requests)."""
    wall = 0.0
    stdout_bytes = 0
    reports = []
    for req in requests:
        exp = expected[req]
        out, err = io.StringIO(), io.StringIO()
        root = tracer.span("cli.run") if tracer else contextlib.nullcontext()
        started = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
            try:
                code = cli.run(list(req.argv))
            except Exception as exc:  # the interpreter would print a traceback and exit 1
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = 1
        wall += perf_counter() - started
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        tally.add(oracle.check(exp, code, text), exp)
        if req.argv[0] == "verify" and text:
            with contextlib.suppress(ValueError):
                reports.append(oracle.parse_report(text))
    return wall, stdout_bytes, reports


def _reported_sigma_witnesses(reports) -> int:
    count = 0
    for report in reports:
        outcome = report.get("outcome", {})
        for key in ("counterexamples", "eliminated"):
            count += sum(1 for w in outcome.get(key, []) if "sigma" in w)
    return count


def _layer_metrics(tracer: Tracer, plain_wall: float, traced_wall: float, stdout_bytes: int,
                   reports, import_s: float) -> dict[str, float]:
    m: dict[str, float] = {}
    tables = tracer.named("primes.build_prime_table")
    m["primes.build_prime_table.calls"] = len(tables)
    m["primes.build_prime_table.busy_s"] = sum(s.wall for s in tables)
    spf = tracer.named("primes.spf")
    m["primes.spf.busy_s"] = sum(s.wall for s in spf)
    m["primes.spf.rss_delta_mb"] = max((s.rss_delta_mb for s in spf), default=0.0)
    m["primes.is_prime.calls"] = tracer.item_totals("primes.is_prime")[0]
    for layer in ("factorint.factor_u64", "factorint.legendre_valuation", "divisor.sigma_mod",
                  "divisor.sigma_exact", "catalan.catalan_factorization", "catalan.catalan_v2"):
        m[f"{layer}.calls"], m[f"{layer}.busy_s"] = tracer.item_totals(layer)
    for layer in ("catalan.catalan_exact", "catalan.digit_count", "asymptotics.omega_table"):
        m[f"{layer}.busy_s"] = sum(s.wall for s in tracer.named(layer))
    claims = [s for s in tracer.spans if s.name.startswith("claims.")]
    for v in VERIFIERS:
        m[f"claims.{v}.wall_s"] = sum(s.wall for s in tracer.named(f"claims.{v}"))
    m["claims.self_s"] = sum(tracer.self_time(s) for s in claims)
    m["claims.threads_seen"] = max((tracer.threads_under(s) for s in claims), default=0)
    sigma_calls = tracer.item_totals("divisor.sigma_exact", claims)[0]
    # reported witnesses per exact sigma computed in a sweep; 1.0 when none was computed
    m["claims.witness_yield"] = _reported_sigma_witnesses(reports) / sigma_calls if sigma_calls else 1.0
    runs = tracer.named("cli.run")
    m["cli.run.wall_s"] = sum(s.wall for s in runs)
    m["cli.import_s"] = import_s
    m["cli.self_s"] = sum(tracer.self_time(s) for s in runs)
    m["cli.stdout_bytes"] = stdout_bytes
    m["trace.overhead_s"] = traced_wall - plain_wall
    return m


def traced_run(cycle, expected, seconds, tally, scratch: Path, tag: str):
    """Pairs of (plain, traced) in-process passes around the cycle while
    another pair still fits in the time; returns the median of each
    per-layer metric over the pairs."""
    os.environ.pop("CATSIGMA_THREADS", None)
    sys.set_int_max_str_digits(oracle.INT_STR_DIGITS)
    sys.pycache_prefix = str(scratch / "pycache")
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import catsigma.cli as cli

    import_s = perf_counter() - started
    per_pair = []
    spent = last = 0.0
    while not per_pair or spent + last <= seconds:
        started = perf_counter()
        requests = cycle[len(per_pair) % len(cycle)]
        plain_wall, _, _ = _play(cli, requests, expected, tally, None)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, stdout_bytes, reports = _play(cli, requests, expected, tally, tracer)
        finally:
            tracer.uninstall()
        per_pair.append(_layer_metrics(tracer, plain_wall, traced_wall, stdout_bytes, reports, import_s))
        last = perf_counter() - started
        spent += last
    tracer.dump(scratch / f"trace-{tag}.json")
    metrics = {name: (statistics.median(p[name] for p in per_pair), unit) for name, unit in PER_LAYER.items()}
    return metrics, {"passes": len(per_pair)}
