"""Benchmark of the catsigma command line, one workload per call.

    python3 perfbench/run.py --workload ksweep --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it runs ``src/catsigma`` as it
stands, with no install step.  With ``--trace 0`` it plays the workload's
requests as a closed loop with one client, each request a fresh process
with default flags, pass after pass while one more fits in ``--seconds``, and
reports the end-to-end metrics.  With ``--trace 1`` it drives the same
argv through ``catsigma.cli.run`` in this process, once plain and once
with every layer timed (see tracer.py), and reports the per-layer metrics.
Every report is checked against oracle.py.  The last stdout line is one
JSON object; the lines before it name each metric with its unit.
Scratch files (bytecode, reports, trace spans, results) go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import platform
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
CLI_CODE = "from catsigma.cli import main; main()"
SETUP_CODE = (
    "import sys\n"
    "import catsigma.cli\n"
    "from catsigma.primes import build_prime_table\n"
    "table = build_prime_table(int(sys.argv[1]))\n"
    "if sys.argv[2] == '1':\n"
    "    table.spf\n"
)
SETUP_SAMPLES = 5
# environment variables that would change what the CLI does or how it starts
STRIPPED_ENV = ("CATSIGMA_THREADS", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE")
# catsigma makes no BLAS calls, but numpy's BLAS starts a thread pool on
# import whose spinning adds CPU time that depends on whether another core
# happens to be free; one BLAS thread takes that noise out
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# percentiles tried for the latency tail, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
# a fork refused for want of process slots or memory on a busy host is
# tried again after a pause, this many times
SPAWN_RETRIES = 5
# a set-up process killed by a signal from outside is run again, this many
# times; one that exits with an error fails the run at once
SETUP_RETRIES = 2


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    # bytecode goes to the scratch tree, never next to the sources
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    return env


def scratch_file(name: str) -> Path:
    """A scratch file of this process alone, so two runs in one checkout
    never read each other's output."""
    return SCRATCH / f"{name}-{os.getpid()}"


def _posix_spawn(argv, env, actions) -> int:
    for attempt in range(SPAWN_RETRIES + 1):
        try:
            return os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        except OSError as exc:
            if exc.errno not in (errno.EAGAIN, errno.ENOMEM) or attempt == SPAWN_RETRIES:
                raise
            time.sleep(0.2 * 2**attempt)
    raise AssertionError("unreachable")


def spawn(argv: list[str], env: dict[str, str], out: Path, err: Path):
    """Run one child to completion; returns (wall s, exit code, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    started = perf_counter()
    pid = _posix_spawn(argv, env, actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return perf_counter() - started, os.waitstatus_to_exitcode(status), usage


class Setup:
    """Fresh processes that import the CLI and build the workload's largest
    prime table (and spf table, if the workload uses one), timed whole."""

    def __init__(self, requests, env):
        limit, spf = workloads.setup_size(requests)
        self.argv = [sys.executable, "-c", SETUP_CODE, str(limit), "1" if spf else "0"]
        self.env = env
        self.times: list[float] = []

    def once(self) -> float:
        out, err = scratch_file("setup.out"), scratch_file("setup.err")
        for _ in range(SETUP_RETRIES + 1):
            wall, code, _ = spawn(self.argv, self.env, out, err)
            if code >= 0:
                break
        if code != 0:
            raise RuntimeError(f"set-up process failed with exit {code}: {err.read_text()[-500:]}")
        return wall

    def sample(self) -> None:
        self.times.append(self.once())


def latency_summary(passes) -> dict:
    """query_s.p50 is the median over passes of each pass's median request
    latency.  query_s.tail is the highest ladder percentile of all latencies
    in the run that has at least ten samples beyond it; with too few samples
    for any, it is the median over passes of each pass's slowest request,
    recorded as percentile 100."""
    per_pass = [[r["wall_s"] for r in records] for records in passes]
    pooled = [x for lat in per_pass for x in lat]
    summary = {"p50": statistics.median(statistics.median(lat) for lat in per_pass),
               "samples": len(pooled), "tail_percentile": 100.0,
               "tail": statistics.median(max(lat) for lat in per_pass)}
    for q in TAIL_LADDER:
        if len(pooled) * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(pooled, n=1000, method="inclusive")
            summary.update(tail_percentile=q, tail=cuts[round(q * 10) - 1])
            break
    return summary


class Tally:
    """Oracle verdicts over a run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = self.known_defect = 0
        self.reasons: dict[str, int] = {}

    def add(self, verdict: oracle.Verdict, expected: oracle.Expected) -> None:
        self.attempted += 1
        if verdict.status == oracle.OK:
            return
        self.failed += 1
        self.wrong += verdict.status == oracle.WRONG
        self.known_defect += bool(expected.defect) and verdict.status == oracle.ERROR
        key = verdict.reason[:160]
        self.reasons[key] = self.reasons.get(key, 0) + 1


def run_passes(cycle, expected, seconds, env, tally, setup: Setup):
    """Closed loop, one client: passes around the cycle of request lists
    while another pass still fits in the time.  A set-up sample is taken
    before each pass and after the last, so those samples spread over the
    run too.  Returns one list of per-request records per pass."""
    out, err = scratch_file("request.out"), scratch_file("request.err")
    passes = []
    spent = last = 0.0
    while not passes or spent + last <= seconds:
        setup.sample()
        started = perf_counter()
        records = []
        for req in cycle[len(passes) % len(cycle)]:
            wall, code, usage = spawn([sys.executable, "-c", CLI_CODE, *req.argv], env, out, err)
            stdout = out.read_text()
            tally.add(oracle.check(expected[req], code, stdout), expected[req])
            records.append({
                "argv": list(req.argv),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024,
                "exit": code,
            })
        passes.append(records)
        last = perf_counter() - started
        spent += last
    while len(setup.times) < SETUP_SAMPLES:
        setup.sample()
    return passes


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    latency = latency_summary(passes)
    metrics = {
        "wall_s": (statistics.median(sum(r["wall_s"] for r in rs) for rs in passes), "s"),
        "cpu_s": (statistics.median(sum(r["cpu_s"] for r in rs) for rs in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r["maxrss_mb"] for r in rs) for rs in passes), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "query_s.p50": (latency["p50"], "s"),
        "query_s.tail": (latency["tail"], "s"),
    }
    notes = {"passes": len(passes), "latency_samples": latency["samples"],
             "tail_percentile": latency["tail_percentile"], "setup_samples": len(setup_times)}
    return metrics, notes


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}


def _terminated(signum, frame):
    # unwinds through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "catsigma" / "cli.py").is_file():
        print(f"perfbench: no catsigma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return measure(args)
    finally:
        for name in ("setup.out", "setup.err", "request.out", "request.err"):
            scratch_file(name).unlink(missing_ok=True)


def measure(args) -> int:
    cycle = workloads.generate(args.workload, args.seed)
    requests = list(dict.fromkeys(req for plan in cycle for req in plan))
    expected = dict(zip(requests, oracle.expect_all(requests)))
    env = child_env()
    setup = Setup(requests, env)
    setup.once()  # untimed: fills the bytecode and file caches
    tally = Tally()

    if args.trace:
        os.environ.update(PINNED_ENV)
        import tracer  # imports catsigma into this process

        metrics, notes = tracer.traced_run(cycle, expected, args.seconds, tally, SCRATCH,
                                           f"{args.workload}-{args.seed}")
    else:
        passes = run_passes(cycle, expected, args.seconds, env, tally, setup)
        metrics, notes = end_to_end(passes, setup.times)
        notes["requests"] = passes[0]

    notes.update(environment())
    notes.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": tally.failed / tally.attempted,
        "known_defect_ratio": tally.known_defect / tally.attempted,
        "failures": tally.reasons,
    })
    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "notes": notes}, indent=1, default=str))

    for key in ("workload", "seed", "nproc", "python", "numpy", "passes", "latency_samples",
                "tail_percentile", "setup_samples"):
        if key in notes:
            print(f"# {key}: {notes[key]}")
    for reason, count in tally.reasons.items():
        print(f"# {count} x {reason}")
    print(f"fail_ratio = {notes['fail_ratio']:.6g} ratio ({tally.failed} of {tally.attempted} requests; "
          f"{tally.known_defect} known defects, {tally.wrong} wrong results)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
