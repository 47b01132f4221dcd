"""Command-line front end.

Every invocation writes exactly one report to stdout (JSON by default, CSV
for tabular output on request) and returns 0 when the claim holds or the
query succeeded, 1 when a counterexample was found, 2 on usage or capacity
errors, on exhausted memory, or when stdout cannot take the report.
Reports are byte-identical across runs for the same arguments and version:
elapsed fields are zeroed unless --timing is given, and sweeps report their
first witnesses in ascending order.  The JSON text comes from _dumps, the
same bytes as json.dumps(indent=2), whose pure-Python indent path cost
more than the sieve and the factorization together on a large factor list.
Importing this module loads neither numpy, dataclasses (with its inspect
and ast) nor json, which are a fresh process's start-up cost on every
request, and the command ends its process as soon as its output is
flushed (main), without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import os
import sys
from _json import encode_basestring_ascii
from itertools import chain
from time import perf_counter

from . import __version__
from .asymptotics import omega_table
from .catalan import (CATALAN_EXACT_CEILING, asymptotic_log, catalan_factorization,
                      digit_count, stirling_log_estimate)
from .claims import (
    FAMILY_MODULI,
    coprimality_graph,
    search_conjecture,
    verify_erdos_interval,
    verify_family,
    verify_lemma_six,
    verify_mersenne_parity,
    verify_sigma_catalan,
    verify_theorem_6kminus1,
)
from .divisor import sigma_exact, sigma_mod
from .errors import CapacityError, InconclusiveError, InconsistencyError
from .primes import build_prime_table, check_spf_limit

# Bytes per prime of the table to 2n that each command holds beyond the
# table: the factor list, and factor-catalan's report text (measured in
# primes.check_spf_limit's docstring).
_KEPT_BYTES_PER_PRIME = {"factor-catalan": 160, "sigma-catalan": 80}

# json's text for the non-finite floats, keyed by their repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _coeff_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}")


def _range_spec(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be A:B:STEP, got {text!r}")
    try:
        a, b, step = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must be A:B:STEP, got {text!r}")
    if step < 1 or a > b:
        raise argparse.ArgumentTypeError("range requires A <= B and STEP >= 1")
    return a, b, step


def _claims() -> dict:
    """claim -> (help, verifier, options) for each verify subcommand; every
    option is a required int named as the verifier's parameter.  Built per
    call: the verifiers are read off this module when the command runs, so
    a rebinding of the names (perfbench's tracer) holds."""
    index_range = ("--n-min", "--n-max")
    return {
        "lemma-six": ("6 | sigma(6k-1) for k <= K", verify_lemma_six, ("--k-max",)),
        "family": ("z | sigma(z*k-1) for k <= K", verify_family, ("--z", "--k-max")),
        "conjecture": ("moduli surviving b | sigma(b*k-1) up to K", search_conjecture, ("--b-max", "--k-max")),
        "theorem1": ("catalan(n) has a prime factor of 6k-1 form", verify_theorem_6kminus1, index_range),
        "sigma-catalan": ("6 | sigma(catalan(n)) over an index range", verify_sigma_catalan, index_range),
        "erdos": ("primes in (n+1, 2n] divide catalan(n) exactly once", verify_erdos_interval, ("--n-max",)),
        "mersenne": ("catalan(n) odd iff n+1 is a power of two", verify_mersenne_parity, ("--n-max",)),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsigma",
        description="Factorizations and sum-of-divisors sweeps over Catalan numbers.",
    )
    parser.add_argument("--timing", action="store_true",
                        help="include measured elapsed times (reports stop being byte-stable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor-catalan", help="prime factorization of catalan(n)")
    p.add_argument("n", type=int)

    p = sub.add_parser("sigma-catalan", help="sum of divisors of catalan(n)")
    p.add_argument("n", type=int)
    p.add_argument("--mod", type=int, metavar="M", help="report sigma mod M instead of the exact value")

    p = sub.add_parser("digits", help="decimal digit count of catalan(n)")
    p.add_argument("n", type=int)

    verify = sub.add_parser("verify", help="sweep one divisibility claim")
    claims = verify.add_subparsers(dest="claim", required=True)

    for claim, (text, _, options) in _claims().items():
        p = claims.add_parser(claim, help=text)
        for option in options:
            p.add_argument(option, type=int, required=True)

    p = sub.add_parser("coprime-graph", help="coprimality of (a*k-1, b*k-1) over coefficient pairs")
    p.add_argument("--coeffs", type=_coeff_list, required=True, metavar="A,B,...")
    p.add_argument("--search-bound", type=int, default=1000)

    p = sub.add_parser("omega", help="distinct-prime-factor statistics table")
    p.add_argument("--range", dest="sweep", type=_range_spec, required=True, metavar="A:B:STEP")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("estimate", help="closed-form growth estimates (natural log scale)")
    p.add_argument("--kind", choices=("stirling", "asymptotic"), required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


def _omega_csv(records: list[dict]) -> str:
    lines = [",".join(records[0])]
    for row in records:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def _dispatch(args):
    """Returns (command, parameters, outcome payload, exit code)."""
    if args.command in ("factor-catalan", "sigma-catalan"):
        n = args.n
        # every refusal comes before C_n is factored
        if args.command == "sigma-catalan" and args.mod is None and n > CATALAN_EXACT_CEILING:
            raise CapacityError(f"exact sigma capped at index {CATALAN_EXACT_CEILING}")
        if args.command == "sigma-catalan" and args.mod is not None and args.mod < 2:
            raise ValueError("modulus must be >= 2")
        check_spf_limit(max(2 * n, 2), _KEPT_BYTES_PER_PRIME[args.command])
        factors = catalan_factorization(n, build_prime_table(max(2 * n, 2)))
        if args.command == "factor-catalan":
            payload = {"n": n, "factors": factors.entries}
            return "factor-catalan", {"n": n}, payload, 0
        if args.mod is not None:
            params = {"n": n, "mode": "mod", "modulus": args.mod}
            payload = {"n": n, "modulus": args.mod, "remainder": sigma_mod(factors, args.mod)}
        else:
            params = {"n": n, "mode": "exact"}
            payload = {"n": n, "sigma": sigma_exact(factors)}
        return "sigma-catalan", params, payload, 0

    if args.command == "digits":
        return "digits", {"n": args.n}, {"n": args.n, "digits": digit_count(args.n)}, 0

    if args.command == "verify":
        return _dispatch_verify(args)

    if args.command == "coprime-graph":
        edges = coprimality_graph(args.coeffs, args.search_bound)
        payload = {
            "coefficients": sorted(args.coeffs),
            "search_bound": args.search_bound,
            "always_coprime": sum(e.shared_divisor is None for e in edges),
            "shared_divisor": sum(e.shared_divisor is not None for e in edges),
            "edges": [e._asdict() for e in edges],
        }
        params = {"coeffs": sorted(args.coeffs), "search_bound": args.search_bound}
        return "coprime-graph", params, payload, 0

    if args.command == "omega":
        lo, hi, step = args.sweep
        if lo < 2:
            raise ValueError("omega range must start at 2 or above")
        table = build_prime_table(2 * hi)
        records = [r._asdict() | {"ratio_omega": r.omega / r.pred_omega}
                   for r in omega_table(range(lo, hi + 1, step), table)]
        params = {"range": f"{lo}:{hi}:{step}", "format": args.format}
        return "omega", params, records, 0

    if args.command == "estimate":
        if args.kind == "stirling":
            payload = {"kind": "stirling", "n": args.n, "log_value": stirling_log_estimate(args.n)}
        else:
            payload = {
                "kind": "asymptotic",
                "n": args.n,
                "log_refined": asymptotic_log(args.n, "refined"),
                "log_coarse": asymptotic_log(args.n, "coarse"),
            }
        return "estimate", {"kind": args.kind, "n": args.n}, payload, 0

    raise ValueError(f"unknown command {args.command!r}")


def _dispatch_verify(args):
    claim = args.claim
    # the claim's options, named as the verifier's parameters, in parser order
    params = {k: v for k, v in vars(args).items() if k not in ("timing", "command", "claim")}
    result = _claims()[claim][1](**params)
    elapsed_ms = int(result.elapsed * 1000) if args.timing else 0
    if claim == "conjecture":
        unexpected = sorted(set(result.survivors).difference(FAMILY_MODULI))
        payload = {
            "b_max": result.b_max,
            "k_max": result.k_max,
            "survivors": result.survivors,
            "unexpected_survivors": unexpected,
            "eliminated": result.eliminated,
            "elapsed_ms": elapsed_ms,
        }
        return "verify conjecture", params, payload, 0 if not unexpected else 1
    payload = {
        "claim_id": result.claim_id,
        "range": list(result.range),
        "holds": result.holds,
        "counterexamples": result.counterexamples,
        "elapsed_ms": elapsed_ms,
    }
    return f"verify {claim}", params, payload, 0 if result.holds else 1


def run(argv=None) -> int:
    """Parse argv, execute, write one report to stdout; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    started = perf_counter()
    try:
        command, parameters, payload, code = _dispatch(args)
        if args.command == "omega" and args.format == "csv":
            report = _omega_csv(payload)
        else:
            envelope = {
                "command": command,
                "parameters": parameters,
                "outcome": payload,
                "tool_version": __version__,
                "elapsed_ms": int((perf_counter() - started) * 1000) if args.timing else 0,
            }
            report = _dumps(envelope) + "\n"
        sys.stdout.write(report)
        sys.stdout.flush()
    except (ValueError, CapacityError, InconsistencyError, InconclusiveError) as exc:
        print(f"catsigma: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("catsigma: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:
        # only the write does I/O here: stdout is closed or full.  The
        # interpreter flushes stdout again at exit; pointed at the null
        # device, that flush cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"catsigma: the report could not be written to stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def _dumps(envelope: dict) -> str:
    """The report's JSON text, byte for byte json.dumps(envelope, indent=2),
    written here because any indent sends json to its pure-Python encoder
    (51-69 ms for the 21,167 rows of C_182486's factor list on a 2-vCPU
    Xeon, against 11-18 ms here), and without importing json.  Every value
    is written by _write: dict keys, which are strings in every report, and
    strings through encode_basestring_ascii, the C escaper json.dumps uses
    by default, and floats, bools and None as json writes them.  Exact
    sigma values can pass the interpreter's int-to-str digit limit, which
    is lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out = []
        _write(envelope, "\n", out)
        return "".join(out)
    finally:
        sys.set_int_max_str_digits(limit)


def _write(value, indent: str, out: list) -> None:
    """Append value's indent=2 JSON text to out; indent is a newline and
    the spaces of value's own line.  A list whose rows are all pairs of
    plain ints (a factor list's (p, e) rows) is written with one %d
    template per row: the type checks are exact, so no bool or float is
    written as a digit, and any other rows take the generic path, which
    writes the same text.  Any other type raises TypeError, as
    json.dumps does."""
    if type(value) is int:
        out.append(str(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if set(map(type, value)) == {tuple} and set(map(len, value)) == {2} and \
                set(map(type, chain.from_iterable(value))) <= {int}:
            row = f"[{inner}  %d,{inner}  %d{inner}]"
            out.append("[" + inner + ("," + inner).join(map(row.__mod__, value)) + indent + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main() -> None:
    """The catsigma command: run() on sys.argv, then, once stdout and
    stderr are flushed, end the process with os._exit.  That skips the
    interpreter's teardown (module cleanup, the last garbage collection,
    atexit handlers, of which catsigma registers none): 6-25 ms of every
    request after its report is out, the most where numpy was loaded.
    Output still buffered here (argparse's help) that stdout cannot take
    exits 2, as a report does."""
    code = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)
