"""Command-line front end.

Every invocation writes exactly one report to stdout (JSON by default, CSV
for tabular output on request) and returns 0 when the claim holds or the
query succeeded, 1 when a counterexample was found, 2 on usage or capacity
errors, on exhausted memory, or when stdout cannot take the report.
Reports are byte-identical across runs for the same arguments and version:
elapsed fields are zeroed unless --timing is given, and sweeps report their
first witnesses in ascending order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
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
from .primes import build_prime_table

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

    p = claims.add_parser("lemma-six", help="6 | sigma(6k-1) for k <= K")
    p.add_argument("--k-max", type=int, required=True)

    p = claims.add_parser("family", help="z | sigma(z*k-1) for k <= K")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)

    p = claims.add_parser("conjecture", help="moduli surviving b | sigma(b*k-1) up to K")
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)

    p = claims.add_parser("theorem1", help="catalan(n) has a prime factor of 6k-1 form")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = claims.add_parser("sigma-catalan", help="6 | sigma(catalan(n)) over an index range")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = claims.add_parser("erdos", help="primes in (n+1, 2n] divide catalan(n) exactly once")
    p.add_argument("--n-max", type=int, required=True)

    p = claims.add_parser("mersenne", help="catalan(n) odd iff n+1 is a power of two")
    p.add_argument("--n-max", type=int, required=True)

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


def _dispatch(args, timing: bool):
    """Returns (command, parameters, outcome payload, exit code)."""
    if args.command in ("factor-catalan", "sigma-catalan"):
        n = args.n
        # both refusals come before C_n is factored
        if args.command == "sigma-catalan" and args.mod is None and n > CATALAN_EXACT_CEILING:
            raise CapacityError(f"exact sigma capped at index {CATALAN_EXACT_CEILING}")
        if args.command == "sigma-catalan" and args.mod is not None and args.mod < 2:
            raise ValueError("modulus must be >= 2")
        factors = catalan_factorization(n, build_prime_table(max(2 * n, 2)))
        if args.command == "factor-catalan":
            payload = {"n": n, "factors": [[p, e] for p, e in factors]}
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
        return _dispatch_verify(args, timing)

    if args.command == "coprime-graph":
        edges = coprimality_graph(args.coeffs, args.search_bound)
        payload = {
            "coefficients": sorted(args.coeffs),
            "search_bound": args.search_bound,
            "always_coprime": sum(e.shared_divisor is None for e in edges),
            "shared_divisor": sum(e.shared_divisor is not None for e in edges),
            "edges": [asdict(e) for e in edges],
        }
        params = {"coeffs": sorted(args.coeffs), "search_bound": args.search_bound}
        return "coprime-graph", params, payload, 0

    if args.command == "omega":
        lo, hi, step = args.sweep
        if lo < 2:
            raise ValueError("omega range must start at 2 or above")
        table = build_prime_table(2 * hi)
        records = [asdict(r) | {"ratio_omega": r.omega / r.pred_omega}
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


def _dispatch_verify(args, timing: bool):
    claim = args.claim
    # the claim's options, named as the verifier's parameters, in parser order
    params = {k: v for k, v in vars(args).items() if k not in ("timing", "command", "claim")}
    if claim == "conjecture":
        result = search_conjecture(**params)
        expected = [b for b in FAMILY_MODULI if b <= args.b_max]
        unexpected = sorted(set(result.survivors) - set(expected))
        payload = {
            "b_max": result.b_max,
            "k_max": result.k_max,
            "survivors": result.survivors,
            "unexpected_survivors": unexpected,
            "eliminated": result.eliminated,
            "elapsed_ms": int(result.elapsed * 1000) if timing else 0,
        }
        return "verify conjecture", params, payload, 0 if not unexpected else 1
    # built per call: the verifiers are read off this module when the
    # command runs, so a rebinding of the names (perfbench's tracer) holds
    verifier = {
        "lemma-six": verify_lemma_six,
        "family": verify_family,
        "theorem1": verify_theorem_6kminus1,
        "sigma-catalan": verify_sigma_catalan,
        "erdos": verify_erdos_interval,
        "mersenne": verify_mersenne_parity,
    }[claim]
    outcome = verifier(**params)
    payload = {
        "claim_id": outcome.claim_id,
        "range": list(outcome.range),
        "holds": outcome.holds,
        "counterexamples": outcome.counterexamples,
        "elapsed_ms": int(outcome.elapsed * 1000) if timing else 0,
    }
    return f"verify {claim}", params, payload, 0 if outcome.holds else 1


def run(argv=None) -> int:
    """Parse argv, execute, write one report to stdout; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    started = perf_counter()
    try:
        command, parameters, payload, code = _dispatch(args, args.timing)
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
    """JSON text of the report.  Exact sigma values can pass the
    interpreter's int-to-str digit limit, which is lifted for this call
    only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(envelope, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run())
