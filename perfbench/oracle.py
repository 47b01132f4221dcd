"""Expected results for benchmark requests, by routes the CLI does not take.

The CLI factors Catalan numbers by Legendre sums over a numpy sieve and
sweeps sigma by spf walks.  This module instead uses its own bytearray
sieve, Kummer's carry count for v_p(C(2n, n)), trial division, and
brute-force sigma, plus the closed-form arguments below for sweeps that
hold everywhere:

* z | sigma(z*k - 1) for z | 24: every unit d mod z has d*d == 1, so each
  divisor pair (d, n/d) of n == -1 (mod z) sums to 0 mod z.
* A prime p in (n+1, 2n] divides catalan(n) exactly once (p*p > 2n and
  p > n+1), so a prime p == 5 (mod 6) there is a factor of the 6k-1 form
  and makes the term p + 1 of sigma(catalan(n)) divisible by 6.
* v_2(catalan(n)) == s_2(n+1) - 1 by Kummer's theorem.

Only verdict fields are compared (exit code, holds, witnesses, survivors,
digit counts, factor lists), so fields added to a report later never turn
a request into a failure.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from math import fsum, log, log10, prod

from workloads import Request

FAMILY_MODULI = (3, 4, 6, 8, 12, 24)
REPORTED_WITNESSES = 10
# CPython refuses int <-> decimal str conversions past this many digits
# unless a program raises the limit; the CLI does not.
INT_STR_DIGITS = 4300

OK, WRONG, ERROR = "ok", "wrong", "error"


@dataclass
class Expected:
    """What a correct report holds.  ``outcome`` maps a report field to its
    value; ``witnesses`` lists the fields each reported witness must carry.
    ``defect`` names a known program defect the request runs into."""

    exit_code: int
    outcome: dict = field(default_factory=dict)
    witness_key: str = ""
    witnesses: list[dict] = field(default_factory=list)
    defect: str = ""


@dataclass(frozen=True)
class Verdict:
    status: str  # OK, WRONG (a report that disagrees) or ERROR (no usable report)
    reason: str = ""


# --- independent arithmetic -------------------------------------------------

class Primes:
    """Primes up to a limit from a plain bytearray sieve."""

    def __init__(self, limit: int):
        flags = bytearray([1]) * (limit + 1)
        flags[:2] = b"\x00\x00"
        p = 2
        while p * p <= limit:
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
            p += 1
        self.limit = limit
        self.list = [i for i, f in enumerate(flags) if f]

    def upto(self, x: int) -> list[int]:
        if x > self.limit:
            raise ValueError(f"{x} beyond sieve limit {self.limit}")
        return self.list[: bisect_right(self.list, x)]


def trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sigma_brute(n: int) -> int:
    """Sum of divisors of n from its trial-division factorization."""
    return prod((p ** (e + 1) - 1) // (p - 1) for p, e in trial_factor(n).items())


def _carries_doubling(n: int, p: int) -> int:
    """Carries when n + n is added in base p, i.e. v_p(C(2n, n)) (Kummer)."""
    carries = carry = 0
    while n or carry:
        carry = 1 if 2 * (n % p) + carry >= p else 0
        carries += carry
        n //= p
    return carries


def _valuation_of(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def catalan_factors(n: int, primes: Primes) -> list[tuple[int, int]]:
    """(p, e) pairs of catalan(n) = C(2n, n) / (n + 1), increasing in p."""
    out = []
    for p in primes.upto(2 * n):
        e = _carries_doubling(n, p) - _valuation_of(n + 1, p)
        if e:
            out.append((p, e))
    return out


def catalan_small(n: int) -> int:
    """Exact catalan(n) by C_{m+1} = C_m * 2(2m+1) / (m+2); for small n."""
    c = 1
    for m in range(n):
        c = c * 2 * (2 * m + 1) // (m + 2)
    return c


def _product_tree(values: list[int]) -> int:
    while len(values) > 1:
        values = [prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return values[0] if values else 1


def decimal_digits(x: int) -> int:
    """Digit count of a positive integer without str()."""
    d = max(1, int(x.bit_length() * 0.30102999566398120))
    while 10**d <= x:
        d += 1
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


# --- expectations per request -----------------------------------------------

def _arg(req: Request, flag: str) -> int:
    return int(req.argv[req.argv.index(flag) + 1])


def _holds(first: int, last: int) -> Expected:
    return Expected(0, {"holds": True, "range": [first, last], "counterexamples": []})


def _family_witnesses(z: int, k_max: int) -> list[dict]:
    found = []
    k = 0
    while len(found) < REPORTED_WITNESSES and k < k_max:
        k += 1
        n = z * k - 1
        s = sigma_brute(n)
        if s % z:
            found.append({"k": k, "value": n, "sigma": s, "remainder": s % z})
    return found


def _expect_family(req: Request) -> Expected:
    z, k_max = _arg(req, "--z"), _arg(req, "--k-max")
    if 24 % z == 0 and z > 2:
        return _holds(1, k_max)
    witnesses = _family_witnesses(z, k_max)
    if not witnesses:
        return _holds(1, k_max)
    return Expected(1, {"holds": False, "range": [1, k_max]}, "counterexamples", witnesses)


def _expect_conjecture(req: Request) -> Expected:
    b_max, k_max = _arg(req, "--b-max"), _arg(req, "--k-max")
    survivors, eliminated = [], []
    for b in range(2, b_max + 1):
        if b in FAMILY_MODULI:
            survivors.append(b)
            continue
        w = _family_witnesses(b, k_max)[:1]
        if not w:
            survivors.append(b)
            continue
        hit = w[0]
        eliminated.append({"b": b, "witness_k": hit["k"], "value": hit["value"],
                           "sigma": hit["sigma"], "remainder": hit["remainder"]})
    unexpected = [b for b in survivors if b not in FAMILY_MODULI]
    return Expected(1 if unexpected else 0,
                    {"survivors": survivors, "unexpected_survivors": unexpected},
                    "eliminated", eliminated)


def _five_mod_six_in_interval(n_max: int) -> list[bool]:
    """For each n <= n_max: is some prime p == 5 (mod 6) in (n+1, 2n]?"""
    marks = bytearray(2 * n_max + 2)
    for p in Primes(max(2 * n_max, 2)).list:
        marks[p] = p % 6 == 5
    count = [0] * (2 * n_max + 2)
    for x in range(1, 2 * n_max + 1):
        count[x] = count[x - 1] + marks[x]
    return [count[2 * n] - count[min(n + 1, 2 * n)] > 0 for n in range(n_max + 1)]


def _expect_theorem1(req: Request) -> Expected:
    lo, hi = _arg(req, "--n-min"), _arg(req, "--n-max")
    covered = _five_mod_six_in_interval(hi)
    witnesses = []
    for n in range(lo, hi + 1):
        if covered[n]:
            continue
        ps = sorted(trial_factor(catalan_small(n))) if n < 200 else None
        if ps is None:
            raise ValueError(f"oracle cannot settle theorem1 at n={n}")
        if not any(p % 6 == 5 for p in ps):
            witnesses.append({"n": n, "primes": ps})
    outcome = {"holds": not witnesses, "range": [lo, hi]}
    if not witnesses:
        outcome["counterexamples"] = []
    return Expected(1 if witnesses else 0, outcome, "counterexamples", witnesses[:REPORTED_WITNESSES])


def _sigma_mod6(factors) -> int:
    r = 1
    for p, e in factors:
        # (p^(e+1) - 1) / (p - 1) mod 6, reduced modulo 6(p - 1) first
        r = r * ((pow(p, e + 1, 6 * (p - 1)) - 1) // (p - 1)) % 6
    return r


def _expect_sigma_sweep(req: Request) -> Expected:
    lo, hi = _arg(req, "--n-min"), _arg(req, "--n-max")
    covered = _five_mod_six_in_interval(hi)
    primes = Primes(max(2 * hi, 2))
    witnesses = []
    for n in range(lo, hi + 1):
        if not covered[n]:
            r = _sigma_mod6(catalan_factors(n, primes))
            if r:
                witnesses.append({"n": n, "remainder": r})
    outcome = {"holds": not witnesses, "range": [lo, hi]}
    if not witnesses:
        outcome["counterexamples"] = []
    return Expected(1 if witnesses else 0, outcome, "counterexamples", witnesses[:REPORTED_WITNESSES])


def _expect_omega(req: Request) -> Expected:
    lo, hi, step = (int(x) for x in req.argv[req.argv.index("--range") + 1].split(":"))
    primes = Primes(2 * hi)
    rows = []
    for n in range(lo, hi + 1, step):
        ps = [p for p, _ in catalan_factors(n, primes)]
        pset = set(ps)
        rows.append({
            "n": n,
            "omega": len(ps),
            "omega_6kminus1": sum(p % 6 == 5 for p in ps),
            "twin_pairs": sum(p + 2 in pset for p in ps),
            "pred_omega": 2 * n / log(n),
        })
    return Expected(0, {"rows": rows})


def _expect_digits(n: int, primes: Primes) -> Expected:
    if n < 2:
        return Expected(0, {"n": n, "digits": 1})
    logs = [e * log10(p) for p, e in catalan_factors(n, primes)]
    total = fsum(logs)
    # each log10 term is within a few ulps; the sum stays far from an integer
    # unless catalan(n) is a power of ten, which it never is for n >= 2
    slack = 1e-12 * len(logs) * max(1.0, total)
    if abs(total - round(total)) <= slack:
        raise ValueError(f"oracle cannot settle the digit count at n={n}")
    return Expected(0, {"n": n, "digits": int(total // 1) + 1})


def _expect_sigma_exact(n: int, primes: Primes) -> Expected:
    terms = [(p ** (e + 1) - 1) // (p - 1) for p, e in catalan_factors(n, primes)]
    sigma = _product_tree(terms)
    defect = ""
    if decimal_digits(sigma) > INT_STR_DIGITS:
        defect = f"sigma past the {INT_STR_DIGITS}-digit int->str limit"
    return Expected(0, {"n": n, "sigma": sigma}, defect=defect)


def expect_all(requests: list[Request]) -> list[Expected]:
    """Expected results, in request order."""
    bigint_n = [int(r.argv[1]) for r in requests if r.kind in ("digits", "factor-catalan", "sigma-mod", "sigma-exact")]
    primes = Primes(max([2, *(2 * n for n in bigint_n)]))
    out = []
    for req in requests:
        kind = req.kind
        if kind == "lemma-six":
            out.append(_holds(1, _arg(req, "--k-max")))
        elif kind == "family":
            out.append(_expect_family(req))
        elif kind == "conjecture":
            out.append(_expect_conjecture(req))
        elif kind == "theorem1":
            out.append(_expect_theorem1(req))
        elif kind == "sigma-sweep":
            out.append(_expect_sigma_sweep(req))
        elif kind == "erdos":
            out.append(_holds(1, _arg(req, "--n-max")))
        elif kind == "mersenne":
            out.append(_holds(0, _arg(req, "--n-max")))
        elif kind == "omega":
            out.append(_expect_omega(req))
        elif kind == "digits":
            out.append(_expect_digits(int(req.argv[1]), primes))
        elif kind == "factor-catalan":
            n = int(req.argv[1])
            out.append(Expected(0, {"n": n, "factors": [[p, e] for p, e in catalan_factors(n, primes)]}))
        elif kind == "sigma-mod":
            n = int(req.argv[1])
            out.append(Expected(0, {"n": n, "modulus": 6, "remainder": _sigma_mod6(catalan_factors(n, primes))}))
        elif kind == "sigma-exact":
            out.append(_expect_sigma_exact(int(req.argv[1]), primes))
        else:
            raise ValueError(f"no oracle for request kind {kind!r}")
    return out


# --- checking a report -------------------------------------------------------

def parse_report(text: str):
    """Decode a JSON report, allowing integers of any length."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(previous)


def _same(got, want) -> bool:
    if isinstance(want, int) and not isinstance(want, bool) and isinstance(got, str):
        # a huge integer may be emitted as a decimal string
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return got.isdigit() and int(got) == want
        finally:
            sys.set_int_max_str_digits(previous)
    return type(got) is type(want) and got == want


def _brief(x) -> str:
    """At most 80 characters of x for a failure reason, even where x holds
    an integer past the int->str limit."""
    try:
        return str(x)[:80]
    except ValueError:
        return f"<{type(x).__name__} past the int->str limit>"


def _check_omega(rows, want) -> str:
    if not isinstance(rows, list) or len(rows) != len(want):
        return "omega row count differs"
    for got, exp in zip(rows, want):
        if not isinstance(got, dict):
            return f"omega n={exp['n']}: row is not an object"
        for key in ("n", "omega", "omega_6kminus1", "twin_pairs"):
            if got.get(key) != exp[key]:
                return f"omega n={exp['n']}: {key} {_brief(got.get(key))} != {exp[key]}"
        pred = got.get("pred_omega")
        if not isinstance(pred, float) or abs(pred - exp["pred_omega"]) > 1e-9 * exp["pred_omega"]:
            return f"omega n={exp['n']}: pred_omega {_brief(pred)} != {exp['pred_omega']!r}"
    return ""


def check(expected: Expected, exit_code: int, stdout: str) -> Verdict:
    """Compare one request's exit code and report with the expectation."""
    if exit_code not in (0, 1) or not stdout.strip():
        why = f"exit {exit_code}, {len(stdout)} bytes of report"
        return Verdict(ERROR, f"{why}; known defect: {expected.defect}" if expected.defect else why)
    try:
        report = parse_report(stdout)
        outcome = report["outcome"]
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(ERROR, f"unreadable report: {exc}")
    if exit_code != expected.exit_code:
        return Verdict(WRONG, f"exit {exit_code}, expected {expected.exit_code}")
    if "rows" in expected.outcome:
        reason = _check_omega(outcome, expected.outcome["rows"])
        return Verdict(WRONG, reason) if reason else Verdict(OK)
    if not isinstance(outcome, dict):
        return Verdict(WRONG, "outcome is not an object")
    for key, want in expected.outcome.items():
        if not _same(outcome.get(key), want):
            return Verdict(WRONG, f"{key}: got {_brief(outcome.get(key))}, expected {_brief(want)}")
    if expected.witness_key:
        got = outcome.get(expected.witness_key)
        if not isinstance(got, list) or len(got) != len(expected.witnesses):
            return Verdict(WRONG, f"{expected.witness_key}: {len(got) if isinstance(got, list) else got!r} "
                                  f"entries, expected {len(expected.witnesses)}")
        for g, w in zip(got, expected.witnesses):
            bad = [k for k in w if not isinstance(g, dict) or not _same(g.get(k), w[k])]
            if bad:
                return Verdict(WRONG, f"{expected.witness_key} entry {_brief(w)}: field {bad[0]} differs")
    return Verdict(OK)
