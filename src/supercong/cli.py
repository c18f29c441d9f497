"""Command-line front end: family sweeps, identity runs, curve queries and
two-square decompositions, with JSON/CSV reports.

Exit codes: 0 all checks passed (skips allowed), 1 counterexample found,
2 usage/config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .congruences.engine import DEFAULT_SWEEP_CAP, run_suite
from .congruences.families import family_ids
from .congruences.identities import identity_ids, run_identities
from .congruences.report import write_csv, write_json
from .curves import (
    char_sum_a,
    cornacchia_two_squares,
    count_points,
    thm11_rhs,
    weighted_char_sum,
    weighted_point_count,
)
from .errors import SupercongError
from .padic import MR_EXACT_BOUND, is_prime, primes_between

DEFAULT_PRIME_CAP = 2000
MAX_IDENTITY_N = 500


class ConfigError(Exception):
    """Bad flags or ranges; maps to exit code 2."""


def _prime_cap() -> int:
    raw = os.environ.get("SUPERCONG_MAX_PRIME")
    if raw is None:
        return DEFAULT_PRIME_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"SUPERCONG_MAX_PRIME must be an integer, got {raw!r}")
    if cap >= MR_EXACT_BOUND:
        raise ConfigError(f"SUPERCONG_MAX_PRIME must lie below {MR_EXACT_BOUND}, the bound of the exact primality test")
    return cap


def _check_cap(p: int) -> None:
    cap = _prime_cap()
    if p > cap:
        raise ConfigError(f"{p} exceeds the cap {cap} (set SUPERCONG_MAX_PRIME to raise)")


def _parse_primes(spec: str) -> list[int]:
    if ".." in spec:
        cap = _prime_cap()
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"bad prime range {spec!r}; expected lo..hi")
        if lo < 5:
            raise ConfigError(f"prime range must start at 5 or above, got {lo}")
        if hi > cap:
            raise ConfigError(f"prime range exceeds the cap {cap} (set SUPERCONG_MAX_PRIME to raise)")
        if lo > hi:
            raise ConfigError(f"empty prime range {spec!r}")
        return primes_between(lo, hi)
    try:
        p = int(spec)
    except ValueError:
        raise ConfigError(f"bad prime spec {spec!r}; expected a prime or lo..hi")
    if p < 5:
        raise ConfigError(f"primes below 5 are out of scope, got {p}")
    _check_cap(p)
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    return [p]


def _parse_ids(spec: str, known: list[str], what: str) -> list[str]:
    if spec == "all":
        return list(known)
    ids = [s.strip() for s in spec.split(",") if s.strip()]
    if not ids:
        raise ConfigError(f"no {what} selected")
    for ident in ids:
        if ident not in known:
            raise ConfigError(f"unknown {what} {ident!r}; known: {', '.join(known)}")
    return ids


def _require_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ConfigError(f"{p} is not a prime >= 5")


def _cmd_verify(args: argparse.Namespace) -> int:
    primes = _parse_primes(args.primes)
    families = _parse_ids(args.families, family_ids(), "family")
    if args.parallelism < 1:
        raise ConfigError("--parallelism must be at least 1")
    if args.time_limit is not None and not args.time_limit >= 0:  # also rejects nan
        raise ConfigError(f"--time-limit must be a number of seconds >= 0, got {args.time_limit}")
    report = run_suite(
        primes,
        families,
        parallelism=args.parallelism,
        fail_fast=args.fail_fast,
        time_limit=args.time_limit,
        sweep_cap=args.sweep_cap,
    )
    tally = {fid: [0, 0, 0] for fid in families}  # rows, failures, skips
    for block in report.blocks:
        counts = tally[block.family]
        counts[0] += len(block)
        counts[1] += block.counts[1]
        counts[2] += block.counts[2]
    for fid in families:
        rows, fails, skips = tally[fid]
        if not rows:
            print(f"{fid:>6s}  not applicable in this range")
            continue
        verdict = "FAIL" if fails else "pass"
        extra = f" skipped={skips}" if skips else ""
        print(f"{fid:>6s}  {verdict}  cases={rows} failures={fails}{extra}")
    for row in report.failures(limit=20):
        print(
            f"  counterexample {row.family} p={row.p} {row.params}: "
            f"{row.lhs} != {row.rhs} (mod {row.modulus})"
        )
    passed, failed, skipped = report.counts()
    print(
        f"checked {passed + failed + skipped} cases over {len(primes)} primes: "
        f"{passed} pass, {failed} fail, {skipped} skipped "
        f"({report.elapsed:.1f}s)"
    )
    if args.out:
        if args.format == "json":
            write_json(report, args.out)
        else:
            write_csv(report, args.out)
        print(f"report written to {args.out}")
    return 0 if failed == 0 else 1


def _cmd_identity(args: argparse.Namespace) -> int:
    ids = _parse_ids(args.ids, identity_ids(), "identity")
    if not 0 <= args.max_n <= MAX_IDENTITY_N:
        raise ConfigError(f"--max-n must lie in [0, {MAX_IDENTITY_N}]")
    results = run_identities(ids, args.max_n)
    failed = False
    for res in results:
        if res.vacuous:
            print(f"{res.id:>4s}  pass (vacuous: empty domain at max-n {args.max_n})")
            continue
        verdict = "FAIL" if res.failed else "pass"
        failed = failed or bool(res.failed)
        print(f"{res.id:>4s}  {verdict}  cases={res.checked} failures={res.failed} ({res.elapsed:.2f}s)")
        for case in res.failures:
            where = ", ".join(f"{k}={v}" for k, v in case.params.items())
            modnote = f" (mod {case.modulus})" if case.modulus else ""
            print(f"      witness {where}: lhs={case.lhs} rhs={case.rhs}{modnote}")
    return 1 if failed else 0


def _cmd_curve(args: argparse.Namespace) -> int:
    _check_cap(args.p)  # before any O(p) table or loop
    _require_prime(args.p)
    p, lam = args.p, args.lam
    count = count_points(p, lam)
    trace = char_sum_a(p, lam)
    singular = lam % p in (0, 1)
    tag = "  [singular: lam == 0 or 1 mod p]" if singular else ""
    print(f"p={p} lambda={lam}: count={count} a={trace}{tag}")
    if args.d is not None:
        d = args.d
        if not 0 <= d <= (p - 1) // 2:
            raise ConfigError(f"--d must lie in [0, {(p - 1) // 2}] for p={p}")
        wsum = weighted_char_sum(p, lam, d)
        closed = thm11_rhs(p, lam, d)
        ok = wsum % p == closed
        print(f"  a^({d})={wsum}  closed-form residue={closed} (mod {p})  match={ok}")
        if d >= 1:
            wcount = weighted_point_count(p, lam, d)
            consistent = wcount % p == (1 + wsum) % p
            print(f"  weighted count={wcount}  == 1 + a^({d}) mod p: {consistent}")
        if not ok:
            return 1
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.p >= MR_EXACT_BOUND:
        raise ConfigError(f"--p must lie below {MR_EXACT_BOUND}, the bound of the exact primality test")
    _require_prime(args.p)
    if args.p % 4 == 3:
        print(f"p={args.p} == 3 (mod 4): no representation as x^2 + y^2")
        return 0
    two = cornacchia_two_squares(args.p)
    print(f"p={args.p} = ({two.x})^2 + ({two.y})^2  [x == 1 mod 4, y even]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Numerically certify the congruence catalog, identity suite and curve sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep congruence families over a prime range")
    p_verify.add_argument("--primes", default="5..300", help="prime range lo..hi or a single prime")
    p_verify.add_argument("--families", default="all", help="comma-separated family ids, or 'all'")
    p_verify.add_argument("--out", help="write a report to this path")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="processes, this one included; the others are forked helpers, on Linux only",
    )
    p_verify.add_argument("--fail-fast", action="store_true", help="stop at the first failure")
    p_verify.add_argument(
        "--sweep-cap",
        type=int,
        default=DEFAULT_SWEEP_CAP,
        help="largest prime at which per-lambda grid families run",
    )
    p_verify.add_argument("--time-limit", type=float, default=None, help="soft budget in seconds")
    p_verify.set_defaults(func=_cmd_verify)

    p_ident = sub.add_parser("identity", help="check exact identities and recurrences")
    p_ident.add_argument("--ids", default="all", help="comma-separated identity ids, or 'all'")
    p_ident.add_argument("--max-n", type=int, required=True, help="upper bound for the primary index")
    p_ident.set_defaults(func=_cmd_identity)

    p_curve = sub.add_parser("curve", help="point counts and weighted trace sums for one curve")
    p_curve.add_argument("--p", type=int, required=True, help="odd prime >= 5")
    p_curve.add_argument("--lambda", dest="lam", type=int, required=True, help="curve parameter")
    p_curve.add_argument("--d", type=int, default=None, help="weight exponent")
    p_curve.set_defaults(func=_cmd_curve)

    p_dec = sub.add_parser("decompose", help="write p == 1 (mod 4) as x^2 + y^2")
    p_dec.add_argument("--p", type=int, required=True, help="odd prime >= 5")
    p_dec.set_defaults(func=_cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SupercongError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
