"""Command-line front end.

Subcommands: compute (sequence prefixes), verify (the built-in congruence
suite), eval (DSL statements), identities (exact identity suite), scan-ar
(moment-constant recovery), check-3adic (integrality scan), cornacchia
(quadratic representations).  Exit codes: 0 all good, 1 check failure or
evaluation error, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import expr as expr_mod
from . import identities, kernels, mining, report, suite
from .modring import NonInvertibleError, ring_new
from .primes import primes_in_range
from .sequences import (
    apery_exact,
    franel_exact_list,
    franel_poly_exact,
    generalized_franel,
)


def _parse_prime_range(text: str) -> list[int]:
    lo_hi = text.split("..")
    if len(lo_hi) != 2:
        raise ValueError(f"prime range must look like 'lo..hi', got {text!r}")
    try:
        lo, hi = int(lo_hi[0]), int(lo_hi[1])
    except ValueError:
        raise ValueError(f"prime range bounds must be integers, got {text!r}") from None
    primes = primes_in_range(lo, hi)
    if not primes:
        raise ValueError(f"no primes in range {lo}..{hi}")
    return primes


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_compute(args) -> int:
    n = args.n
    if n < 0:
        raise ValueError("--n must be >= 0")
    if args.seq == "franel":
        values = franel_exact_list(n)
    elif args.seq == "apery":
        values = [apery_exact(i) for i in range(n + 1)]
    elif args.seq == "fpoly":
        if args.x is None:
            raise ValueError("--seq fpoly needs --x")
        x = Fraction(args.x)
        if x.denominator != 1:
            raise ValueError("--seq fpoly needs an integer --x")
        values = [franel_poly_exact(i, int(x)) for i in range(n + 1)]
    elif args.seq == "genfranel":
        if args.r is None:
            raise ValueError("--seq genfranel needs --r")
        r = Fraction(args.r)
        if r.denominator != 1 or r < 1:
            raise ValueError("--seq genfranel needs a positive integer --r")
        values = [generalized_franel(i, int(r)) for i in range(n + 1)]
    else:
        raise ValueError(f"unknown sequence {args.seq!r}")
    if args.format == "json":
        _write(json.dumps({"seq": args.seq, "values": [str(v) for v in values]}, indent=2) + "\n", args.out)
    elif args.format == "csv":
        lines = ["n,value"] + [f"{i},{v}" for i, v in enumerate(values)]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(" ".join(str(v) for v in values) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    primes = _parse_prime_range(args.primes)
    ids = args.id.split(",") if args.id else None
    rep = suite.run_suite(ids=ids, primes=primes, workers=args.workers)
    _write(report.render(rep, args.format), args.out)
    return rep.exit_code(strict_conjectures=args.strict_conjectures)


def _cmd_eval(args) -> int:
    primes = _parse_prime_range(args.primes)
    stmt = expr_mod.parse(args.expression)
    if isinstance(stmt, expr_mod.CongruenceStmt):
        rep = expr_mod.eval_congruence(stmt, primes)
        _write(report.render(rep, args.format), args.out)
        return rep.exit_code(strict_conjectures=args.strict_conjectures)
    # bare expression: evaluate per prime in the ring mod p^e
    rows = []
    had_error = False
    for p in primes:
        ring = ring_new(p, args.mod_exp)
        try:
            value = expr_mod.eval_expr(stmt, ring)
            rows.append({"prime": p, "value": str(value.value)})
        except (expr_mod.EvalError, NonInvertibleError) as exc:
            rows.append({"prime": p, "error": str(exc)})
            had_error = True
    if args.format == "json":
        _write(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["prime", "value", "error"])
        for r in rows:
            writer.writerow([r["prime"], r.get("value", ""), r.get("error", "")])
        _write(buf.getvalue(), args.out)
    else:
        lines = [
            f"p={r['prime']}: {r.get('value', 'ERROR: ' + r.get('error', ''))}" for r in rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    return 1 if had_error else 0


def _cmd_identities(args) -> int:
    outcomes = identities.run_identity_suite()
    if args.format == "json":
        payload = [
            {
                "identity_id": o.identity_id,
                "range_tested": o.range_tested,
                "pass": o.passed,
                "counterexample": o.counterexample,
            }
            for o in outcomes
        ]
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for o in outcomes:
            status = "PASS" if o.passed else "FAIL"
            line = f"{status} {o.identity_id} {o.range_tested}"
            if o.counterexample:
                line += f" counterexample={o.counterexample}"
            lines.append(line)
        _write("\n".join(lines) + "\n", args.out)
    return 0 if all(o.passed for o in outcomes) else 1


def _cmd_scan_ar(args) -> int:
    primes = _parse_prime_range(args.primes)
    r = Fraction(args.r)
    if r.denominator != 1 or r < 1:
        raise ValueError("--r must be a positive integer")
    try:
        result = mining.scan_ar(int(r), primes)
    except mining.ScanInconsistencyError as exc:
        _write(f"INCONSISTENT: {exc}\n", args.out)
        return 1
    if args.format == "json":
        payload = {
            "r": result.r,
            "value": result.value,
            "odd": result.odd,
            "primes_used": list(result.primes_used),
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        parity = "odd" if result.odd else "EVEN (conjecture predicts odd!)"
        _write(
            f"a_{result.r} = {result.value} ({parity}), "
            f"consistent over {len(result.primes_used)} primes up to {result.primes_used[-1]}\n",
            args.out,
        )
    return 0


def _cmd_check_3adic(args) -> int:
    violations = mining.check_3adic_integrality(args.n)
    if args.format == "json":
        payload = [{"n": n, "sum": tag, "margin": margin} for n, tag, margin in violations]
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif violations:
        lines = [
            f"CONJECTURE COUNTEREXAMPLE: n={n} sum={tag} margin={margin}"
            for n, tag, margin in violations
        ]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(f"no violations up to n={args.n}\n", args.out)
    if violations and args.strict_conjectures:
        return 1
    return 0


def _cmd_cornacchia(args) -> int:
    primes = _parse_prime_range(args.primes)
    rows = []
    for p in primes:
        rep = mining.cornacchia_x2_3y2(p)
        if rep is None:
            rows.append({"prime": p, "x": None, "y": None})
        else:
            rows.append({"prime": p, "x": rep.x, "y": rep.y})
    if args.format == "json":
        _write(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        lines = ["prime,x,y"] + [
            f"{r['prime']},{r['x'] if r['x'] is not None else ''},{r['y'] if r['y'] is not None else ''}"
            for r in rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"{r['prime']} = {r['x']}^2 + 3*{r['y']}^2"
            if r["x"] is not None
            else f"{r['prime']}: no representation (p = 2 mod 3)"
            for r in rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _add_common(p: argparse.ArgumentParser, *, primes: bool = False) -> None:
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")
    if primes:
        p.add_argument("--primes", required=True, help="inclusive range lo..hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="franelcheck",
        description="Compute cubed-binomial row sums and verify their congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print a sequence prefix exactly")
    p.add_argument("--seq", required=True, choices=["franel", "apery", "fpoly", "genfranel"])
    p.add_argument("--n", required=True, type=int, help="largest index (inclusive)")
    p.add_argument("--x", help="evaluation point for fpoly")
    p.add_argument("--r", help="power for genfranel")
    _add_common(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run the built-in congruence suite")
    p.add_argument("--id", help="comma-separated check ids (default: all)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strict-conjectures", action="store_true",
                   help="conjecture counterexamples also fail the exit code")
    _add_common(p, primes=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate a DSL statement over primes")
    p.add_argument("expression")
    p.add_argument("--mod-exp", type=int, default=1, choices=[1, 2, 3, 4],
                   help="ring exponent for bare (non-congruence) expressions")
    p.add_argument("--strict-conjectures", action="store_true")
    _add_common(p, primes=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("identities", help="run the exact identity suite")
    _add_common(p)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("scan-ar", help="recover the odd constant behind a moment")
    p.add_argument("--r", required=True, help="moment order (positive integer)")
    _add_common(p, primes=True)
    p.set_defaults(func=_cmd_scan_ar)

    p = sub.add_parser("check-3adic", help="scan the 3-adic integrality conjecture")
    p.add_argument("--n", required=True, type=int, help="scan 1..n")
    p.add_argument("--strict-conjectures", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_check_3adic)

    p = sub.add_parser("cornacchia", help="represent primes as x^2 + 3y^2")
    _add_common(p, primes=True)
    p.set_defaults(func=_cmd_cornacchia)

    return parser


def _warn_if_native_missing() -> None:
    """One stderr line, never part of a report, when the tables fall back to pure Python."""
    if kernels._native is None and not kernels._FORCE_PURE:
        print(
            "franelcheck: warning: compiled kernels are not built, so every table runs on the "
            "slower pure-Python backend (build them with `python3 setup.py build_ext --inplace`)",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be >= 1")
    _warn_if_native_missing()
    try:
        return args.func(args)
    except (ValueError, expr_mod.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
