"""Registry of congruence checks and the batch runner.

Every check evaluates, at an admissible prime p, one or more (lhs, rhs)
residue pairs in the same ring; both sides are computed by independent
routes (sequence tables on the left, closed forms or separately-built
tables on the right), so equality of canonical residues is the verdict.

Most checks with one row and no parameters are statements in the
expression language of expr.py, compiled on their first evaluation by the
compiler that `franelcheck eval` runs.  The rest are hand-written, each
with the reason it is not a statement.

Check classes:
  theorem     proven statements about the cubed-row sums and their moments
  lemma       supporting statements (also proven)
  derived     intermediate congruences that the proofs pass through
  conjecture  open statements; a failure is a counterexample, not a bug

Parameterized checks (shifted-binomial parameter r, evaluation point x,
per-index k families) emit one row per parameter case.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence

from . import expr, kernels
from .mining import cornacchia_x2_3y2
from .primes import is_prime
from .report import CheckResult, Report
from .sequences import PrimeContext, get_context

log = logging.getLogger("franelcheck.suite")

#: Sample values for the shifted-binomial parameter: integers, the
#: negative-half point (which turns the shifted binomial into central
#: binomials over 4^k), and generic rationals.  Pairs (r, p) with p
#: dividing the denominator are skipped and logged.
R_SAMPLES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(-2, 3),
    Fraction(7, 5),
)

#: Evaluation points for the polynomial-argument checks; x = 1 reproduces
#: the plain cubed-row sums and doubles as a cross-check.
X_SAMPLES: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
)

# A case is (params, modulus_exponent, lhs, rhs).
Case = tuple[dict, int, int, int]


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    check_class: str
    modulus_exponent: int  # largest exponent any of the check's cases uses
    min_prime: int
    evaluate: Callable[[PrimeContext], list[Case]]
    description: str = ""
    statement: str = ""  # the check in the expression language, if it is one


REGISTRY: dict[str, CheckSpec] = {}


def _register(check_id, check_class, e, evaluate, min_prime=5, description=""):
    """Register a check; evaluate is a function or the source of a statement."""
    statement = evaluate if isinstance(evaluate, str) else ""
    evaluate = _statement(statement) if statement else evaluate
    REGISTRY[check_id] = CheckSpec(check_id, check_class, e, min_prime, evaluate, description, statement)


def _statement(text: str) -> Callable[[PrimeContext], list[Case]]:
    """evaluate of a check stated as text: one row, both sides compiled by
    expr.compile_expr on the first call (never at import)."""

    @cache
    def compiled():
        stmt = expr.parse(text)
        return stmt.modulus_exponent, expr.compile_expr(stmt.lhs), expr.compile_expr(stmt.rhs)

    def evaluate(ctx: PrimeContext) -> list[Case]:
        e, lhs, rhs = compiled()
        ring = ctx.ring(e)
        return [({}, e, lhs(ring, ctx=ctx), rhs(ring, ctx=ctx))]

    return evaluate


def _usable(r: Fraction, p: int, what: str) -> bool:
    if r.denominator % p == 0:
        log.info("skipping %s=%s at p=%d: denominator divisible by p", what, r, p)
        return False
    return True


# --- hand-written checks ------------------------------------------------------
#
# The moment checks C16, C17, K3, K4 and C25.  As statements each took
# 50-85 us per evaluation against 6-15 us here (the compiler's work per
# evaluation, not the sum), and `verify` on 5..199 with them as statements
# took 6-11% more CPU time.

def _moment_check(rpow: int, coef: Fraction):
    def evaluate(ctx: PrimeContext) -> list[Case]:
        e = 2
        lhs = ctx.alternating_moment(e, rpow)
        rhs = ctx.ring(e).from_rational(coef * ctx.jacobi3).value
        return [({}, e, lhs, rhs)]

    return evaluate


def _eval_C25(ctx: PrimeContext) -> list[Case]:
    e = 2
    lhs = 3 * ctx.alternating_moment(e, 1) + 2 * ctx.alternating_moment(e, 0)
    return [({}, e, lhs % ctx.ring(e).modulus, 0)]


# Parameterised families, one row per parameter case: T14_r, T21_rx, C26_x,
# C27_x and C112_r.

def _eval_T14(ctx: PrimeContext) -> list[Case]:
    e = 2
    m = ctx.ring(e).modulus
    fr = ctx.franel(e)
    ce = ctx.central(e)
    rows: list[Case] = []
    for r in R_SAMPLES:
        if not _usable(r, ctx.p, "r"):
            continue
        sh = ctx.shift(e, r)
        lhs = kernels.wdot(m, True, sh, fr)
        rhs = kernels.wdot(m, False, ce, sh, sh)
        rows.append(({"r": str(r)}, e, lhs, rhs))
    return rows


def _eval_T21(ctx: PrimeContext) -> list[Case]:
    e = 2
    m = ctx.ring(e).modulus
    ce = ctx.central(e)
    xs = [(str(x), ctx.fpoly(e, x), ctx.powers(e, x)) for x in X_SAMPLES if _usable(x, ctx.p, "x")]
    rows: list[Case] = []
    for r in R_SAMPLES:
        if not _usable(r, ctx.p, "r"):
            continue
        sh = ctx.shift(e, r)
        for x, fp, xp in xs:
            lhs = kernels.wdot(m, True, sh, fp)
            rhs = kernels.wdot(m, False, ce, xp, sh, sh)
            rows.append(({"r": str(r), "x": x}, e, lhs, rhs))
    return rows


def _eval_C112(ctx: PrimeContext) -> list[Case]:
    rows: list[Case] = []
    m = ctx.p
    inv = ctx.inv(1)[1:]
    for r in range(1, 7):
        if ctx.p <= max(r, 3):
            log.info("skipping r=%d at p=%d: needs p > max(r, 3)", r, ctx.p)
            continue
        # sum over k = 1..p-1 of (-1)^(kr) fr(r,k)/k^(r-1), indexed from j = k-1
        lhs = kernels.wdot(m, r % 2 == 1, ctx.genfranel(1, r)[1:], *[inv] * (r - 1))
        rows.append(({"r": r}, 1, -lhs % m if r % 2 else lhs, 0))
    return rows


def _eval_C26(ctx: PrimeContext) -> list[Case]:
    e = 2
    m = ctx.ring(e).modulus
    ce = ctx.central(e)
    w4 = ctx.powers(e, Fraction(-1, 4))
    w16 = ctx.powers(e, Fraction(1, 16))
    rows: list[Case] = []
    for x in X_SAMPLES:
        if not _usable(x, ctx.p, "x"):
            continue
        lhs = kernels.wdot(m, False, ce, ctx.fpoly(e, x), w4)
        rhs = kernels.wdot(m, False, ce, ce, ce, w16, ctx.powers(e, x))
        rows.append(({"x": str(x)}, e, lhs, rhs))
    return rows


# The inverse tables hold 0 at k = 0, so a sum over k >= 1 with a factor
# 1/k runs over the whole table.
def _eval_C27(ctx: PrimeContext) -> list[Case]:
    e = 2
    p = ctx.p
    m = ctx.ring(e).modulus
    inv = ctx.inv(e)
    half = (p + 1) // 2
    upper = inv[half:]
    rows: list[Case] = []
    for x in X_SAMPLES:
        if not _usable(x, ctx.p, "x"):
            continue
        lhs = kernels.wdot(m, True, ctx.fpoly(e, x), inv)
        rhs = p * kernels.wdot(m, False, ctx.powers(e, x)[half:], upper, upper) % m
        rows.append(({"x": str(x)}, e, lhs, rhs))
    return rows


# One row per k: L24, L26a, L26b and JV.

def _eval_L24(ctx: PrimeContext) -> list[Case]:
    e = 2
    p = ctx.p
    m = ctx.ring(e).modulus
    ce = ctx.central(e)
    rows: list[Case] = []
    for k in range(1, p):
        lhs = k * ce[k] % m * ce[p - k] % m
        rhs = 2 * p % m if 2 * k > p else -2 * p % m
        rows.append(({"k": k}, e, lhs, rhs))
    return rows


def _eval_L26a(ctx: PrimeContext) -> list[Case]:
    e = 2
    p = ctx.p
    m = ctx.ring(e).modulus
    inv = ctx.inv(e)
    rows: list[Case] = []
    b1 = 1  # binom(p-1, k)
    b2 = 1  # binom(p+k, k)
    for k in range(p):
        rhs = 1 if k % 2 == 0 else m - 1
        rows.append(({"k": k}, e, b1 * b2 % m, rhs))
        if k + 1 < p:
            b1 = b1 * ((p - 1 - k) % m) % m * inv[k + 1] % m
            b2 = b2 * ((p + k + 1) % m) % m * inv[k + 1] % m
    return rows


def _eval_L26b(ctx: PrimeContext) -> list[Case]:
    e = 4
    p = ctx.p
    m = ctx.ring(e).modulus
    inv = ctx.inv(e)
    tri = ctx.triangle_sums()
    rows: list[Case] = []
    for k in range(p - 1):
        sign = 1 if k % 2 == 0 else -1
        rhs = sign * p * p * inv[k + 1] % m
        rows.append(({"k": k}, e, tri[k], rhs))
    return rows


def _eval_JV(ctx: PrimeContext) -> list[Case]:
    p = ctx.p
    fr = ctx.franel(1)
    w8 = ctx.powers(1, Fraction(-8))
    rows: list[Case] = []
    for k in range(p):
        rows.append(({"k": k}, 1, fr[k], w8[k] * fr[p - 1 - k] % p))
    return rows


# f(k-1) does not lower to one wdot call, and the statement's term-by-term
# loop ran 75-100x slower than this at p = 101 and 199.
def _eval_C111(ctx: PrimeContext) -> list[Case]:
    e = 2
    m = ctx.ring(e).modulus
    # sum over k = 1..p-1 of (-1)^k f(k-1)/k, indexed from j = k-1
    lhs = -kernels.wdot(m, True, ctx.franel(e)[:-1], ctx.inv(e)[1:]) % m
    q = ctx.q2(e)
    rhs = (3 * q + 3 * ctx.p * q * q) % m
    return [({}, e, lhs, rhs)]


# Three rows with params; perfbench/trace_child.py also wraps
# central_double_mod_p3 by name.
def _eval_WOL(ctx: PrimeContext) -> list[Case]:
    p = ctx.p
    return [
        ({"part": "H1"}, 2, ctx.harmonic(2, 1)[p - 1], 0),
        ({"part": "H2"}, 1, ctx.harmonic(1, 2)[p - 1], 0),
        ({"part": "CB"}, 3, ctx.central_double_mod_p3(), 1),
    ]


# The language has no builtin for the weighted cube sums.
def _eval_R1a(ctx: PrimeContext) -> list[Case]:
    e = 2
    m = ctx.ring(e).modulus
    lhs = kernels.wdot(m, True, ctx.weighted_cubes(e, Fraction(-8)))
    return [({}, e, lhs, ctx.jacobi3 % m)]


# The right side needs the representation p = x^2 + 3y^2.
def _eval_S11conj(ctx: PrimeContext) -> list[Case]:
    e = 2
    p = ctx.p
    m = ctx.ring(e).modulus
    ce = ctx.central(e)
    lhs = kernels.wdot(m, False, ce, ce, ce, ctx.powers(e, Fraction(1, 16)))
    rep = cornacchia_x2_3y2(p)
    if rep is not None:
        rhs = (4 * rep.x * rep.x - 2 * p) % m
        params = {"x": rep.x, "y": rep.y}
    else:
        rhs = 0
        params = {"branch": "p=2 (mod 3)"}
    return [(params, e, lhs, rhs)]


_register("T14_r", "theorem", 2, _eval_T14,
          description="alternating shifted-binomial transform of the cubed-row sums vs central-binomial squares, mod p^2")
_register("C15", "theorem", 2, "sum(k=0..p-1, (-1)^k*f(k)) ≡ jacobi(p,3) (mod p^2)",
          description="alternating sum of cubed-row sums is the mod-3 character, mod p^2")
_register("C16", "theorem", 2, _moment_check(1, Fraction(-2, 3)),
          description="first alternating moment, mod p^2")
_register("C17", "theorem", 2, _moment_check(2, Fraction(10, 27)),
          description="second alternating moment, mod p^2")
_register("C18", "theorem", 2,
          "sum(k=0..p-1, binom(2*k,k)*f(k)/(-4)^k)"
          " ≡ sum(k=0..p-1, binom(2*k,k)*binom(2*k,k)*binom(2*k,k)/16^k) (mod p^2)",
          description="central-binomial weighted sum over (-4)^k vs cubed central binomials over 16^k")
_register("C19", "theorem", 2, "sum(k=1..p-1, (-1)^k*f(k)/k) ≡ 0 (mod p^2)",
          description="alternating sum with 1/k vanishes mod p^2")
_register("C110", "theorem", 1, "sum(k=1..p-1, (-1)^k*f(k)/k^2) ≡ 0 (mod p^1)",
          description="alternating sum with 1/k^2 vanishes mod p")
_register("C111", "theorem", 2, _eval_C111,
          description="alternating shifted sum with 1/k equals a Fermat-quotient form")
_register("C112_r", "theorem", 1, _eval_C112,
          description="r-th power generalization of the 1/k^2 vanishing, r = 1..6")
_register("K3", "theorem", 2, _moment_check(3, Fraction(-10, 81)),
          description="third alternating moment, mod p^2")
_register("K4", "theorem", 2, _moment_check(4, Fraction(-14, 243)),
          description="fourth alternating moment, mod p^2")
_register("T21_rx", "theorem", 2, _eval_T21,
          description="polynomial-argument master congruence over the (r, x) sample grid")
_register("C25", "derived", 2, _eval_C25,
          description="(3k+2)-weighted alternating sum vanishes mod p^2")
_register("C26_x", "derived", 2, _eval_C26,
          description="negative-half specialization at sample points x")
_register("C27_x", "derived", 2, _eval_C27,
          description="alternating 1/l sum of polynomial values vs upper-range tail, mod p^2")
_register("L24", "lemma", 2, _eval_L24,
          description="k binom(2k,k) binom(2(p-k),p-k) is +-2p mod p^2, all k")
_register("L25", "lemma", 3, "f(p-1) ≡ 1 + 3*p*q2() + 3*p^2*q2()^2 (mod p^3)",
          description="top cubed-row sum vs Fermat-quotient expansion mod p^3")
_register("L26a", "lemma", 2, _eval_L26a,
          description="binom(p-1,k) binom(p+k,k) alternates signs mod p^2, all k")
_register("L26b", "lemma", 4, _eval_L26b,
          description="weighted triangle sums equal p^2 (-1)^k/(k+1) mod p^4, k <= p-2")
_register("WOL", "lemma", 3, _eval_WOL,
          description="harmonic-number and central-binomial classics: H mod p^2, H2 mod p, binom(2p-1,p-1) mod p^3")
_register("LEH", "lemma", 2, "H((p-1)/2) ≡ -2*q2() + p*q2()^2 (mod p^2)",
          description="half-range harmonic number vs Fermat quotient of 2, mod p^2")
_register("ST11_anchor", "lemma", 2, "sum(k=0..p-1, binom(2*k,k)) ≡ jacobi(p,3) (mod p^2)",
          description="sum of central binomials is the mod-3 character, mod p^2")
_register("JV", "lemma", 1, _eval_JV,
          description="reflection symmetry f_k = (-8)^k f_{p-1-k} mod p, all k")
_register("R1a", "conjecture", 2, _eval_R1a,
          description="alternating (-8)-weighted cube sums give the mod-3 character, mod p^2")
_register("R1b", "conjecture", 2, "sum(k=0..p-1, f(k)/8^k) ≡ jacobi(p,3) (mod p^2)",
          description="cubed-row sums over 8^k give the mod-3 character, mod p^2")
_register("R1c", "derived", 1, "sum(k=1..p-1, f(k)/k/8^k) ≡ 3*q2() (mod p^1)",
          description="cubed-row sums over k 8^k give triple the Fermat quotient, mod p")
_register("S11conj", "conjecture", 2, _eval_S11conj,
          description="cubed central binomials over 16^k vs 4x^2-2p with p = x^2+3y^2, mod p^2")


def check_ids() -> list[str]:
    return list(REGISTRY)


# An outcome is (params, modulus_exponent, lhs, rhs, passed, error): one
# result row without its check and prime.  Pool workers send these plain
# tuples back, which pickle far faster than CheckResult objects.
Outcome = tuple[dict, int, int, int, bool, str | None]


def _outcomes(spec: CheckSpec, p: int) -> list[Outcome]:
    """Evaluate spec at p; an exception becomes one error outcome."""
    try:
        cases = spec.evaluate(get_context(p))
    except Exception as exc:
        log.info("%s raised at p=%d", spec.check_id, p, exc_info=True)
        return [({}, spec.modulus_exponent, 0, 0, False, f"{type(exc).__name__}: {exc}")]
    return [(params, e, lhs, rhs, lhs == rhs, None) for params, e, lhs, rhs in cases]


def _rows(spec: CheckSpec, p: int, outcomes: list[Outcome]) -> list[CheckResult]:
    cid, cls = spec.check_id, spec.check_class
    return [
        CheckResult(cid, cls, p, e, params, lhs, rhs, passed, error)
        for params, e, lhs, rhs, passed, error in outcomes
    ]


def run_check(check_id: str, p: int) -> list[CheckResult]:
    """Evaluate one check at one prime; one result per parameter case.

    A bad id or prime raises ValueError.  Any exception from the evaluation
    itself becomes one error row for this (check, prime), so the rest of a
    run still completes.
    """
    try:
        spec = REGISTRY[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}") from None
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p < spec.min_prime:
        raise ValueError(f"p={p} is below the smallest admissible prime {spec.min_prime} for {check_id}")
    return _rows(spec, p, _outcomes(spec, p))


def _prime_task(p: int, ids: list[str]) -> dict[str, list[Outcome]]:
    """One pool task: every admissible check of ids at p, as outcomes."""
    return {cid: _outcomes(REGISTRY[cid], p) for cid in ids if p >= REGISTRY[cid].min_prime}


def run_suite(
    ids: Iterable[str] | None = None,
    primes: Sequence[int] = (),
    workers: int = 1,
) -> Report:
    """Evaluate the selected checks at every admissible prime.

    A check id given more than once is run once.  The report is ordered
    by check id, then prime, then parameter case; the ordering (and hence
    any serialization) does not depend on the worker count.  The pool has at most one process per prime, and the
    largest primes, which cost the most, are submitted first.
    """
    selected = list(dict.fromkeys(ids)) if ids is not None else check_ids()
    for cid in selected:
        if cid not in REGISTRY:
            raise ValueError(f"unknown check id {cid!r}")
    primes = sorted(set(primes))
    if not primes:
        raise ValueError("no primes in range")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
    pool_size = min(workers, len(primes))
    per_prime: dict[int, dict[str, list[CheckResult]]] = {}
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [(p, pool.submit(_prime_task, p, selected)) for p in reversed(primes)]
            for p, future in futures:
                per_prime[p] = {
                    cid: _rows(REGISTRY[cid], p, outcomes) for cid, outcomes in future.result().items()
                }
    else:
        for p in primes:
            per_prime[p] = {cid: run_check(cid, p) for cid in selected if p >= REGISTRY[cid].min_prime}
    rows: list[CheckResult] = []
    for cid in sorted(selected):
        for p in primes:
            rows.extend(per_prime[p].get(cid, []))
    if not rows:
        raise ValueError("empty selection: no admissible (check, prime) pairs")
    return Report(rows=rows)
