"""Exact verification of the binomial identities the congruence proofs use.

Everything here runs on exact integers, never modularly.  Identities that
are polynomial in a free variable are checked at degree+2 consecutive
integer points (including negatives, which exercises the generalized
binomial), so each per-parameter check is equivalent to coefficientwise
equality.  The recurrences behind the modular tables are proven the same
way, from their creative-telescoping certificates (verify_recurrences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .certificates import CERTIFICATES
from .kernels.recurrences import RECURRENCES, Recurrence
from .sequences import (
    apery_exact,
    binom_exact,
    franel_exact_list,
    _fpoly_form_central,
    _fpoly_form_sq,
)


@dataclass
class IdentityOutcome:
    identity_id: str
    range_tested: dict
    passed: bool
    counterexample: dict | None = None

    @classmethod
    def ok(cls, identity_id: str, range_tested: dict) -> "IdentityOutcome":
        return cls(identity_id, range_tested, True)

    @classmethod
    def fail(cls, identity_id: str, range_tested: dict, **counterexample) -> "IdentityOutcome":
        return cls(identity_id, range_tested, False, counterexample)


def _points(count: int) -> range:
    """count consecutive integers centered at 0."""
    start = -(count // 2)
    return range(start, start + count)


def verify_eq_2_2(k_max: int) -> IdentityOutcome:
    """sum_{l=k}^{2k} (-1)^l binom(l,k) binom(k,l-k) binom(x+l,l) = binom(x+k,k)^2.

    Degree 2k in x on both sides; sampled at 2k+2 points.
    """
    rng = {"k_max": k_max}
    for k in range(k_max + 1):
        for x in _points(2 * k + 2):
            lhs = sum(
                (-1) ** l * binom_exact(l, k) * binom_exact(k, l - k) * binom_exact(x + l, l)
                for l in range(k, 2 * k + 1)
            )
            rhs = binom_exact(x + k, k) ** 2
            if lhs != rhs:
                return IdentityOutcome.fail("eq_2_2", rng, k=k, x=x, lhs=lhs, rhs=rhs)
    return IdentityOutcome.ok("eq_2_2", rng)


def verify_chu_vandermonde(k_max: int) -> IdentityOutcome:
    """sum_j binom(y,j) binom(z,k-j) = binom(y+z,k), sampled on a (k+2)^2 grid."""
    rng = {"k_max": k_max}
    for k in range(k_max + 1):
        for y in _points(k + 2):
            for z in _points(k + 2):
                lhs = sum(binom_exact(y, j) * binom_exact(z, k - j) for j in range(k + 1))
                rhs = binom_exact(y + z, k)
                if lhs != rhs:
                    return IdentityOutcome.fail(
                        "chu_vandermonde", rng, k=k, y=y, z=z, lhs=lhs, rhs=rhs
                    )
    return IdentityOutcome.ok("chu_vandermonde", rng)


def verify_andersen(m_max: int) -> IdentityOutcome:
    """m * sum_{k<=n} binom(x,k) binom(-x,m-k) = (m-n) binom(x-1,n) binom(-x,m-n).

    Stated with the rational factor (m-n)/m; both sides are multiplied by m
    to stay in integers.  Degree m in x, sampled at m+2 points.
    """
    rng = {"m_max": m_max}
    for m in range(1, m_max + 1):
        for n in range(m + 1):
            for x in _points(m + 2):
                lhs = m * sum(
                    binom_exact(x, k) * binom_exact(-x, m - k) for k in range(n + 1)
                )
                rhs = (m - n) * binom_exact(x - 1, n) * binom_exact(-x, m - n)
                if lhs != rhs:
                    return IdentityOutcome.fail(
                        "andersen", rng, m=m, n=n, x=x, lhs=lhs, rhs=rhs
                    )
    return IdentityOutcome.ok("andersen", rng)


def _weight_poly(m: int, x: int) -> int:
    """P_m(x) = 2(2x+1)(x+1)^(m-1) - x^m, the central-binomial summation weight."""
    return 2 * (2 * x + 1) * (x + 1) ** (m - 1) - x**m


def verify_lemma_2_2(
    m_max: int, n_max: int, poly: Callable[[int, int], int] | None = None
) -> IdentityOutcome:
    """sum_{k<n} P_m(k) binom(2k,k) = n^m binom(2n,n).

    ``poly`` overrides the weight polynomial; the mutation test injects a
    perturbed coefficient through it.
    """
    rng = {"m_max": m_max, "n_max": n_max}
    pm = poly or _weight_poly
    for m in range(1, m_max + 1):
        acc = 0
        for n in range(1, n_max + 1):
            acc += pm(m, n - 1) * binom_exact(2 * (n - 1), n - 1)
            rhs = n**m * binom_exact(2 * n, n)
            if acc != rhs:
                return IdentityOutcome.fail(
                    "lemma_2_2", rng, m=m, n=n, lhs=acc, rhs=rhs
                )
    return IdentityOutcome.ok("lemma_2_2", rng)


def verify_hockey_stick(l_max: int, m_max: int) -> IdentityOutcome:
    """sum_{n=0}^m binom(n,l) = binom(m+1,l+1)."""
    rng = {"l_max": l_max, "m_max": m_max}
    for l in range(l_max + 1):
        acc = 0
        for m in range(m_max + 1):
            acc += binom_exact(m, l)
            rhs = binom_exact(m + 1, l + 1)
            if acc != rhs:
                return IdentityOutcome.fail("hockey_stick", rng, l=l, m=m, lhs=acc, rhs=rhs)
    return IdentityOutcome.ok("hockey_stick", rng)


def verify_lemma_2_6_exact(k_max: int, m_max: int) -> IdentityOutcome:
    """(k+1) binom(2k,k) sum_{n=k}^{m-1} (2n+1) binom(n+k,2k)
       = m^2 binom(m-1,k) binom(m+k,k), for 0 <= k < m.

    The telescoped closed form of the weighted triangle sums, exact over
    the integers with any m >= k+1 in place of the prime.
    """
    rng = {"k_max": k_max, "m_max": m_max}
    for m in range(1, m_max + 1):
        for k in range(min(k_max, m - 1) + 1):
            lhs = (
                (k + 1)
                * binom_exact(2 * k, k)
                * sum((2 * n + 1) * binom_exact(n + k, 2 * k) for n in range(k, m))
            )
            rhs = m * m * binom_exact(m - 1, k) * binom_exact(m + k, k)
            if lhs != rhs:
                return IdentityOutcome.fail(
                    "lemma_2_6_exact", rng, k=k, m=m, lhs=lhs, rhs=rhs
                )
    return IdentityOutcome.ok("lemma_2_6_exact", rng)


def verify_strehl_and_1_3(n_max: int) -> IdentityOutcome:
    """The polynomial evaluation at 1 gives the cubed-row sums; the Apery
    numbers equal their cubed-row transform; the two polynomial forms agree
    (coefficientwise, by evaluation at n+1 points)."""
    rng = {"n_max": n_max}
    fr = franel_exact_list(n_max)
    for n in range(n_max + 1):
        for x in _points(n + 1):
            a = _fpoly_form_sq(n, x)
            b = _fpoly_form_central(n, x)
            if a != b:
                return IdentityOutcome.fail(
                    "strehl_and_transform", rng, part="forms", n=n, x=x, lhs=a, rhs=b
                )
        if _fpoly_form_sq(n, 1) != fr[n]:
            return IdentityOutcome.fail(
                "strehl_and_transform", rng, part="at_one", n=n,
                lhs=_fpoly_form_sq(n, 1), rhs=fr[n],
            )
        by_def = apery_exact(n, "definition")
        by_transform = apery_exact(n, "via_franel")
        if by_def != by_transform:
            return IdentityOutcome.fail(
                "strehl_and_transform", rng, part="apery", n=n,
                lhs=by_def, rhs=by_transform,
            )
    return IdentityOutcome.ok("strehl_and_transform", rng)


# -- the table recurrences --------------------------------------------------
#
# Every recurrence in kernels.recurrences.RECURRENCES is proven here from that
# same table, so the kernel boundary runs no recurrence that is not checked.
# A sum S(n) = sum_k F(n,k) is proven by creative telescoping (Zeilberger;
# Petkovsek, Wilf and Zeilberger, *A = B*, 1996, ch. 6-7): with the committed
# certificate Q, G(n,k) = Q(n,k,x) H'(n,k) / D(n) satisfies
#
#     sum_i a_i(n) F(n+i,k) = G(n,k+1) - G(n,k)
#
# for every k in a range that holds all nonzero F(n+i,k), and G vanishes at
# both ends of it, so summing over k gives sum_i a_i(n) S(n+i) = 0.  Divided
# by a hypergeometric base H(n,k), which is nonzero on the range for x != 0,
# the relation is the polynomial identity
#
#     c(k) sum_i a_i(n,x) A_i(n,k) = c(k) X U(n,k) Q(n,k+1,x) - V(n,k) Q(n,k,x)
#
# with F(n+i,k) = H A_i / D, H'(n,k+1) = X U H, c(k) H'(n,k) = V H and
# c(k) != 0 at integers.  It is checked on a grid of degree+2 points in n, k
# and x, which proves it coefficientwise.  For fixed n both sides of the
# recurrence are polynomials in x that agree for x != 0, hence everywhere.


class _SumShape(NamedTuple):
    """The polynomial form of one family of sums, for an order-J recurrence."""

    term: Callable[[int, int, int], int]  # F(n, k, x), exact
    factor: Callable[[int, int, int, int], int]  # c(k) A_i(n, k), as (i, J, n, k)
    up: Callable[[int, int, int, int], int]  # c(k) X U(n, k), as (J, n, k, x)
    down: Callable[[int, int], int]  # V(n, k)
    degrees: Callable[[int], tuple[int, int, int]]  # bounds in n, k, x of all three


def _binomial_power(r: int, weighted: bool = False) -> _SumShape:
    """F(n,k) = binom(n,k)^r x^k (x = 1 unless weighted), summed over 0 <= k <= n+J.

    H(n,k) = ((n+J)!/(k!(n+J-k)!))^r x^k, D(n) = ((n+1)...(n+J))^r,
    A_i = ((n+1)...(n+i) (n+i+1-k)...(n+J-k))^r, which vanishes exactly where
    binom(n+i,k) does on the range, and H'(n,k) = ((n+J)!/((k-1)!(n+J-k)!))^r x^k,
    so U = (n+J-k)^r, V = k^r and c = 1: G(n,0) = G(n,n+J+1) = 0.
    """

    def factor(i, J, n, k):
        rising = _prod(n + j for j in range(1, i + 1))
        return (rising * _prod(n + j - k for j in range(i + 1, J + 1))) ** r

    return _SumShape(
        term=lambda n, k, x: math.comb(n, k) ** r * (x**k if weighted else 1),
        factor=factor,
        up=lambda J, n, k, x: (x if weighted else 1) * (n + J - k) ** r,
        down=lambda n, k: k**r,
        degrees=lambda J: (r * J, r * J, int(weighted)),
    )


def _fpoly_factor(i, J, n, k):
    return (
        2 * (2 * k - 1)
        * _prod(n + j for j in range(1, i + 1))
        * _prod(n + j - k for j in range(i + 1, J + 1)) ** 2
        * _prod(2 * k - n - t for t in range(i))
    )


#: F(n,k) = binom(n,k)^2 binom(2k,n) x^k, summed over n/2 <= k <= n+J.
#: H(n,k) = (n+J)! (2k)! x^k / (k!^2 (n+J-k)!^2 (2k-n)!), D(n) = (n+1)...(n+J),
#: A_i = (n+1)...(n+i) ((n+i+1-k)...(n+J-k))^2 (2k-n)(2k-n-1)...(2k-n-i+1) and
#: H'(n,k) = (n+J)! (2k-2)! x^k / ((k-1)!^2 (n+J-k)!^2 (2k-2-n)!), so
#: U = (n+J-k)^2, V = k(2k-n)(2k-n-1) and c = 2(2k-1); G vanishes at the
#: lowest k of the range (2k-n is 0 or 1) and at k = n+J+1.
_FPOLY = _SumShape(
    term=lambda n, k, x: math.comb(n, k) ** 2 * math.comb(2 * k, n) * x**k,
    factor=_fpoly_factor,
    up=lambda J, n, k, x: 2 * (2 * k - 1) * x * (n + J - k) ** 2,
    down=lambda n, k: k * (2 * k - n) * (2 * k - n - 1),
    degrees=lambda J: (2 * J, 2 * J + 1, 1),
)


class _TermRatio(NamedTuple):
    """A hypergeometric term T with T(0) = 1 and T(n+1) den(n) = T(n) num(n).

    A first-order recurrence annihilates T iff a_1 num + a_0 den = 0, since
    den(n) != 0 for n >= 0.
    """

    value: Callable[[int, int], int]  # T(n) at an integer parameter x, exact
    num: Callable[[int, int], int]
    den: Callable[[int, int], int]
    degrees: tuple[int, int]  # bounds in n and x of num and den


#: binom(2n+2,n+1) / binom(2n,n) = (2n+1)(2n+2) / (n+1)^2
_CENTRAL = _TermRatio(
    value=lambda n, x: math.comb(2 * n, n),
    num=lambda n, x: (2 * n + 1) * (2 * n + 2),
    den=lambda n, x: (n + 1) ** 2,
    degrees=(2, 0),
)

#: binom(n+1+x, n+1) / binom(n+x, n) = (n+1+x) / (n+1), for any x
_SHIFT = _TermRatio(
    value=lambda n, x: binom_exact(n + x, n),
    num=lambda n, x: n + 1 + x,
    den=lambda n, x: n + 1,
    degrees=(1, 1),
)

#: What each recurrence annihilates: sums with a certificate, or terms.
_CLAIMS: dict[str, tuple] = {
    "pow2": (_binomial_power(1),),
    "central": (_CENTRAL, _binomial_power(2)),
    "franel": (_binomial_power(3),),
    "binom4": (_binomial_power(4),),
    "weighted_cubes": (_binomial_power(3, weighted=True),),
    "fpoly": (_FPOLY,),
    "shift": (_SHIFT,),
}


def _prod(factors) -> int:
    out = 1
    for f in factors:
        out *= f
    return out


def _horner(coeffs, t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _coefficient(rows, n: int, x: int) -> int:
    """A recurrence coefficient a_i(n, x) from its rows over powers of n."""
    return _horner([_horner(row, x) for row in rows], n)


def _sum_counterexample(rec: Recurrence, shape: _SumShape, cert) -> dict | None:
    if not cert:
        return {"part": "certificate", "missing": True}
    order = len(rec.coeffs) - 1
    for j, row in enumerate(rec.init):
        # S(j, x) has degree <= j in x
        for x in _points(max(len(row) - 1, j) + 2):
            want = sum(shape.term(j, k, x) for k in range(j + 1))
            if _horner(row, x) != want:
                return {"part": "init", "n": j, "x": x, "lhs": _horner(row, x), "rhs": want}
    dn, dk, dx = shape.degrees(order)
    qn = max(t[0] for t in cert)
    qk = max(t[1] for t in cert)
    qx = max(t[2] for t in cert)
    an = max(len(rows) - 1 for rows in rec.coeffs)
    ax = max(len(row) - 1 for rows in rec.coeffs for row in rows)
    for n in _points(max(an, qn) + dn + 2):
        for x in _points(max(ax, qx) + dx + 2):
            a = [_coefficient(rows, n, x) for rows in rec.coeffs]
            q = [0] * (qk + 1)
            for en, ek, ex, c in cert:
                q[ek] += c * n**en * x**ex
            for k in _points(qk + dk + 2):
                lhs = sum(a[i] * shape.factor(i, order, n, k) for i in range(order + 1))
                rhs = shape.up(order, n, k, x) * _horner(q, k + 1)
                rhs -= shape.down(n, k) * _horner(q, k)
                if lhs != rhs:
                    return {"part": "certificate", "n": n, "k": k, "x": x, "lhs": lhs, "rhs": rhs}
    return None


def _ratio_counterexample(rec: Recurrence, term: _TermRatio) -> dict | None:
    if len(rec.coeffs) != 2:
        return {"part": "order", "order": len(rec.coeffs) - 1}
    dn, dx = term.degrees
    an = max(len(rows) - 1 for rows in rec.coeffs)
    ax = max(len(row) - 1 for rows in rec.coeffs for row in rows)
    for x in _points(max(ax, dx) + 2):
        if _horner(rec.init[0], x) != term.value(0, x):
            return {"part": "init", "n": 0, "x": x, "lhs": _horner(rec.init[0], x), "rhs": term.value(0, x)}
        # the stated ratio matches the term itself
        for n in range(8):
            lhs = term.value(n + 1, x) * term.den(n, x)
            rhs = term.value(n, x) * term.num(n, x)
            if lhs != rhs:
                return {"part": "ratio", "n": n, "x": x, "lhs": lhs, "rhs": rhs}
    for n in _points(an + dn + 2):
        for x in _points(ax + dx + 2):
            a0, a1 = (_coefficient(rows, n, x) for rows in rec.coeffs)
            lhs, rhs = a1 * term.num(n, x), -a0 * term.den(n, x)
            if lhs != rhs:
                return {"part": "recurrence", "n": n, "x": x, "lhs": lhs, "rhs": rhs}
    return None


def verify_recurrence(
    name: str, recurrence: Recurrence | None = None, certificate=None
) -> IdentityOutcome:
    """Prove one entry of RECURRENCES: its initial values and every claim.

    ``recurrence`` and ``certificate`` override the committed data; the
    mutation test injects a perturbed coefficient through them.
    """
    rec = recurrence or RECURRENCES[name]
    cert = certificate or CERTIFICATES.get(name)
    identity_id = f"recurrence_{name}"
    rng = {"order": len(rec.coeffs) - 1}
    if len(rec.init) != len(rec.coeffs) - 1 or name not in _CLAIMS:
        return IdentityOutcome.fail(identity_id, rng, part="shape")
    for claim in _CLAIMS[name]:
        if isinstance(claim, _TermRatio):
            bad = _ratio_counterexample(rec, claim)
        else:
            bad = _sum_counterexample(rec, claim, cert)
        if bad is not None:
            return IdentityOutcome.fail(identity_id, rng, **bad)
    return IdentityOutcome.ok(identity_id, rng)


def verify_recurrences() -> IdentityOutcome:
    """Every recurrence the kernel boundary uses, proven from the same table."""
    rng = {"families": list(RECURRENCES)}
    for name in RECURRENCES:
        outcome = verify_recurrence(name)
        if not outcome.passed:
            return IdentityOutcome.fail("recurrences", rng, family=name, **outcome.counterexample)
    return IdentityOutcome.ok("recurrences", rng)


#: The identity suite with its standard desk-scale bounds, in run order.
IDENTITY_SUITE: list[tuple[str, Callable[[], IdentityOutcome]]] = [
    ("recurrences", lambda: verify_recurrences()),
    ("eq_2_2", lambda: verify_eq_2_2(25)),
    ("chu_vandermonde", lambda: verify_chu_vandermonde(20)),
    ("andersen", lambda: verify_andersen(20)),
    ("lemma_2_2", lambda: verify_lemma_2_2(6, 60)),
    ("hockey_stick", lambda: verify_hockey_stick(20, 40)),
    ("lemma_2_6_exact", lambda: verify_lemma_2_6_exact(20, 40)),
    ("strehl_and_transform", lambda: verify_strehl_and_1_3(40)),
]


def run_identity_suite() -> list[IdentityOutcome]:
    return [run() for _, run in IDENTITY_SUITE]
