"""Conjecture-mining operations: quadratic representations p = x^2 + 3y^2,
recovery of the odd moment constants, and 3-adic integrality scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modring import jacobi
from .primes import is_prime
from .sequences import franel_exact_list, get_context


@dataclass(frozen=True)
class QuadraticRepresentation:
    """p = x^2 + 3 y^2 with x, y > 0; exists iff p = 1 (mod 3)."""

    p: int
    x: int
    y: int

    def __post_init__(self):
        if self.x <= 0 or self.y <= 0 or self.x**2 + 3 * self.y**2 != self.p:
            raise ValueError(f"({self.x}, {self.y}) does not represent {self.p}")


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Raises ValueError if a is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return x


def cornacchia_x2_3y2(p: int) -> QuadraticRepresentation | None:
    """Solve p = x^2 + 3 y^2 for a prime p > 3.

    Returns None when p = 2 (mod 3), where no representation exists.
    Euclidean descent: start from a square root of -3 mod p and take
    remainders until one drops below sqrt(p); that remainder is x.
    """
    if p <= 3:
        raise ValueError(f"p must exceed 3, got {p}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p % 3 == 2:
        return None
    r = sqrt_mod_prime(-3, p)
    a, b = p, r
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, 3)
    if rem != 0:
        raise ArithmeticError(f"descent failed for p={p}")
    y = math.isqrt(y2)
    if y * y != y2:
        raise ArithmeticError(f"descent failed for p={p}")
    return QuadraticRepresentation(p, b, y)


class ScanInconsistencyError(RuntimeError):
    """The per-prime residues of a moment-constant scan do not agree."""

    def __init__(self, r: int, residues: dict[int, int], message: str):
        super().__init__(message)
        self.r = r
        self.residues = residues


@dataclass(frozen=True)
class MomentConstant:
    """The integer a_r with moment_r = 2 a_r / 3^(2r-1) * (p/3) mod p^2."""

    r: int
    value: int
    odd: bool
    primes_used: tuple[int, ...]


def scan_ar(r: int, primes: list[int]) -> MomentConstant:
    """Recover the conjectured odd constant behind the r-th alternating moment.

    For each admissible prime (p > max(r, 3)), solve the congruence
    a = S_r * 3^(2r-1) / 2 * (p/3) mod p^2 and lift at the largest primes to
    the symmetric range; the lifted value must be reproduced by the top
    three primes and must satisfy the congruence at every other prime in
    the list (small primes cannot themselves pin down a value larger than
    p^2/2).
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    used = sorted(p for p in primes if p > max(r, 3) and is_prime(p))
    if len(used) < 3:
        raise ValueError(f"need at least 3 admissible primes, got {len(used)}")
    residues: dict[int, int] = {}
    for p in used:
        m2 = p * p
        s = get_context(p).alternating_moment(2, r)
        residues[p] = s * pow(3, 2 * r - 1, m2) % m2 * pow(2, -1, m2) % m2 * jacobi(p, 3) % m2

    def lift(p: int) -> int:
        v = residues[p]
        return v if v <= p * p // 2 else v - p * p

    top = used[-3:]
    lifts = {p: lift(p) for p in top}
    if len(set(lifts.values())) != 1:
        raise ScanInconsistencyError(
            r, residues, f"symmetric lifts disagree at the largest primes: {lifts}"
        )
    candidate = lifts[top[-1]]
    bad = {p: residues[p] for p in used if candidate % (p * p) != residues[p]}
    if bad:
        raise ScanInconsistencyError(
            r, residues,
            f"candidate {candidate} violates the congruence at primes {sorted(bad)}",
        )
    return MomentConstant(r=r, value=candidate, odd=candidate % 2 != 0, primes_used=tuple(used))


def v3(n: int) -> int | None:
    """3-adic valuation; None stands for +infinity (n = 0)."""
    if n == 0:
        return None
    n = abs(n)
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def check_3adic_integrality(n_max: int) -> list[tuple[int, str, int]]:
    """Scan the conjectured 3-adic integrality of the partial-sum ratios.

    For S(n) = sum_{k<n} (-1)^k f_k and T(n) = sum_{k<n} (-1)^k k f_k the
    margin is v3(value) - 2 v3(n); the conjecture says it is never
    negative.  Returns the list of violations (n, which sum, margin) —
    empty means the conjecture held up to n_max.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    fr = franel_exact_list(n_max - 1)
    violations: list[tuple[int, str, int]] = []
    s = 0
    t = 0
    sign = 1
    for n in range(1, n_max + 1):
        k = n - 1
        s += sign * fr[k]
        t += sign * k * fr[k]
        sign = -sign
        vn = v3(n)
        if vn == 0:
            continue
        for tag, value in (("S", s), ("T", t)):
            vv = v3(value)
            if vv is None:
                continue
            margin = vv - 2 * vn
            if margin < 0:
                violations.append((n, tag, margin))
    return violations
