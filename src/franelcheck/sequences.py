"""Generators for the sequences under test, exact and modulo prime powers.

Exact generators work on Python's arbitrary-precision integers and serve as
oracles for the modular tables, which are built by the kernel backend
(compiled when available).  A modular table is a plain list of canonical
residues indexed k = 0..len-1; SequenceTable wraps one with its ring and a
tag describing what it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .modring import PrimePowerRing, Residue, fermat_quotient2, jacobi, ring_new


def binom_exact(x: int, k: int) -> int:
    """Generalized binomial coefficient with integer upper argument.

    Equals the falling-factorial product x(x-1)...(x-k+1)/k!; for negative
    x this is (-1)^k * binom(k-x-1, k), always an integer.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if x >= 0:
        return math.comb(x, k)
    return (-1) ** k * math.comb(k - x - 1, k)


def franel_exact(n: int) -> int:
    """Sum of the cubes of row n of Pascal's triangle, by direct summation."""
    return sum(math.comb(n, k) ** 3 for k in range(n + 1))


def franel_exact_list(n_max: int) -> list[int]:
    """f_0..f_n_max exactly, via the three-term recurrence.

    (n+1)^2 f_{n+1} = (7n^2+7n+2) f_n + 8n^2 f_{n-1}; the division is exact.
    Much faster than direct summation for long prefixes.
    """
    out = [1]
    if n_max >= 1:
        out.append(2)
    for n in range(1, n_max):
        t = (7 * n * n + 7 * n + 2) * out[n] + 8 * n * n * out[n - 1]
        q, r = divmod(t, (n + 1) * (n + 1))
        if r:
            raise ArithmeticError(f"recurrence division not exact at n={n}")
        out.append(q)
    return out[: n_max + 1]


def _fpoly_form_sq(n: int, x: int) -> int:
    # sum_k binom(n,k)^2 binom(2k,n) x^k
    return sum(
        math.comb(n, k) ** 2 * math.comb(2 * k, n) * x**k
        for k in range((n + 1) // 2, n + 1)
    )


def _fpoly_form_central(n: int, x: int) -> int:
    # sum_k binom(n,k) binom(k,n-k) binom(2k,k) x^k
    return sum(
        math.comb(n, k) * math.comb(k, n - k) * math.comb(2 * k, k) * x**k
        for k in range((n + 1) // 2, n + 1)
    )


def franel_poly_exact(n: int, x: int) -> int:
    """The degree-n polynomial sum_k binom(n,k)^2 binom(2k,n) x^k at integer x.

    Both defining forms are evaluated and must agree; at x = 1 the value is
    the plain cubed-binomial row sum.
    """
    a = _fpoly_form_sq(n, x)
    b = _fpoly_form_central(n, x)
    if a != b:
        raise AssertionError(f"polynomial forms disagree at n={n}, x={x}: {a} != {b}")
    return a


def apery_exact(n: int, route: str = "definition") -> int:
    """Apery number A_n, by definition or through the cubed-row transform."""
    if route == "definition":
        return sum(
            math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1)
        )
    if route == "via_franel":
        fr = franel_exact_list(n)
        return sum(
            math.comb(n, k) * math.comb(n + k, k) * fr[k] for k in range(n + 1)
        )
    raise ValueError(f"unknown route {route!r}")


def generalized_franel(n: int, r: int) -> int:
    """Sum of r-th powers of row n of Pascal's triangle."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return sum(math.comb(n, j) ** r for j in range(n + 1))


@dataclass
class SequenceTable:
    """A per-ring vector of canonical residues for one sequence."""

    ring: PrimePowerRing
    values: list[int]
    kind: str

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def residue(self, k: int) -> Residue:
        return self.ring.residue(self.values[k])


def _check_len(ring: PrimePowerRing, length: int) -> None:
    if length > ring.p:
        raise ValueError(f"table length {length} exceeds p={ring.p}")


def franel_mod_table(ring: PrimePowerRing, length: int) -> SequenceTable:
    """f_0..f_{length-1} mod p^e via the recurrence; length <= p."""
    _check_len(ring, length)
    vals = kernels.franel_table(ring.p, ring.modulus, length)
    return SequenceTable(ring, vals, "franel")


def central_binom_table(ring: PrimePowerRing, length: int) -> SequenceTable:
    """binom(2k,k) mod p^e; entries with k > (p-1)/2 are divisible by p but
    still carry information mod p^e."""
    _check_len(ring, length)
    vals = kernels.central_binom_table(ring.p, ring.modulus, length)
    return SequenceTable(ring, vals, "central_binom")


def franel_poly_mod_table(
    ring: PrimePowerRing, x: int | Fraction | Residue, length: int
) -> SequenceTable:
    """Table of the cubed-row polynomials evaluated at x, l = 0..length-1."""
    _check_len(ring, length)
    xv = _as_residue_value(ring, x)
    vals = kernels.fpoly_table(ring.p, ring.modulus, xv, length)
    return SequenceTable(ring, vals, f"fpoly(x={x})")


def binom_shift_table(
    ring: PrimePowerRing, r: Fraction | int, length: int
) -> SequenceTable:
    """binom(k+r,k) mod p^e for a rational r with p-coprime denominator."""
    _check_len(ring, length)
    rbar = ring.from_rational(Fraction(r)).value
    vals = kernels.binom_shift_table(ring.p, ring.modulus, rbar, length)
    return SequenceTable(ring, vals, f"binom_shift(r={r})")


def genfranel_mod_table(ring: PrimePowerRing, r: int, length: int) -> SequenceTable:
    """Row sums of r-th binomial powers mod p^e.

    r = 1, 2, 3 have closed forms (2^k, central binomials, cubed-row sums)
    and reuse those tables; the general kernel handles any r.
    """
    _check_len(ring, length)
    if r == 1:
        vals = _power_list(ring, 2, length)
    elif r == 2:
        vals = kernels.central_binom_table(ring.p, ring.modulus, length)
    elif r == 3:
        vals = kernels.franel_table(ring.p, ring.modulus, length)
    else:
        vals = kernels.genfranel_table(ring.p, ring.modulus, r, length)
    return SequenceTable(ring, vals, f"genfranel(r={r})")


def harmonic_table(ring: PrimePowerRing, n_max: int, order: int = 1) -> SequenceTable:
    """Partial sums of 1/k (order 1) or 1/k^2 (order 2), n = 0..n_max < p."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not 0 <= n_max < ring.p:
        raise ValueError(f"n_max must be in 0..p-1, got {n_max}")
    m = ring.modulus
    inv = ring.inv_table
    vals = [0] * (n_max + 1)
    acc = 0
    for k in range(1, n_max + 1):
        term = inv[k] if order == 1 else inv[k] * inv[k] % m
        acc = (acc + term) % m
        vals[k] = acc
    return SequenceTable(ring, vals, f"harmonic(order={order})")


def _as_residue_value(ring: PrimePowerRing, x: int | Fraction | Residue) -> int:
    if isinstance(x, Residue):
        if x.ring != ring:
            raise ValueError(f"value belongs to {x.ring}, table wants {ring}")
        return x.value
    if isinstance(x, Fraction):
        return ring.from_rational(x).value
    return x % ring.modulus


def _power_list(ring: PrimePowerRing, base: int | Fraction, length: int) -> list[int]:
    b = _as_residue_value(ring, base)
    m = ring.modulus
    out = [1 % m] * length
    for k in range(1, length):
        out[k] = out[k - 1] * b % m
    return out


def small_binom_function(ring: PrimePowerRing):
    """binom(n, k) mod p^e for 0 <= k <= n < 2p, as a function.

    Built once in O(p): the p-free factorials u(n) = n!/p^v(n) mod p^e,
    their inverses and the valuations v(n) of n!.  Then
    binom(n, k) = p^s u(n) u(k)^-1 u(n-k)^-1 with s = v(n) - v(k) - v(n-k),
    which is 0 mod p^e when s >= e.
    """
    p, e, m = ring.p, ring.e, ring.modulus
    size = 2 * p
    unit = list(range(size))  # n with its factors p removed
    u = [1] * size
    v = [0] * size
    for n in range(1, size):
        s = 0
        while unit[n] % p == 0:
            unit[n] //= p
            s += 1
        u[n] = u[n - 1] * unit[n] % m
        v[n] = v[n - 1] + s
    u_inv = [1] * size
    u_inv[-1] = pow(u[-1], -1, m)
    for n in range(size - 1, 0, -1):
        u_inv[n - 1] = u_inv[n] * unit[n] % m
    p_pow = [p**s for s in range(e)]

    def binom(n: int, k: int) -> int:
        s = v[n] - v[k] - v[n - k]
        if s >= e:
            return 0
        return p_pow[s] * u[n] * u_inv[k] * u_inv[n - k] % m

    return binom


@lru_cache(maxsize=4096)
def _apery_cached(n: int) -> int:
    return apery_exact(n)


class PrimeContext:
    """Memoized per-prime tables shared by the congruence suite and the DSL.

    Everything is built lazily and kept for the lifetime of the context;
    tables are immutable once built, so a context is safe for concurrent
    readers.
    """

    def __init__(self, p: int):
        self.p = p
        self._cache: dict = {}

    def _get(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    def ring(self, e: int) -> PrimePowerRing:
        return ring_new(self.p, e)

    @property
    def jacobi3(self) -> int:
        """The quadratic character of p modulo 3: +1 iff p = 1 (mod 3)."""
        return jacobi(self.p, 3)

    def inv(self, e: int) -> list[int]:
        return self.ring(e).inv_table

    def franel(self, e: int) -> list[int]:
        return self._get(("franel", e), lambda: franel_mod_table(self.ring(e), self.p).values)

    def central(self, e: int) -> list[int]:
        return self._get(("central", e), lambda: central_binom_table(self.ring(e), self.p).values)

    def fpoly(self, e: int, x: int | Fraction) -> list[int]:
        xv = _as_residue_value(self.ring(e), x)
        return self._get(
            ("fpoly", e, xv),
            lambda: franel_poly_mod_table(self.ring(e), xv, self.p).values,
        )

    def shift(self, e: int, r: Fraction) -> list[int]:
        return self._get(
            ("shift", e, r), lambda: binom_shift_table(self.ring(e), r, self.p).values
        )

    def genfranel(self, e: int, r: int) -> list[int]:
        return self._get(
            ("genfranel", e, r),
            lambda: genfranel_mod_table(self.ring(e), r, self.p).values,
        )

    def weighted_cubes(self, e: int, w: int | Fraction) -> list[int]:
        ring = self.ring(e)
        wv = _as_residue_value(ring, w)
        return self._get(
            ("wcube", e, wv),
            lambda: kernels.weighted_cube_table(self.p, ring.modulus, wv, self.p),
        )

    def harmonic(self, e: int, order: int) -> list[int]:
        return self._get(
            ("harmonic", e, order),
            lambda: harmonic_table(self.ring(e), self.p - 1, order).values,
        )

    def powers(self, e: int, base: int | Fraction) -> list[int]:
        ring = self.ring(e)
        bv = _as_residue_value(ring, base)
        return self._get(("pow", e, bv), lambda: _power_list(ring, bv, self.p))

    def small_binom(self, e: int):
        """binom(n, k) mod p^e for 0 <= k <= n < 2p (see small_binom_function)."""
        return self._get(("small_binom", e), lambda: small_binom_function(self.ring(e)))

    def q2(self, e: int) -> int:
        """Fermat quotient of 2 as a canonical value mod p^e."""
        return self._get(("q2", e), lambda: fermat_quotient2(self.p, e).value)

    def triangle_sums(self) -> list[int]:
        """Mod p^4 left sides of the weighted triangle identity, k = 0..p-2."""
        return self._get(
            ("triangle",), lambda: kernels.triangle_weighted_sums(self.p, self.p**4)
        )

    def central_double_mod_p3(self) -> int:
        """binom(2p-1, p-1) mod p^3, as the running product of (p+j)/j."""

        def build():
            m = self.p**3
            inv = self.ring(3).inv_table
            acc = 1
            for j in range(1, self.p):
                acc = acc * ((self.p + j) % m) % m * inv[j] % m
            return acc

        return self._get(("central_double",), build)


@lru_cache(maxsize=32)
def get_context(p: int) -> PrimeContext:
    return PrimeContext(p)
