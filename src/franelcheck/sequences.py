"""Generators for the sequences under test, exact and modulo prime powers.

Exact generators work on Python's arbitrary-precision integers and serve as
oracles for the modular tables.  Those are built and memoized per prime by
PrimeContext, through the kernel backend (compiled when available); a
modular table is a plain list of canonical residues indexed k = 0..p-1.
"""

from __future__ import annotations

import math
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


def _as_residue_value(ring: PrimePowerRing, x: int | Fraction | Residue) -> int:
    if isinstance(x, Residue):
        if x.ring != ring:
            raise ValueError(f"value belongs to {x.ring}, table wants {ring}")
        return x.value
    if isinstance(x, Fraction):
        return ring.from_rational(x).value
    return x % ring.modulus


def _param_key(ring: PrimePowerRing, x: int | Fraction | Residue):
    """x as a table's cache key, so that a hit converts nothing: an integer
    (or integral Fraction) or Residue by its residue, any other Fraction by
    (numerator, denominator), which hashes faster than the Fraction."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return x.numerator, x.denominator
        x = x.numerator
    return _as_residue_value(ring, x)


@lru_cache(maxsize=4096)
def _apery_cached(n: int) -> int:
    return apery_exact(n)


class PrimeContext:
    """Memoized per-prime tables shared by the congruence suite, the DSL and
    the mining scans.

    Every modular table is built here, inside _get, with one call to the
    kernel boundary (or one O(p) loop); each is a list indexed k = 0..p-1.

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
        """f_k = sum_j binom(k,j)^3 mod p^e, k = 0..p-1, by the recurrence."""
        return self._get(
            ("franel", e), lambda: kernels.franel_table(self.p, self.ring(e).modulus, self.p)
        )

    def central(self, e: int) -> list[int]:
        """binom(2k,k) mod p^e; entries with k > (p-1)/2 are divisible by p but
        still carry information mod p^e."""
        return self._get(
            ("central", e),
            lambda: kernels.central_binom_table(self.p, self.ring(e).modulus, self.p),
        )

    def fpoly(self, e: int, x: int | Fraction) -> list[int]:
        """The cubed-row polynomials f_l(x) = sum_k binom(l,k)^2 binom(2k,l) x^k."""
        ring = self.ring(e)
        return self._get(
            ("fpoly", e, _param_key(ring, x)),
            lambda: kernels.fpoly_table(self.p, ring.modulus, _as_residue_value(ring, x), self.p),
        )

    def shift(self, e: int, r: Fraction) -> list[int]:
        """binom(k+r,k) mod p^e for a rational r with p-coprime denominator."""
        ring = self.ring(e)

        def build():
            rbar = ring.from_rational(r).value
            return kernels.binom_shift_table(self.p, ring.modulus, rbar, self.p)

        return self._get(("shift", e, _param_key(ring, r)), build)

    def genfranel(self, e: int, r: int) -> list[int]:
        """Row sums of r-th binomial powers mod p^e.

        r = 1, 2, 3 are 2^k, the central binomials and the cubed-row sums,
        and return those tables.  The kernel boundary builds r = 4 by its
        recurrence in O(p) and r >= 5 by direct O(p^2) row sums.
        """
        if r == 1:
            return self.powers(e, 2)
        if r == 2:
            return self.central(e)
        if r == 3:
            return self.franel(e)
        return self._get(
            ("genfranel", e, r),
            lambda: kernels.genfranel_table(self.p, self.ring(e).modulus, r, self.p),
        )

    def weighted_cubes(self, e: int, w: int | Fraction) -> list[int]:
        ring = self.ring(e)
        return self._get(
            ("wcube", e, _param_key(ring, w)),
            lambda: kernels.weighted_cube_table(self.p, ring.modulus, _as_residue_value(ring, w), self.p),
        )

    def harmonic(self, e: int, order: int) -> list[int]:
        """Partial sums of 1/k (order 1) or 1/k^2 (order 2), n = 0..p-1."""
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")

        def build():
            ring = self.ring(e)
            m = ring.modulus
            inv = ring.inv_table
            vals = [0] * self.p
            acc = 0
            for k in range(1, self.p):
                term = inv[k] if order == 1 else inv[k] * inv[k] % m
                acc = (acc + term) % m
                vals[k] = acc
            return vals

        return self._get(("harmonic", e, order), build)

    def powers(self, e: int, base: int | Fraction) -> list[int]:
        ring = self.ring(e)

        def build():
            m = ring.modulus
            b = _as_residue_value(ring, base)
            out = [1 % m] * self.p
            for k in range(1, self.p):
                out[k] = out[k - 1] * b % m
            return out

        return self._get(("pow", e, _param_key(ring, base)), build)

    def alternating_moment(self, e: int, r: int) -> int:
        """sum_k (-1)^k k^r f_k over k = 0..p-1, mod p^e (0^0 = 1)."""

        def build():
            m = self.ring(e).modulus
            return kernels.wdot(m, True, [pow(k, r, m) for k in range(self.p)], self.franel(e))

        return self._get(("moment", e, r), build)

    def small_binom(self, e: int):
        """binom(n, k) mod p^e for 0 <= k <= n < 2p, as a function.

        Built once in O(p): the p-free factorials u(n) = n!/p^v(n) mod p^e,
        their inverses and the valuations v(n) of n!.  Then
        binom(n, k) = p^s u(n) u(k)^-1 u(n-k)^-1 with s = v(n) - v(k) - v(n-k),
        which is 0 mod p^e when s >= e.
        """

        def build():
            p, m = self.p, self.ring(e).modulus
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

        return self._get(("small_binom", e), build)

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
