"""Exact arithmetic in rings of integers modulo p^e (odd prime p, e <= 4).

Residues are stored as canonical representatives in [0, p^e); congruences
are decided by equality of canonical forms.  Division of a p-divisible
quantity by p steps down into the ring with exponent e-1, which is how
Fermat quotients q_p(a) = (a^(p-1) - 1)/p are computed without full-size
integer exponentiation: work in the companion ring mod p^(e+1), then
divide once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import kernels
from .primes import is_prime

MAX_EXPONENT = 4

#: Rationals a/b with b coprime to p stand in for the p-adic integer
#: parameters of the shifted-binomial congruences.  fractions.Fraction
#: already guarantees gcd(a, b) = 1 and b > 0.
RationalParam = Fraction


class NonInvertibleError(ValueError):
    """Attempt to invert a residue divisible by p."""


class RingMismatchError(ValueError):
    """Arithmetic between residues of different rings."""


class PrimePowerRing:
    """The ring Z / p^e Z."""

    __slots__ = ("p", "e", "modulus", "_inv_table")

    def __init__(self, p: int, e: int = 1):
        if not isinstance(e, int) or not 1 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent must be an integer in 1..{MAX_EXPONENT}, got {e!r}")
        if not isinstance(p, int) or p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.e = e
        self.modulus = p**e
        self._inv_table: list[int] | None = None

    def residue(self, value: int) -> "Residue":
        return Residue(self, value)

    def from_rational(self, q: Fraction | int) -> "Residue":
        """Map a/b with p-coprime b into the ring as a * b^-1."""
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise NonInvertibleError(
                f"denominator of {q} is divisible by p={self.p}"
            )
        return Residue(self, q.numerator * pow(q.denominator, -1, self.modulus))

    @property
    def inv_table(self) -> list[int]:
        """[0] + the inverses of 1..p-1 mod p^e; built once per ring.

        Slot 0 is 0, which the registry's sums with a 1/k factor rely on to
        drop their k = 0 term.
        """
        if self._inv_table is None:
            self._inv_table = kernels.inverse_table(self.p, self.modulus, self.p - 1)
        return self._inv_table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimePowerRing)
            and self.p == other.p
            and self.e == other.e
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"PrimePowerRing({self.p}, {self.e})"


@lru_cache(maxsize=256)
def ring_new(p: int, e: int = 1) -> PrimePowerRing:
    """Construct (and cache) the ring mod p^e, validating p prime, e in 1..4."""
    return PrimePowerRing(p, e)


class Residue:
    """An element of a PrimePowerRing; value canonical in [0, p^e)."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: PrimePowerRing, value: int):
        self.ring = ring
        self.value = value % ring.modulus

    def _other(self, other) -> "Residue | None":
        if isinstance(other, Residue):
            if other.ring != self.ring:
                raise RingMismatchError(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return Residue(self.ring, other)
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return Residue(self.ring, self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return Residue(self.ring, self.value - o.value)

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return Residue(self.ring, o.value - self.value)

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return Residue(self.ring, self.value * o.value)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(self.ring, -self.value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        return Residue(self.ring, pow(self.value, exponent, self.ring.modulus))

    def inv(self) -> "Residue":
        if self.value % self.ring.p == 0:
            raise NonInvertibleError(
                f"{self.value} is divisible by p={self.ring.p} in {self.ring}"
            )
        return Residue(self.ring, pow(self.value, -1, self.ring.modulus))

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other) -> bool:
        if isinstance(other, Residue):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.ring.modulus
        return NotImplemented

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.ring.p}^{self.ring.e})"


def inv(a: Residue) -> Residue:
    """Multiplicative inverse; requires gcd(value, p) = 1."""
    return a.inv()


def from_rational(ring: PrimePowerRing, q: Fraction | int) -> Residue:
    return ring.from_rational(q)


def exact_div_p(a: Residue) -> Residue:
    """Divide a p-divisible residue known mod p^(e+1) by p, landing mod p^e."""
    ring = a.ring
    if ring.e < 2:
        raise ValueError("exact division by p needs a ring with exponent >= 2")
    if a.value % ring.p != 0:
        raise ValueError(f"{a.value} is not divisible by p={ring.p}")
    return ring_new(ring.p, ring.e - 1).residue(a.value // ring.p)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fermat_quotient2(p: int, e: int = 1) -> Residue:
    """q_p(2) = (2^(p-1) - 1)/p as a residue mod p^e, e <= 3.

    Computed mod p^(e+1) in the companion ring, then divided down, so the
    exponentiation is O(log p) on machine-size words.
    """
    if not 1 <= e <= MAX_EXPONENT - 1:
        raise ValueError(f"exponent must be in 1..{MAX_EXPONENT - 1}, got {e}")
    companion = ring_new(p, e + 1)
    return exact_div_p(companion.residue(pow(2, p - 1, companion.modulus) - 1))
