"""The integer recurrences behind every P-recursive table.

Each entry is an order-J linear recurrence with polynomial coefficients,

    a_0(n) u(n) + a_1(n) u(n+1) + ... + a_J(n) u(n+J) = 0,

plus the initial values u(0..J-1).  ``coeffs[i][d][e]`` is the coefficient
of n^d x^e in a_i, and ``init[j][e]`` that of x^e in u(j), where x is the
family's parameter (unused by families without one).  The kernel boundary
evaluates an entry at x mod m and runs it through ``precursive_table``; the
identity suite (``franelcheck.identities.verify_recurrences``) proves every
entry from this same table.

Every leading coefficient a_J(n) is a unit mod p^e for n + J <= p - 1
(and p >= 5 where it carries a constant 2 or 3), so a table of length p
never divides by p.  The order-4 recurrences of ``weighted_cubes`` and
``fpoly`` are left multiples of the minimal order-3 ones, chosen so that
their leading coefficients carry no x: the minimal ones lead with (n+3)^2
times a factor linear in n and x, which vanishes mod p at about one index
for nearly every prime.
"""

from __future__ import annotations

from typing import NamedTuple


class Recurrence(NamedTuple):
    coeffs: tuple[tuple[tuple[int, ...], ...], ...]
    init: tuple[tuple[int, ...], ...]


RECURRENCES: dict[str, Recurrence] = {
    # sum_k binom(n,k) = 2^n:  u(n+1) = 2 u(n)
    "pow2": Recurrence(
        coeffs=(((-2,),), ((1,),)),
        init=((1,),),
    ),
    # binom(2n,n) = sum_k binom(n,k)^2:  (n+1) u(n+1) = 2(2n+1) u(n)
    "central": Recurrence(
        coeffs=(((-2,), (-4,)), ((1,), (1,))),
        init=((1,),),
    ),
    # sum_k binom(n,k)^3:  (n+2)^2 u(n+2) = (7n^2+21n+16) u(n+1) + 8(n+1)^2 u(n)
    "franel": Recurrence(
        coeffs=(
            ((-8,), (-16,), (-8,)),
            ((-16,), (-21,), (-7,)),
            ((4,), (4,), (1,)),
        ),
        init=((1,), (2,)),
    ),
    # sum_k binom(n,k)^4:
    # (n+2)^3 u(n+2) = 2(2n+3)(3n^2+9n+7) u(n+1) + 4(n+1)(4n+3)(4n+5) u(n)
    "binom4": Recurrence(
        coeffs=(
            ((-60,), (-188,), (-192,), (-64,)),
            ((-42,), (-82,), (-54,), (-12,)),
            ((8,), (12,), (6,), (1,)),
        ),
        init=((1,), (2,)),
    ),
    # sum_k binom(n,k)^3 x^k, leading coefficient 2(n+4)^2
    "weighted_cubes": Recurrence(
        coeffs=(
            ((-1, -4, -6, -4, -1), (-2, -8, -12, -8, -2), (-1, -4, -6, -4, -1)),
            ((-5, -75, -75, -5), (-1, -84, -84, -1), (1, -24, -24, 1)),
            ((42, -396, 42), (24, -276, 24), (3, -48, 3)),
            ((-68, -68), (-37, -37), (-5, -5)),
            ((32,), (16,), (2,)),
        ),
        init=((1,), (1, 1), (1, 8, 1), (1, 27, 27, 1)),
    ),
    # f_n(x) = sum_k binom(n,k)^2 binom(2k,n) x^k, leading coefficient 3(n+4)^2
    "fpoly": Recurrence(
        coeffs=(
            ((0, -64, 128, -64), (0, -128, 256, -128), (0, -64, 128, -64)),
            ((0, -496, 640, -144), (0, -528, 720, -192), (0, -144, 208, -64)),
            ((16, -780, 548), (16, -576, 416), (4, -108, 80)),
            ((60, -318), (41, -188), (7, -28)),
            ((48,), (24,), (3,)),
        ),
        init=((1,), (0, 2), (0, 4, 6), (0, 0, 36, 20)),
    ),
    # binom(n+x, n):  (n+1) u(n+1) = (n+1+x) u(n)
    "shift": Recurrence(
        coeffs=(((-1, -1), (-1,)), ((1,), (1,))),
        init=((1,),),
    ),
}
