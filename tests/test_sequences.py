import math
from fractions import Fraction

import pytest

from franelcheck.modring import ring_new
from franelcheck.primes import primes_in_range
from franelcheck.sequences import (
    apery_exact,
    binom_exact,
    binom_shift_table,
    central_binom_table,
    franel_exact,
    franel_exact_list,
    franel_mod_table,
    franel_poly_exact,
    franel_poly_mod_table,
    generalized_franel,
    genfranel_mod_table,
    get_context,
)


def test_franel_exact_values():
    assert franel_exact(0) == 1
    assert franel_exact(2) == 10
    assert franel_exact(4) == 346
    assert franel_exact_list(6) == [1, 2, 10, 56, 346, 2252, 15184]


def test_franel_list_matches_direct_summation():
    lst = franel_exact_list(100)
    for n in (0, 1, 17, 50, 100):
        assert lst[n] == franel_exact(n)


def test_franel_mod_table_examples():
    assert franel_mod_table(ring_new(5, 2), 5).values == [1, 2, 10, 6, 21]
    assert franel_mod_table(ring_new(5, 3), 5).values[-1] == 96
    assert franel_mod_table(ring_new(11, 1), 1).values == [1]
    with pytest.raises(ValueError):
        franel_mod_table(ring_new(5, 2), 6)


def test_franel_mod_table_against_exact():
    # entrywise oracle equivalence on a spot grid (full grid in acceptance)
    for p in (5, 13, 41):
        exact = franel_exact_list(p - 1)
        for e in (1, 2, 3):
            m = p**e
            assert franel_mod_table(ring_new(p, e), p).values == [v % m for v in exact]


def test_franel_poly_exact_examples():
    assert all(franel_poly_exact(0, x) == 1 for x in range(-3, 4))
    assert franel_poly_exact(2, 2) == 32
    for n in range(51):
        assert franel_poly_exact(n, 1) == franel_exact(n)


def test_franel_poly_forms_agree_exact():
    for n in range(41):
        for x in range(-3, 4):
            franel_poly_exact(n, x)  # raises if the two forms disagree


def test_franel_poly_mod_table_examples():
    r72 = ring_new(7, 2)
    assert franel_poly_mod_table(r72, 1, 7).values == franel_mod_table(r72, 7).values
    assert franel_poly_mod_table(r72, 0, 7).values == [1, 0, 0, 0, 0, 0, 0]
    assert franel_poly_mod_table(r72, 2, 7).values[2] == 32


def test_franel_poly_mod_table_against_exact():
    for p, e in ((5, 2), (11, 2), (13, 1)):
        ring = ring_new(p, e)
        for x in (-2, -1, 1, 2, 3):
            got = franel_poly_mod_table(ring, x, p).values
            assert got == [franel_poly_exact(l, x) % ring.modulus for l in range(p)]


def test_franel_poly_mod_rational_point():
    # table at x = 1/2 equals exact values of 2^-l * (integer polynomial 2^l f_l(1/2))
    p, e = 11, 2
    ring = ring_new(p, e)
    got = franel_poly_mod_table(ring, Fraction(1, 2), p).values
    inv2 = pow(2, -1, ring.modulus)
    for l in range(p):
        exact = sum(
            math.comb(l, k) * math.comb(k, l - k) * math.comb(2 * k, k) * 2 ** (l - k)
            for k in range((l + 1) // 2, l + 1)
        )  # 2^l f_l(1/2) is an integer
        assert got[l] == exact * pow(inv2, l, ring.modulus) % ring.modulus


def test_apery_examples_and_routes():
    assert apery_exact(0) == 1
    assert apery_exact(1) == 5
    assert apery_exact(2) == 73
    for n in range(41):
        assert apery_exact(n, "definition") == apery_exact(n, "via_franel")
    with pytest.raises(ValueError):
        apery_exact(3, "nonsense")


def test_generalized_franel_examples():
    assert generalized_franel(3, 1) == 8
    assert generalized_franel(2, 3) == 10
    for k in range(31):
        assert generalized_franel(k, 2) == math.comb(2 * k, k)
    with pytest.raises(ValueError):
        generalized_franel(3, 0)


def test_genfranel_mod_table_matches_exact():
    for r in (1, 2, 3, 4, 5, 6):
        ring = ring_new(13, 2)
        got = genfranel_mod_table(ring, r, 13).values
        assert got == [generalized_franel(k, r) % ring.modulus for k in range(13)]


def test_binom_exact():
    assert binom_exact(6, 3) == 20
    assert all(binom_exact(-1, k) == (-1) ** k for k in range(11))
    assert binom_exact(-3, 2) == 6
    assert binom_exact(3, 5) == 0
    with pytest.raises(ValueError):
        binom_exact(3, -1)
    # falling-factorial definition, both signs
    for x in range(-8, 9):
        for k in range(6):
            prod = 1
            for j in range(1, k + 1):
                prod = prod * (x - j + 1) // j
            assert binom_exact(x, k) == prod


def test_central_binom_table_examples():
    assert central_binom_table(ring_new(7, 3), 5).values == [1, 2, 6, 20, 70]
    assert central_binom_table(ring_new(5, 1), 5).values[3:] == [0, 0]
    assert central_binom_table(ring_new(5, 2), 5).values[3] == 20


def test_binom_shift_examples():
    ring = ring_new(11, 2)
    assert binom_shift_table(ring, 0, 11).values == [1] * 11
    got = binom_shift_table(ring, 2, 11).values
    inv2 = pow(2, -1, ring.modulus)
    for k in range(11):
        assert got[k] == (k + 1) * (k + 2) * inv2 % ring.modulus
    with pytest.raises(ValueError):
        binom_shift_table(ring, Fraction(1, 11), 11)


def test_binom_shift_negative_half_is_central_over_4k():
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3):
            ring = ring_new(p, e)
            m = ring.modulus
            shift = binom_shift_table(ring, Fraction(-1, 2), p).values
            central = central_binom_table(ring, p).values
            inv4 = pow(4, -1, m)
            assert shift == [central[k] * pow(inv4, k, m) % m for k in range(p)]


def test_reflection_symmetry_mod_p():
    # f_k = (-8)^k f_{p-1-k} (mod p) for all k and 5 <= p <= 97
    for p in primes_in_range(5, 97):
        fr = franel_mod_table(ring_new(p, 1), p).values
        w = 1
        for k in range(p):
            assert fr[k] == w * fr[p - 1 - k] % p
            w = w * (-8) % p


def test_fpoly_table_rejects_foreign_residue():
    with pytest.raises(ValueError):
        franel_poly_mod_table(ring_new(7, 2), ring_new(5, 2).residue(1), 7)


def test_prime_context_caches_tables():
    ctx = get_context(13)
    assert ctx.franel(2) is ctx.franel(2)
    assert ctx.fpoly(2, 2) is ctx.fpoly(2, 2)
    assert ctx.jacobi3 == 1
    assert get_context(13) is ctx


def test_small_binom_table_is_exact():
    for p in primes_in_range(3, 13):
        for e in range(1, 5):
            binom = get_context(p).small_binom(e)
            for n in range(2 * p):
                for k in range(n + 1):
                    assert binom(n, k) == math.comb(n, k) % p**e, (p, e, n, k)
