import math
from fractions import Fraction

import pytest

from franelcheck.modring import NonInvertibleError, PrimePowerRing, ring_new
from franelcheck.primes import primes_in_range
from franelcheck.sequences import (
    PrimeContext,
    apery_exact,
    binom_exact,
    franel_exact,
    franel_exact_list,
    franel_poly_exact,
    generalized_franel,
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
    assert get_context(5).franel(2) == [1, 2, 10, 6, 21]
    assert get_context(5).franel(3)[-1] == 96
    assert get_context(11).franel(1)[:1] == [1]


def test_franel_mod_table_against_exact():
    # entrywise oracle equivalence on a spot grid (full grid in acceptance)
    for p in (5, 13, 41):
        exact = franel_exact_list(p - 1)
        for e in (1, 2, 3):
            m = p**e
            assert get_context(p).franel(e) == [v % m for v in exact]


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
    ctx = get_context(7)
    assert ctx.fpoly(2, 1) == ctx.franel(2)
    assert ctx.fpoly(2, 0) == [1, 0, 0, 0, 0, 0, 0]
    assert ctx.fpoly(2, 2)[2] == 32


def test_franel_poly_mod_table_against_exact():
    for p, e in ((5, 2), (11, 2), (13, 1)):
        for x in (-2, -1, 1, 2, 3):
            got = get_context(p).fpoly(e, x)
            assert got == [franel_poly_exact(l, x) % p**e for l in range(p)]


def test_franel_poly_mod_rational_point():
    # table at x = 1/2 equals exact values of 2^-l * (integer polynomial 2^l f_l(1/2))
    p, e = 11, 2
    ring = ring_new(p, e)
    got = get_context(p).fpoly(e, Fraction(1, 2))
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
        got = get_context(13).genfranel(2, r)
        assert got == [generalized_franel(k, r) % 13**2 for k in range(13)]


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
    assert get_context(7).central(3)[:5] == [1, 2, 6, 20, 70]
    assert get_context(5).central(1)[3:] == [0, 0]
    assert get_context(5).central(2)[3] == 20


def test_binom_shift_examples():
    ctx = get_context(11)
    m = 11**2
    assert ctx.shift(2, 0) == [1] * 11
    got = ctx.shift(2, 2)
    inv2 = pow(2, -1, m)
    for k in range(11):
        assert got[k] == (k + 1) * (k + 2) * inv2 % m
    with pytest.raises(ValueError):
        ctx.shift(2, Fraction(1, 11))


def test_binom_shift_negative_half_is_central_over_4k():
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3):
            m = p**e
            shift = get_context(p).shift(e, Fraction(-1, 2))
            central = get_context(p).central(e)
            inv4 = pow(4, -1, m)
            assert shift == [central[k] * pow(inv4, k, m) % m for k in range(p)]


def test_reflection_symmetry_mod_p():
    # f_k = (-8)^k f_{p-1-k} (mod p) for all k and 5 <= p <= 97
    for p in primes_in_range(5, 97):
        fr = get_context(p).franel(1)
        w = 1
        for k in range(p):
            assert fr[k] == w * fr[p - 1 - k] % p
            w = w * (-8) % p


def test_fpoly_table_rejects_foreign_residue():
    with pytest.raises(ValueError):
        get_context(7).fpoly(2, ring_new(5, 2).residue(1))


def test_prime_context_caches_tables():
    ctx = get_context(13)
    assert ctx.franel(2) is ctx.franel(2)
    assert ctx.fpoly(2, 2) is ctx.fpoly(2, 2)
    assert ctx.jacobi3 == 1
    assert get_context(13) is ctx


def test_a_cached_table_converts_its_fraction_argument_once(monkeypatch):
    calls = []
    from_rational = PrimePowerRing.from_rational
    monkeypatch.setattr(PrimePowerRing, "from_rational", lambda ring, q: calls.append(q) or from_rational(ring, q))
    ctx = PrimeContext(13)
    for table in (ctx.powers, ctx.fpoly, ctx.weighted_cubes):
        calls.clear()
        first = table(2, Fraction(1, 8))
        assert calls == [Fraction(1, 8)]
        assert table(2, Fraction(1, 8)) is first
        assert calls == [Fraction(1, 8)]  # the second lookup converts nothing
        assert first == table(2, ring_new(13, 2).from_rational(Fraction(1, 8)).value)
    # an integer is one key however it is given
    assert ctx.powers(2, 2) is ctx.powers(2, Fraction(2)) is ctx.powers(2, 2 + 13**2)


def test_small_binom_table_is_exact():
    for p in primes_in_range(3, 13):
        for e in range(1, 5):
            binom = get_context(p).small_binom(e)
            for n in range(2 * p):
                for k in range(n + 1):
                    assert binom(n, k) == math.comb(n, k) % p**e, (p, e, n, k)


def _mod(q, m):
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, m) % m


def _shift_exact(k, r):
    # binom(k+r, k) = (r+1)(r+2)...(r+k)/k!
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= (r + j) / Fraction(j)
    return out


def test_every_context_table_matches_exact_arithmetic():
    for p in primes_in_range(3, 13):
        ctx = get_context(p)
        ks = range(p)
        for e in range(1, 5):
            m = p**e

            def table(values):
                return [_mod(v, m) for v in values]

            assert ctx.franel(e) == table(franel_exact(k) for k in ks), (p, e)
            assert ctx.central(e) == table(math.comb(2 * k, k) for k in ks), (p, e)
            for r in range(1, 7):
                got = ctx.genfranel(e, r)
                assert got == table(generalized_franel(k, r) for k in ks), (p, e, r)
            assert ctx.genfranel(e, 1) is ctx.powers(e, 2)
            assert ctx.genfranel(e, 2) is ctx.central(e)
            assert ctx.genfranel(e, 3) is ctx.franel(e)
            for x in (Fraction(3), Fraction(1, 2)):
                want = table(
                    sum(math.comb(l, k) ** 2 * math.comb(2 * k, l) * x**k for k in range(l + 1))
                    for l in ks
                )
                assert ctx.fpoly(e, x) == want, (p, e, x)
            for r in (Fraction(2), Fraction(-1, 2), Fraction(1, 3)):
                if r.denominator % p == 0:
                    with pytest.raises(NonInvertibleError):
                        ctx.shift(e, r)
                    continue
                assert ctx.shift(e, r) == table(_shift_exact(k, r) for k in ks), (p, e, r)
            for order in (1, 2):
                want = table(sum(Fraction(1, j**order) for j in range(1, n + 1)) for n in ks)
                assert ctx.harmonic(e, order) == want, (p, e, order)
            for base in (Fraction(2), Fraction(1, 8)):
                assert ctx.powers(e, base) == table(base**k for k in ks), (p, e, base)
            for w in (Fraction(-8), Fraction(1, 2)):
                want = table(sum(math.comb(n, k) ** 3 * w**k for k in range(n + 1)) for n in ks)
                assert ctx.weighted_cubes(e, w) == want, (p, e, w)
