import random
from fractions import Fraction

import pytest

from franelcheck.modring import (
    NonInvertibleError,
    RingMismatchError,
    exact_div_p,
    fermat_quotient2,
    from_rational,
    inv,
    jacobi,
    ring_new,
)
from franelcheck.primes import primes_in_range
from franelcheck.sequences import get_context


def test_ring_new_examples():
    assert ring_new(5, 2).modulus == 25
    assert ring_new(7, 3).modulus == 343
    assert ring_new(3, 2).modulus == 9  # constructible, though most checks need p > 3
    with pytest.raises(ValueError):
        ring_new(4, 2)
    with pytest.raises(ValueError):
        ring_new(2, 1)
    with pytest.raises(ValueError):
        ring_new(5, 0)
    with pytest.raises(ValueError):
        ring_new(5, 5)


def test_ring_equality_and_cache():
    assert ring_new(5, 2) == ring_new(5, 2)
    assert ring_new(5, 2) is ring_new(5, 2)
    assert ring_new(5, 2) != ring_new(5, 3)


def test_residue_arith_examples():
    r25 = ring_new(5, 2)
    assert (r25.residue(13) * 2).value == 1
    assert (r25.residue(24) + 1).value == 0
    assert (ring_new(7, 3).residue(2) ** 9).value == 169
    assert (-r25.residue(1)).value == 24
    assert (r25.residue(3) - 7).value == 21


def test_residue_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ring_new(5, 2).residue(3) ** -1


def test_ring_mismatch_rejected():
    a = ring_new(5, 2).residue(1)
    b = ring_new(5, 3).residue(1)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * ring_new(7, 2).residue(1)


def test_inv_examples():
    r25 = ring_new(5, 2)
    assert inv(r25.residue(3)).value == 17
    assert inv(ring_new(7, 4).residue(1)).value == 1
    with pytest.raises(NonInvertibleError):
        inv(r25.residue(5))


def test_inv_roundtrip_random():
    rng = random.Random(20130524)
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3, 4):
            ring = ring_new(p, e)
            for _ in range(100):
                a = rng.randrange(1, ring.modulus)
                while a % p == 0:
                    a = rng.randrange(1, ring.modulus)
                res = ring.residue(a)
                assert (res * inv(res)).value == 1


def test_from_rational_examples():
    r25 = ring_new(5, 2)
    assert from_rational(r25, Fraction(-1, 2)).value == 12
    assert from_rational(r25, Fraction(0, 7)).value == 0
    with pytest.raises(NonInvertibleError):
        from_rational(r25, Fraction(2, 5))


def test_from_rational_roundtrip_random():
    rng = random.Random(1894)
    for p in (5, 7, 11, 13):
        for e in (1, 2, 3, 4):
            ring = ring_new(p, e)
            for _ in range(50):
                a = rng.randrange(-200, 200)
                b = rng.randrange(1, 50)
                while b % p == 0:
                    b = rng.randrange(1, 50)
                q = Fraction(a, b)
                got = from_rational(ring, q)
                assert (got * q.denominator).value == q.numerator % ring.modulus


def test_exact_div_p_examples():
    assert exact_div_p(ring_new(5, 3).residue(15)).value == 3
    assert exact_div_p(ring_new(5, 3).residue(15)).ring == ring_new(5, 2)
    assert exact_div_p(ring_new(7, 2).residue(0)).value == 0
    with pytest.raises(ValueError):
        exact_div_p(ring_new(5, 3).residue(7))
    with pytest.raises(ValueError):
        exact_div_p(ring_new(5, 1).residue(0))


def test_exact_div_p_random():
    rng = random.Random(7)
    for p, e in ((5, 1), (7, 2), (13, 3)):
        ring_hi = ring_new(p, e + 1)
        ring_lo = ring_new(p, e)
        for _ in range(50):
            x = rng.randrange(ring_lo.modulus)
            assert exact_div_p(ring_hi.residue(p * x)).value == x


def test_jacobi_examples():
    assert jacobi(5, 3) == -1
    assert jacobi(7, 3) == 1
    assert jacobi(0, 3) == 0
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_matches_euler_criterion():
    for p in primes_in_range(3, 97):
        for a in range(1, p):
            assert jacobi(a, p) % p == pow(a, (p - 1) // 2, p)


def test_fermat_quotient2_examples():
    assert fermat_quotient2(5, 1).value == 3
    assert fermat_quotient2(7, 1).value == 2
    assert fermat_quotient2(5, 2).value == 3
    with pytest.raises(ValueError):
        fermat_quotient2(5, 4)


def test_fermat_quotient2_definition():
    for p in primes_in_range(5, 97):
        for e in (1, 2, 3):
            q_exact = (pow(2, p - 1) - 1) // p
            assert fermat_quotient2(p, e).value == q_exact % p**e


def test_harmonic_examples():
    assert get_context(5).harmonic(2, 1)[:3] == [0, 1, 14]
    assert get_context(5).harmonic(2, 1)[:1] == [0]
    assert get_context(7).harmonic(1, 2)[6] == 0
    with pytest.raises(ValueError):
        get_context(5).harmonic(2, 3)


def test_wolstenholme_classics():
    # H_{p-1} = 0 mod p^2 and H2_{p-1} = 0 mod p for all 5 <= p <= 97
    for p in primes_in_range(5, 97):
        assert get_context(p).harmonic(2, 1)[p - 1] == 0
        assert get_context(p).harmonic(1, 2)[p - 1] == 0


def test_lehmer_half_range_harmonic():
    # H_{(p-1)/2} = -2 q_p(2) + p q_p(2)^2 mod p^2
    for p in primes_in_range(5, 97):
        ring = ring_new(p, 2)
        h = get_context(p).harmonic(2, 1)[(p - 1) // 2]
        q = fermat_quotient2(p, 2).value
        assert h == (-2 * q + p * q * q) % ring.modulus
