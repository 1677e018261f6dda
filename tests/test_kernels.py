"""Kernel-level tests, including the native/pure parity contract."""

import contextlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from franelcheck import kernels
from franelcheck.kernels import _native, pure
from franelcheck.sequences import (
    binom_exact,
    franel_exact,
    franel_poly_exact,
    generalized_franel,
)

RINGS = [(5, 1), (5, 2), (7, 2), (11, 1), (13, 3), (17, 4), (23, 2), (31, 3)]

needs_native = pytest.mark.skipif(_native is None, reason="compiled kernels not built")


def test_inverse_table_small():
    inv = pure.inverse_table(7, 49, 6)
    assert inv[0] == 0
    for i in range(1, 7):
        assert inv[i] * i % 49 == 1


@pytest.mark.parametrize("native", [False, True])
def test_inverse_table_slot_zero_is_zero(native):
    # sums with a 1/k factor run over the whole table and rely on this
    if native and _native is None:
        pytest.skip("compiled kernels not built")
    impl = _native if native else pure
    for p, e in RINGS:
        assert impl.inverse_table(p, p**e, p - 1)[0] == 0
    assert impl.inverse_table(7, 49, 0) == [0]


def test_inverse_table_bound():
    with pytest.raises(ValueError):
        pure.inverse_table(7, 49, 7)


def test_factorial_tables_small():
    fact, inv_fact = pure.factorial_tables(7, 343, 6)
    assert fact == [1, 1, 2, 6, 24, 120, 720 % 343]
    for i in range(7):
        assert fact[i] * inv_fact[i] % 343 == 1


def test_franel_table_values():
    assert kernels.franel_table(5, 25, 5) == [1, 2, 10, 6, 21]
    assert kernels.franel_table(5, 125, 5)[-1] == 96
    assert kernels.franel_table(11, 11, 1) == [1]
    with pytest.raises(ValueError):
        kernels.franel_table(5, 25, 6)


def test_central_binom_table_values():
    assert kernels.central_binom_table(7, 343, 5) == [1, 2, 6, 20, 70 % 343]
    # upper-range entries are divisible by p but nonzero mod p^2
    assert kernels.central_binom_table(5, 5, 5)[3:] == [0, 0]
    assert kernels.central_binom_table(5, 25, 5)[3] == 20
    assert kernels.central_binom_table(5, 25, 5)[4] == 70 % 25


def test_central_binom_against_comb():
    for p, e in RINGS:
        m = p**e
        got = kernels.central_binom_table(p, m, p)
        assert got == [math.comb(2 * k, k) % m for k in range(p)]


def test_binom_shift_table_integer_r():
    # r = 0: all ones; r = 2: binom(k+2,k)
    assert kernels.binom_shift_table(7, 49, 0, 7) == [1] * 7
    got = kernels.binom_shift_table(7, 49, 2, 7)
    assert got == [math.comb(k + 2, k) % 49 for k in range(7)]


def test_fpoly_table_values():
    # x = 0 collapses to [1, 0, 0, ...]
    assert kernels.fpoly_table(7, 49, 0, 7) == [1, 0, 0, 0, 0, 0, 0]
    got = kernels.fpoly_table(7, 49, 2, 7)
    assert got[2] == 32
    # x = 1 must reproduce the cubed-row sums
    assert kernels.fpoly_table(7, 49, 1, 7) == kernels.franel_table(7, 49, 7)


def test_genfranel_closed_forms():
    # the direct row sums against the recurrences
    for p, e in [(7, 2), (11, 1), (13, 2)]:
        m = p**e
        assert pure.genfranel_table(p, m, 2, p) == kernels.central_binom_table(p, m, p)
        assert pure.genfranel_table(p, m, 3, p) == kernels.franel_table(p, m, p)
        assert pure.genfranel_table(p, m, 1, p) == [pow(2, k, m) for k in range(p)]
        for r in (1, 2, 3, 4):
            assert kernels.genfranel_table(p, m, r, p) == pure.genfranel_table(p, m, r, p)


def test_genfranel_exact_small():
    got = pure.genfranel_table(13, 13**2, 4, 8)
    for k in range(8):
        assert got[k] == sum(math.comb(k, j) ** 4 for j in range(k + 1)) % 13**2
    assert kernels.genfranel_table(13, 13**2, 4, 8) == got


def test_weighted_cube_table_against_direct():
    p, m, w = 11, 121, 121 - 8  # w = -8
    got = kernels.weighted_cube_table(p, m, w, p)
    for n in range(p):
        direct = sum(math.comb(n, k) ** 3 * (-8) ** k for k in range(n + 1)) % m
        assert got[n] == direct
    assert kernels.weighted_cube_table(p, m, 1, p) == kernels.franel_table(p, m, p)


def test_triangle_weighted_sums_against_direct():
    for p in (5, 7, 11):
        m = p**4
        got = pure.triangle_weighted_sums(p, m)
        assert len(got) == p - 1
        for k in range(p - 1):
            direct = math.comb(2 * k, k) * sum(
                (2 * n + 1) * math.comb(n + k, 2 * k) for n in range(k, p)
            )
            assert got[k] == direct % m


@contextlib.contextmanager
def backend(force_pure):
    """Route the kernel boundary to one backend (native only when built)."""
    saved = kernels._FORCE_PURE
    kernels._FORCE_PURE = force_pure
    try:
        yield
    finally:
        kernels._FORCE_PURE = saved


def on_both_backends(call):
    """call() through the boundary on the native backend, then on pure."""
    with backend(False):
        native = call()
    with backend(True):
        return native, call()


@needs_native
@pytest.mark.parametrize("p,e", RINGS)
def test_native_pure_parity(p, e):
    m = p**e
    assert _native.inverse_table(p, m, p - 1) == pure.inverse_table(p, m, p - 1)
    calls = [lambda: kernels.franel_table(p, m, p), lambda: kernels.central_binom_table(p, m, p)]
    calls += [lambda r=r: kernels.binom_shift_table(p, m, r, p) for r in (0, 2, m - 1, m // 2)]
    calls += [lambda x=x: kernels.fpoly_table(p, m, x, p) for x in (0, 1, 2, m - 2)]
    calls += [lambda w=w: kernels.weighted_cube_table(p, m, w, p) for w in (1, (m - 8) % m)]
    calls += [lambda r=r: kernels.genfranel_table(p, m, r, p) for r in (1, 2, 3, 4)]
    for call in calls:
        native, pure_list = on_both_backends(call)
        assert native == pure_list
    for r in (1, 2, 3, 4, 6):
        assert _native.genfranel_table(p, m, r, p) == pure.genfranel_table(p, m, r, p)
    assert _native.triangle_weighted_sums(p, p**4) == pure.triangle_weighted_sums(p, p**4)


@needs_native
def test_native_parity_larger_prime():
    p = 499
    m = p * p
    native, pure_list = on_both_backends(lambda: kernels.fpoly_table(p, m, 3, p))
    assert native == pure_list
    assert _native.triangle_weighted_sums(p, p**4) == pure.triangle_weighted_sums(p, p**4)
    # the largest power of p below 2**63: products and sums use all 128 bits
    m = p**7
    assert m < kernels.NATIVE_MODULUS_LIMIT < m * p
    for call in (
        lambda: kernels.fpoly_table(p, m, m - 3, p),
        lambda: kernels.weighted_cube_table(p, m, m - 8, p),
        lambda: kernels.genfranel_table(p, m, 4, p),
    ):
        native, pure_list = on_both_backends(call)
        assert native == pure_list
    assert _native.genfranel_table(p, m, 5, p) == pure.genfranel_table(p, m, 5, p)
    assert _native.triangle_weighted_sums(p, m) == pure.triangle_weighted_sums(p, m)


class _RefuseNative:
    def __getattr__(self, name):
        raise AssertionError(f"_native.{name} called past the native modulus range")


def test_dispatch_large_modulus_falls_back(monkeypatch):
    monkeypatch.setattr(kernels, "_native", _RefuseNative())
    monkeypatch.setattr(kernels, "_FORCE_PURE", False)
    assert kernels.backend_name(kernels.NATIVE_MODULUS_LIMIT - 1) == "native"
    assert kernels.backend_name(kernels.NATIVE_MODULUS_LIMIT) == "pure"
    p = 2_000_003  # p^4 far beyond the 64-bit native range
    assert kernels.backend_name(p**4) == "pure"
    # table construction still works through the dispatcher
    assert kernels.franel_table(p, p**4, 3) == [1, 2, 10]
    p = 55109  # the smallest prime whose fourth power reaches 2**63
    m = p**4
    assert kernels.NATIVE_MODULUS_LIMIT <= m < 2**64
    assert kernels.fpoly_table(p, m, -1, 6) == [franel_poly_exact(n, -1) % m for n in range(6)]
    assert kernels.weighted_cube_table(p, m, 2, 4) == [
        sum(math.comb(n, k) ** 3 * 2**k for k in range(n + 1)) % m for n in range(4)
    ]
    # so does a reduction; with every product past 2**63, the modulus
    assert kernels.wdot(m, True, [m - 1, 2, m - 1], [m - 1, 1, m - 1]) == (1 - 2 + 1) % m
    # an exponent past 64 bits goes to pure even for a small modulus
    p, m, r = 7, 343, 2**64 + 1
    want = [sum(pow(math.comb(k, j), r, m) for j in range(k + 1)) % m for k in range(p)]
    assert kernels.genfranel_table(p, m, r, p) == want


def test_boundary_reduces_parameters_for_both_backends():
    # a native backend used to raise OverflowError here and MemoryError for n < 0
    p, m = 11, 121
    assert kernels.weighted_cube_table(p, m, -8, p) == [
        sum(math.comb(n, k) ** 3 * (-8) ** k for k in range(n + 1)) % m for n in range(p)
    ]
    assert kernels.fpoly_table(p, m, -1, p) == [franel_poly_exact(n, -1) % m for n in range(p)]
    big = 2**64 + 5
    assert kernels.binom_shift_table(p, m, big, p) == [binom_exact(k + big, k) % m for k in range(p)]
    for bad in (
        lambda: kernels.inverse_table(p, m, -2),
        lambda: kernels.inverse_table(p, m, p),
        lambda: kernels.franel_table(p, m, -1),
        lambda: kernels.central_binom_table(p, m, p + 1),
        lambda: kernels.genfranel_table(p, m, 0, p),
    ):
        with pytest.raises(ValueError):
            bad()


# central binomials mod 25: a_0 = -2 - 4n, a_1 = n + 1, which is 5 at n = 4
CENTRAL_MOD_25 = [[23, 21], [1, 1]]


@pytest.mark.parametrize("force_pure", [False, True])
def test_precursive_table_refuses_malformed_recurrences(force_pure):
    with backend(force_pure):
        assert kernels.precursive_table(7, 25, CENTRAL_MOD_25, [1], 4) == [1, 2, 6, 20]
        for coeffs, init in (([[1]], []), (CENTRAL_MOD_25, []), (CENTRAL_MOD_25, [1, 2])):
            with pytest.raises(ValueError):
                kernels.precursive_table(7, 25, coeffs, init, 4)
        with pytest.raises(ValueError):  # the lead 5 has no inverse mod 25
            kernels.precursive_table(7, 25, CENTRAL_MOD_25, [1], 6)
        with pytest.raises(ValueError):  # 2 has no inverse mod 10
            kernels.central_binom_table(7, 10, 7)


@needs_native
def test_native_refuses_arguments_outside_its_range():
    with pytest.raises(OverflowError):
        _native.inverse_table(11, 121, -2)
    with pytest.raises(OverflowError):
        _native.precursive_table(11, 121, [[1], [2**64]], [1], 11)
    with pytest.raises(ValueError):
        _native.inverse_table(11, 121, 11)
    with pytest.raises(ValueError):  # length past p
        _native.precursive_table(5, 25, [[1], [1]], [1], 6)
    with pytest.raises(ValueError):
        _native.genfranel_table(5, 25, 0, 5)
    for m in (0, 2**63):
        with pytest.raises(ValueError):
            _native.precursive_table(5, m, [[1], [1]], [1], 3)
    with pytest.raises(ValueError):  # 5 has no inverse mod 25
        _native.precursive_table(7, 25, CENTRAL_MOD_25, [1], 6)
    # malformed recurrences: wrong lengths, entries at or past m, a non-list a_i
    for coeffs, init in (
        ([[1]], []),
        ([[1], [1]], []),
        ([[1], [1]], [1, 1]),
        ([[1], [25]], [1]),
        ([[1], [1]], [25]),
    ):
        with pytest.raises(ValueError):
            _native.precursive_table(5, 25, coeffs, init, 5)
    with pytest.raises(TypeError):
        _native.precursive_table(5, 25, [[1], 1], [1], 5)
    with pytest.raises(MemoryError):  # the table size overflows before any allocation
        _native.triangle_weighted_sums(2**62, 25)
    with pytest.raises(TypeError):
        _native.precursive_table(5, 25)
    for args in ((25,), (25, True, (1, 2)), (25, True, [1.0])):  # wdot reads lists of ints
        with pytest.raises(TypeError):
            _native.wdot(*args)


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@st.composite
def kernel_inputs(draw):
    """(p, m = p^e, lengths) with lengths 0, 1 and p always among them."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    e = draw(st.integers(1, 4))
    return p, p**e, sorted({0, 1, p, draw(st.integers(0, p))})


QUARTER = "1/4"  # the residue of 1/4, where fpoly's minimal recurrence degenerates


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ring=kernel_inputs(),
    param=st.sampled_from([0, 1, -1, QUARTER]) | st.integers(-(2**70), 2**70),
    r=st.integers(1, 7),
)
@example(ring=(3, 3, [0, 1, 2, 3]), param=QUARTER, r=4)
@example(ring=(3, 81, [0, 1, 3]), param=-1, r=1)
@example(ring=(5, 625, [0, 1, 4, 5]), param=2**70, r=2)
@example(ring=(7, 7, [0, 1, 5, 7]), param=QUARTER, r=3)
@example(ring=(7, 2401, [0, 1, 7]), param=0, r=5)
def test_backends_agree_with_exact_arithmetic(ring, param, r):
    """Both backends through the boundary against exact integers, on any parameter."""
    p, m, lengths = ring
    if param == QUARTER:
        param = pow(4, -1, m)
    backends = [True] + ([False] if _native is not None else [])

    def agree(call, want, name):
        for force_pure in backends:
            with backend(force_pure):
                assert call() == want, (name, force_pure)

    for length in lengths:
        ks = range(length)
        if length:
            agree(lambda: kernels.inverse_table(p, m, length - 1),
                  [0] + [pow(i, -1, m) for i in range(1, length)], "inverse_table")
        agree(lambda: kernels.franel_table(p, m, length), [franel_exact(k) % m for k in ks], "franel")
        agree(lambda: kernels.central_binom_table(p, m, length),
              [math.comb(2 * k, k) % m for k in ks], "central")
        agree(lambda: kernels.binom_shift_table(p, m, param, length),
              [binom_exact(k + param, k) % m for k in ks], "shift")
        agree(lambda: kernels.fpoly_table(p, m, param, length),
              [franel_poly_exact(k, param) % m for k in ks], "fpoly")
        agree(lambda: kernels.weighted_cube_table(p, m, param, length),
              [sum(math.comb(k, j) ** 3 * param**j for j in range(k + 1)) % m for k in ks],
              "weighted_cubes")
        for s in sorted({1, 2, 3, 4, r}):
            agree(lambda: kernels.genfranel_table(p, m, s, length),
                  [generalized_franel(k, s) % m for k in ks], f"genfranel r={s}")
        native_or_pure = [pure] + ([_native] if _native is not None else [])
        for impl in native_or_pure:
            assert impl.genfranel_table(p, m, r, length) == [generalized_franel(k, r) % m for k in ks]

    want = [
        math.comb(2 * k, k) * sum((2 * n + 1) * math.comb(n + k, 2 * k) for n in range(k, p)) % m
        for k in range(p - 1)
    ]
    agree(lambda: kernels.triangle_weighted_sums(p, m), want, "triangle")


#: moduli of every width wdot handles: products that fit in 64 bits, those
#: that need 128, the largest native modulus, and moduli only pure accepts
WDOT_MODULI = st.sampled_from(
    [1, 2, 25, 43**4, 2**32 - 5, 2**32, 2**32 + 15, 499**7, 2**63 - 25, 2**63, 2**64 + 13]
) | st.integers(1, 2**70)


@st.composite
def wdot_inputs(draw):
    """(m, 0 to 5 tables of one length, entries in [0, m) with 0 and m - 1 favoured)."""
    m = draw(WDOT_MODULI)
    length = draw(st.integers(0, 12))
    entry = st.integers(0, m - 1) | st.sampled_from([0, m - 1])
    return m, [draw(st.lists(entry, min_size=length, max_size=length)) for _ in range(draw(st.integers(0, 5)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=wdot_inputs(), alternate=st.booleans())
@example(inputs=(2**63 - 25, [[2**63 - 26] * 3] * 5), alternate=True)
@example(inputs=(7, []), alternate=True)
def test_wdot_backends_agree_with_plain_ints(inputs, alternate):
    """Both backends, directly and through the boundary, against plain ints."""
    m, tables = inputs
    length = len(tables[0]) if tables else 0
    want = sum(
        (-1 if alternate and k % 2 else 1) * math.prod(t[k] for t in tables) for k in range(length)
    ) % m
    impls = [pure] + ([_native] if _native is not None and m < kernels.NATIVE_MODULUS_LIMIT else [])
    for impl in impls:
        assert impl.wdot(m, alternate, *tables) == want, impl.__name__
    for force_pure in [True] + ([False] if _native is not None else []):
        with backend(force_pure):
            assert kernels.wdot(m, alternate, *tables) == want


@pytest.mark.parametrize("impl", [pure, pytest.param(_native, marks=needs_native)], ids=["pure", "native"])
def test_wdot_refuses_unequal_lengths_and_entries_outside_the_ring(impl):
    assert impl.wdot(25, True, [1, 24], [3, 4]) == (3 - 96) % 25
    for tables in ([[1, 2], [3]], [[1], [1, 2]], [[25]], [[0, 1], [2, 26]], [[-1]], [[1], [2**64]]):
        with pytest.raises(ValueError):
            impl.wdot(25, True, *tables)
    with pytest.raises(ValueError):
        impl.wdot(0, False, [0])
