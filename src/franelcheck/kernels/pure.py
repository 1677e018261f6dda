"""Pure-Python table kernels.

Every kernel here has a compiled twin in the C extension ``_native``; only
the helper ``factorial_tables`` does not.  The two must produce identical
lists (the test suite compares them entry by entry, and both against exact
arithmetic).  This backend is also the only one used when the modulus
exceeds the compiled backend's 64-bit range, and it is the reference the
compiled kernels are tested against.

Conventions shared by all kernels:
  * ``p`` is an odd prime, ``m = p**e`` the modulus, inputs canonical in
    [0, m) (the dispatcher in ``__init__`` reduces them);
  * table indices run k = 0..length-1 with length <= p, so every division
    that occurs is by an integer in 1..p-1 and hence invertible mod m.
"""

from __future__ import annotations


def inverse_table(p: int, m: int, n: int) -> list[int]:
    """Inverses of 1..n modulo m (slot 0 unused), n <= p-1.

    Batch inversion: one extended Euclid for the product, then the
    individual inverses fall out of the prefix products.
    """
    if n >= p:
        raise ValueError(f"inverse table needs n < p, got n={n}, p={p}")
    inv = [0] * (n + 1)
    if n == 0:
        return inv
    prefix = [1] * (n + 1)
    acc = 1
    for i in range(1, n + 1):
        acc = acc * i % m
        prefix[i] = acc
    acc_inv = pow(acc, -1, m)
    for i in range(n, 0, -1):
        inv[i] = acc_inv * prefix[i - 1] % m
        acc_inv = acc_inv * i % m
    return inv


def factorial_tables(p: int, m: int, n: int) -> tuple[list[int], list[int]]:
    """(k! mod m, (k!)^-1 mod m) for k = 0..n, n <= p-1."""
    if n >= p:
        raise ValueError(f"factorial tables need n < p, got n={n}, p={p}")
    fact = [1 % m] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i % m
    inv_fact = [1 % m] * (n + 1)
    inv_fact[n] = pow(fact[n], -1, m)
    for i in range(n, 0, -1):
        inv_fact[i - 1] = inv_fact[i] * i % m
    return fact, inv_fact


def franel_table(p: int, m: int, length: int) -> list[int]:
    """Cubed-binomial row sums f_0..f_{length-1} mod m by the three-term
    recurrence (n+1)^2 f_{n+1} = (7n^2+7n+2) f_n + 8 n^2 f_{n-1}."""
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    if length <= 0:
        return []
    out = [0] * length
    out[0] = 1 % m
    if length > 1:
        out[1] = 2 % m
    inv = inverse_table(p, m, length - 1)
    for n in range(1, length - 1):
        t = ((7 * n * n + 7 * n + 2) * out[n] + 8 * n * n * out[n - 1]) % m
        i = inv[n + 1]
        out[n + 1] = t * i % m * i % m
    return out


def central_binom_table(p: int, m: int, length: int) -> list[int]:
    """binom(2k,k) mod m for k = 0..length-1 via the ratio 2(2k+1)/(k+1)."""
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    if length <= 0:
        return []
    out = [0] * length
    out[0] = 1 % m
    inv = inverse_table(p, m, length - 1)
    for k in range(length - 1):
        out[k + 1] = out[k] * (2 * (2 * k + 1) % m) % m * inv[k + 1] % m
    return out


def binom_shift_table(p: int, m: int, rbar: int, length: int) -> list[int]:
    """binom(k+r,k) mod m for k = 0..length-1, r given as the residue rbar.

    Cumulative product of (rbar + j) / j; the numerator may be divisible
    by p, the denominator never is.
    """
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    if length <= 0:
        return []
    out = [0] * length
    out[0] = 1 % m
    inv = inverse_table(p, m, length - 1)
    for j in range(1, length):
        out[j] = out[j - 1] * ((rbar + j) % m) % m * inv[j] % m
    return out


def fpoly_table(p: int, m: int, x: int, length: int) -> list[int]:
    """Table of sum_k binom(l,k) binom(k,l-k) binom(2k,k) x^k for l < length.

    With a = l-k, the two row binomials collapse to
    l! * (a!)^-2 * ((l-2a)!)^-1, so one factorial-table pass feeds the
    whole O(length^2) double sum.
    """
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    if length <= 0:
        return []
    fact, inv_fact = factorial_tables(p, m, length - 1)
    central = central_binom_table(p, m, length)
    xpw = [1 % m] * length
    for k in range(1, length):
        xpw[k] = xpw[k - 1] * x % m
    out = [0] * length
    for l in range(length):
        acc = 0
        for a in range(l // 2 + 1):
            k = l - a
            t = inv_fact[a] * inv_fact[a] % m * inv_fact[l - 2 * a] % m
            acc += t * central[k] % m * xpw[k] % m
        out[l] = acc % m * fact[l] % m
    return out


def genfranel_table(p: int, m: int, r: int, length: int) -> list[int]:
    """Row sums of r-th binomial powers, sum_j binom(k,j)^r, for k < length."""
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    if r < 1:
        raise ValueError(f"power must be >= 1, got {r}")
    if length <= 0:
        return []
    fact, inv_fact = factorial_tables(p, m, length - 1)
    out = [0] * length
    for k in range(length):
        acc = 0
        for j in range(k + 1):
            b = fact[k] * inv_fact[j] % m * inv_fact[k - j] % m
            acc += pow(b, r, m)
        out[k] = acc % m
    return out


def weighted_cube_table(p: int, m: int, w: int, length: int) -> list[int]:
    """sum_k binom(n,k)^3 w^k for n < length (w = 1 gives franel_table)."""
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    if length <= 0:
        return []
    fact, inv_fact = factorial_tables(p, m, length - 1)
    wpw = [1 % m] * length
    for k in range(1, length):
        wpw[k] = wpw[k - 1] * w % m
    out = [0] * length
    for n in range(length):
        acc = 0
        for k in range(n + 1):
            b = fact[n] * inv_fact[k] % m * inv_fact[n - k] % m
            acc += b * b % m * b % m * wpw[k] % m
        out[n] = acc % m
    return out


def triangle_weighted_sums(p: int, m: int) -> list[int]:
    """binom(2k,k) * sum_{n=k}^{p-1} (2n+1) binom(n+k,2k) mod m, k = 0..p-2.

    The inner binomial advances by the ratio (n+1+k)/(n+1-k); the divisor
    stays in 1..p-1.
    """
    inv = inverse_table(p, m, p - 1)
    central = central_binom_table(p, m, p)
    out = [0] * (p - 1)
    for k in range(p - 1):
        b = 1 % m
        acc = 0
        for n in range(k, p):
            acc += (2 * n + 1) * b
            if n + 1 < p:
                b = b * ((n + 1 + k) % m) % m * inv[n + 1 - k] % m
        out[k] = acc % m * central[k] % m
    return out
