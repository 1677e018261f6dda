"""Pure-Python table kernels.

Five kernels: ``precursive_table`` (any recurrence with polynomial
coefficients, O(order * degree * length)), ``inverse_table``, the direct
O(p^2) row sums of binomial powers ``genfranel_table``,
``triangle_weighted_sums`` and the reduction ``wdot`` (a sum over k of
products of table entries).  Each has a compiled twin in the C extension
``_native``; only the helpers ``factorial_tables`` and ``horner`` do not.
The two must produce identical results (the test suite compares them entry
by entry, and both against exact arithmetic).  This backend is also the
only one used when the modulus exceeds the compiled backend's 64-bit
range, and it is the reference the compiled kernels are tested against.

Conventions shared by all kernels:
  * ``p`` is an odd prime, ``m = p**e`` the modulus, inputs canonical in
    [0, m) (the boundary in ``__init__`` reduces them);
  * table indices run k = 0..length-1 with length <= p, so every division
    the boundary's recurrences make is by a unit mod m.
"""

from __future__ import annotations


def inverse_table(p: int, m: int, n: int) -> list[int]:
    """[0] + the inverses of 1..n modulo m, n <= p-1.

    Slot 0 holds 0, and callers rely on it: a sum over k of products with
    an inverse table drops its k = 0 term without a slice.  Both backends
    keep it so.

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


def precursive_table(
    p: int, m: int, coeffs: list[list[int]], init: list[int], length: int
) -> list[int]:
    """u(0..length-1) mod m of the recurrence sum_{i<=J} a_i(n) u(n+i) = 0.

    ``coeffs[i]`` holds a_i's coefficients mod m, lowest power of n first,
    and ``init`` the J values u(0..J-1).  Each step solves
    u(n+J) = -(sum_{i<J} a_i(n) u(n+i)) / a_J(n); the leading values a_J(n),
    n < length-J, are batch-inverted once, and one that is not a unit mod m
    raises ValueError.
    """
    if length > p:
        raise ValueError(f"length must be <= p, got {length} > {p}")
    order = len(coeffs) - 1
    if order < 1 or len(init) != order:
        raise ValueError(
            "a recurrence needs order >= 1 and as many initial values, "
            f"got order {order} with {len(init)}"
        )
    out = list(init[:length]) + [0] * (length - order)
    steps = length - order
    if steps <= 0:
        return out
    values = [[horner(a, n, m) for n in range(steps)] for a in coeffs]
    lead = values.pop()
    # batch inversion: prefix products, one inverse, then a backward pass
    inv = [0] * steps
    acc = 1
    for n, v in enumerate(lead):
        acc = acc * v % m
        inv[n] = acc
    acc_inv = pow(acc, -1, m)
    for n in range(steps - 1, 0, -1):
        inv[n] = acc_inv * inv[n - 1] % m
        acc_inv = acc_inv * lead[n] % m
    inv[0] = acc_inv
    for n in range(steps):
        s = 0
        for i, a in enumerate(values):
            s += a[n] * out[n + i]
        out[n + order] = -s * inv[n] % m
    return out


def horner(a: list[int], n: int, m: int) -> int:
    """a(n) mod m for the coefficients of a, lowest power first."""
    acc = 0
    for c in reversed(a):
        acc = (acc * n + c) % m
    return acc


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


def triangle_weighted_sums(p: int, m: int) -> list[int]:
    """binom(2k,k) * sum_{n=k}^{p-1} (2n+1) binom(n+k,2k) mod m, k = 0..p-2.

    The inner binomial advances by the ratio (n+1+k)/(n+1-k); the divisor
    stays in 1..p-1.
    """
    inv = inverse_table(p, m, p - 1)
    central = [1 % m] * p
    for k in range(p - 1):
        central[k + 1] = central[k] * (4 * k + 2) % m * inv[k + 1] % m
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


def wdot(m: int, alternate: bool, *tables: list[int]) -> int:
    """sum_k (+-1)^k prod_j tables[j][k] mod m, k below the tables' one length.

    The sign alternates from +1 at k = 0 when alternate is true; no tables
    is the empty sum, 0.  Entries must be in [0, m).
    """
    if m < 1:
        raise ValueError(f"wdot() needs m >= 1, got m={m}")
    n = len(tables[0]) if tables else 0
    for t in tables:
        if len(t) != n:
            raise ValueError(f"wdot() tables must have one length, got {n} and {len(t)}")
        if t and (min(t) < 0 or max(t) >= m):
            raise ValueError(f"wdot() entries must be in [0, m) for m={m}")
    if not tables:
        return 0
    prods = tables[0]
    for t in tables[1:]:
        prods = [a * b % m for a, b in zip(prods, t)]
    if alternate:
        return (sum(prods[::2]) - sum(prods[1::2])) % m
    return sum(prods) % m
