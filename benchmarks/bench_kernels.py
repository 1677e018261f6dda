#!/usr/bin/env python3
"""Time every table family through the kernel boundary, on both backends.

Each family is built at --prime and at 4999 on the compiled and the pure
backend, and the two lists must be equal; so must the two backends' values
of the reduction ``wdot`` over four of those tables.  The P-recursive families run in
O(p), so their times grow about 10x from p = 499 to 4999; the direct row
sums (r >= 5) and the triangle sums stay O(p^2).  At 4999 the O(p^2)
kernels run on the compiled backend only, since pure takes tens of seconds.

    python3 benchmarks/bench_kernels.py [--prime 499] [--repeats 3]
"""

import argparse
import time

from franelcheck import kernels

LARGE_PRIME = 4999


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def on_backend(force_pure, fn, repeats):
    saved = kernels._FORCE_PURE  # the boundary's own switch, set per call
    kernels._FORCE_PURE = force_pure
    try:
        return best_of(fn, repeats)
    finally:
        kernels._FORCE_PURE = saved


def cases(p):
    """(name, O(p^2)?, call) for every family, mod p^2 unless noted."""
    m2, m4 = p * p, p**4
    tables = [
        kernels.franel_table(p, m2, p),
        kernels.central_binom_table(p, m2, p),
        kernels.fpoly_table(p, m2, 3, p),
        kernels.binom_shift_table(p, m2, 1, p),
    ]
    return [
        ("franel_table", False, lambda: kernels.franel_table(p, m2, p)),
        ("central_binom_table", False, lambda: kernels.central_binom_table(p, m2, p)),
        ("binom_shift_table r=1/3", False, lambda: kernels.binom_shift_table(p, m2, pow(3, -1, m2), p)),
        ("fpoly_table x=3", False, lambda: kernels.fpoly_table(p, m2, 3, p)),
        ("weighted_cube_table w=-8", False, lambda: kernels.weighted_cube_table(p, m2, -8, p)),
        ("genfranel_table r=4", False, lambda: kernels.genfranel_table(p, m2, 4, p)),
        ("genfranel_table r=6 (mod p)", True, lambda: kernels.genfranel_table(p, p, 6, p)),
        ("triangle_weighted_sums (mod p^4)", True, lambda: kernels.triangle_weighted_sums(p, m4)),
        ("wdot, 4 tables, alternating", False, lambda: kernels.wdot(m2, True, *tables)),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=499)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    native = kernels._native is not None
    if not native:
        print("compiled kernels not built; timing the pure backend only")

    print(f"best of {args.repeats}")
    header = f"{'kernel':<34} {'p':>5} {'pure':>10} {'native':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for p in dict.fromkeys([args.prime, LARGE_PRIME]):
        for name, quadratic, call in cases(p):
            skip_pure = quadratic and p == LARGE_PRIME
            if skip_pure and not native:
                continue
            t_pure = expected = None
            if not skip_pure:
                t_pure, expected = on_backend(True, call, args.repeats)
            if native:
                t_native, got = on_backend(False, call, args.repeats)
                assert expected is None or got == expected, f"backend mismatch in {name} at p={p}"
                pure_ms = "-" if t_pure is None else f"{t_pure * 1e3:.2f}ms"
                ratio = "-" if t_pure is None else f"{t_pure / t_native:.1f}x"
                print(f"{name:<34} {p:>5} {pure_ms:>10} {t_native * 1e3:>8.2f}ms {ratio:>8}")
            else:
                print(f"{name:<34} {p:>5} {t_pure * 1e3:>8.2f}ms {'-':>10} {'-':>8}")


if __name__ == "__main__":
    main()
