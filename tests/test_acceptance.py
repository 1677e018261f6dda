"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Spot values are
recomputed here by exact integer summation (math.comb + Fraction), fully
independent of the table-based suite code paths.
"""

import json
import math
import time
from fractions import Fraction

from franelcheck.cli import main as cli_main
from franelcheck.expr import eval_congruence, parse
from franelcheck.identities import (
    verify_andersen,
    verify_chu_vandermonde,
    verify_eq_2_2,
    verify_hockey_stick,
    verify_lemma_2_2,
    verify_lemma_2_6_exact,
    verify_recurrences,
    verify_strehl_and_1_3,
)
from franelcheck.mining import check_3adic_integrality, cornacchia_x2_3y2, scan_ar
from franelcheck.primes import primes_in_range
from franelcheck.sequences import (
    apery_exact,
    franel_exact,
    franel_exact_list,
    franel_poly_exact,
    get_context,
)
from franelcheck.suite import run_check, run_suite

THEOREM_SUITE_IDS = [
    "C15", "C16", "C17", "C18", "C19", "C110", "C111", "C112_r",
    "K3", "K4", "C25", "C26_x", "C27_x", "T14_r", "T21_rx",
    "L24", "L25", "L26a", "L26b", "WOL", "LEH", "ST11_anchor", "JV",
]

CONJECTURE_IDS = ["R1a", "R1b", "R1c", "S11conj"]


def _exact_mod(q: Fraction, m: int) -> int:
    return q.numerator * pow(q.denominator, -1, m) % m


def test_criterion_1_theorem_suite_to_499():
    start = time.perf_counter()
    primes = primes_in_range(5, 499)
    report = run_suite(ids=THEOREM_SUITE_IDS, primes=primes, workers=1)
    elapsed = time.perf_counter() - start
    assert not report.failures(), report.failures()[:5]
    assert not report.errors()
    assert elapsed < 120, f"suite took {elapsed:.1f}s, expected well under 2 minutes"
    print(f"PASS criterion 1: theorem suite, {len(report.rows)} rows over "
          f"{len(primes)} primes <= 499, all lhs = rhs ({elapsed:.1f}s)")


def test_criterion_2_spot_values_at_p5():
    f = [franel_exact(n) for n in range(5)]

    # C15: alternating sum vs the mod-3 character of p
    lhs15 = sum((-1) ** k * f[k] for k in range(5)) % 25
    rhs15 = (-1) % 25  # 5 = 2 (mod 3) so the character is -1
    assert lhs15 == rhs15 == 24
    got = run_check("C15", 5)[0]
    assert (got.lhs, got.rhs) == (24, 24)

    # C16: first moment vs -2/3 times the character
    lhs16 = sum((-1) ** k * k * f[k] for k in range(5)) % 25
    rhs16 = _exact_mod(Fraction(-2, 3) * -1, 25)
    assert lhs16 == rhs16 == 9
    got = run_check("C16", 5)[0]
    assert (got.lhs, got.rhs) == (9, 9)

    # C111: shifted alternating sum with 1/k vs Fermat-quotient form
    lhs111 = _exact_mod(sum(Fraction((-1) ** k * f[k - 1], k) for k in range(1, 5)), 25)
    q5 = (pow(2, 4) - 1) // 5  # = 3 exactly
    rhs111 = (3 * q5 + 3 * 5 * q5 * q5) % 25
    assert lhs111 == rhs111 == 19
    got = run_check("C111", 5)[0]
    assert (got.lhs, got.rhs) == (19, 19)

    # L25: f_4 mod 125 vs 1 + 3 p q + 3 p^2 q^2
    lhs24 = franel_exact(4) % 125
    rhs24 = (1 + 3 * 5 * q5 + 3 * 25 * q5 * q5) % 125
    assert lhs24 == rhs24 == 96
    got = run_check("L25", 5)[0]
    assert (got.lhs, got.rhs) == (96, 96)

    print("PASS criterion 2: spot values at p=5 "
          "(24, 9, 19 mod 25; 96 mod 125) by exact summation")


def test_criterion_3_oracle_equivalence():
    for p in primes_in_range(5, 97):
        exact = franel_exact_list(p - 1)
        for e in (1, 2, 3):
            m = p**e
            table = get_context(p).franel(e)
            assert table == [v % m for v in exact], (p, e)
    for n in range(41):
        assert apery_exact(n, "definition") == apery_exact(n, "via_franel")
        for x in range(-3, 4):
            franel_poly_exact(n, x)  # asserts the two forms agree
    print("PASS criterion 3: mod tables match exact values for p <= 97, e <= 3; "
          "apery routes and polynomial forms agree to n = 40")


def test_criterion_4_identity_suite():
    outcomes = [
        verify_recurrences(),
        verify_eq_2_2(25),
        verify_chu_vandermonde(20),
        verify_andersen(20),
        verify_lemma_2_2(6, 60),
        verify_hockey_stick(20, 40),
        verify_lemma_2_6_exact(20, 40),
        verify_strehl_and_1_3(40),
    ]
    bad = [o for o in outcomes if not o.passed]
    assert not bad, bad
    print("PASS criterion 4: all 8 exact identity checks at stated bounds")


def test_criterion_5_moment_constant_recovery():
    primes = primes_in_range(5, 499)
    expected = {1: -1, 2: 5, 3: -15, 4: -63}
    for r, value in expected.items():
        result = scan_ar(r, primes)
        assert result.value == value, (r, result)
        assert result.odd
        assert len(result.primes_used) >= 3
    print("PASS criterion 5: recovered a_1=-1, a_2=5, a_3=-15, a_4=-63, all odd, "
          f"consistent over primes <= 499")


def test_criterion_6_conjectures_hold_at_desk_scale():
    primes = primes_in_range(5, 499)
    report = run_suite(ids=CONJECTURE_IDS, primes=primes, workers=1)
    assert not report.failures(), report.failures()[:5]
    assert not report.errors()
    # representation branch coverage for the character-split conjecture
    rows = [r for r in report.rows if r.check_id == "S11conj"]
    for r in rows:
        if r.prime % 3 == 1:
            rep = cornacchia_x2_3y2(r.prime)
            assert r.params == {"x": rep.x, "y": rep.y}
            assert rep.x**2 + 3 * rep.y**2 == r.prime
        else:
            assert r.rhs == 0
    violations = check_3adic_integrality(2187)
    assert violations == [], f"CONJECTURE COUNTEREXAMPLE(S): {violations}"
    print("PASS criterion 6: conjecture checks hold for all primes <= 499; "
          "3-adic margins nonnegative to n = 2187")


def test_criterion_7_dsl_equivalence():
    primes = primes_in_range(5, 97)
    encodings = {
        "C15": "sum(k=0..p-1, (-1)^k * f(k)) ≡ jacobi(p,3) (mod p^2)",
        "C16": "sum(k=0..p-1, (-1)^k * k * f(k)) ≡ -(2/3) * jacobi(p,3) (mod p^2)",
        "C19": "sum(k=1..p-1, (-1)^k * f(k) / k) ≡ 0 (mod p^2)",
        "C111": "sum(k=1..p-1, (-1)^k * f(k-1) / k) ≡ 3*q2() + 3*p*q2()^2 (mod p^2)",
        "L25": "f(p-1) ≡ 1 + 3*p*q2() + 3*p^2*q2()^2 (mod p^3)",
    }
    for check_id, text in encodings.items():
        dsl_rows = eval_congruence(parse(text), primes).rows
        builtin_rows = run_suite(ids=[check_id], primes=primes).rows
        assert [(r.prime, r.lhs, r.rhs, r.passed) for r in dsl_rows] == [
            (r.prime, r.lhs, r.rhs, r.passed) for r in builtin_rows
        ], check_id
        assert all(r.passed for r in dsl_rows)
    false_stmt = parse("sum(k=0..p-1,(-1)^k*f(k)) ≡ 1 (mod p^2)")
    rep = eval_congruence(false_stmt, primes_in_range(5, 23))
    assert [r.prime for r in rep.rows if not r.passed] == [5, 11, 17, 23]
    print("PASS criterion 7: DSL rows identical to built-in checks over 5..97; "
          "false statement fails exactly at p = 2 (mod 3)")


def test_criterion_8_determinism_across_workers(tmp_path, capsys):
    payloads = []
    for workers in (1, 8):
        out_path = tmp_path / f"workers{workers}.json"
        code = cli_main([
            "verify", "--primes", "5..199", "--format", "json",
            "--workers", str(workers), "--out", str(out_path),
        ])
        assert code == 0
        payloads.append(out_path.read_bytes())
    assert payloads[0] == payloads[1]
    rows = json.loads(payloads[0])
    assert len(rows) > 20000
    print(f"PASS criterion 8: verify 5..199 JSON byte-identical for workers 1 and 8 "
          f"({len(payloads[0])} bytes, {len(rows)} rows)")
