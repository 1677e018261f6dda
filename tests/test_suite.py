import math
import os
import subprocess
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from franelcheck import suite
from franelcheck.expr import parse
from franelcheck.modring import jacobi
from franelcheck.primes import primes_in_range
from franelcheck.report import render_csv, render_json, render_text
from franelcheck.sequences import PrimeContext, franel_exact, get_context
from franelcheck.suite import REGISTRY, check_ids, run_check, run_suite

ALL_IDS = [
    "T14_r", "C15", "C16", "C17", "C18", "C19", "C110", "C111", "C112_r",
    "K3", "K4", "T21_rx", "C25", "C26_x", "C27_x", "L24", "L25", "L26a",
    "L26b", "WOL", "LEH", "ST11_anchor", "JV", "R1a", "R1b", "R1c", "S11conj",
]


def test_registry_is_complete():
    assert set(check_ids()) == set(ALL_IDS)
    classes = {REGISTRY[c].check_class for c in ALL_IDS}
    assert classes == {"theorem", "lemma", "derived", "conjecture"}
    assert REGISTRY["R1a"].check_class == "conjecture"
    assert REGISTRY["R1c"].check_class == "derived"
    assert REGISTRY["L26b"].modulus_exponent == 4


def test_spot_values_at_p5():
    r = run_check("C15", 5)[0]
    assert (r.lhs, r.rhs, r.passed) == (24, 24, True)
    r = run_check("C111", 5)[0]
    assert (r.lhs, r.rhs) == (19, 19)
    r = run_check("L25", 5)[0]
    assert (r.lhs, r.rhs, r.modulus_exponent) == (96, 96, 3)


def test_run_check_errors():
    with pytest.raises(ValueError):
        run_check("NOPE", 5)
    with pytest.raises(ValueError):
        run_check("C15", 4)
    with pytest.raises(ValueError):
        run_check("C15", 3)


def test_c112_rows_respect_min_prime():
    rows = run_check("C112_r", 5)
    assert [r.params["r"] for r in rows] == [1, 2, 3, 4]
    rows = run_check("C112_r", 7)
    assert [r.params["r"] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert all(r.passed for r in rows)


def test_t14_skips_r_with_bad_denominator():
    rows = run_check("T14_r", 5)
    rs = [r.params["r"] for r in rows]
    assert "7/5" not in rs
    assert "-1/2" in rs
    rows7 = run_check("T14_r", 7)
    assert "7/5" in [r.params["r"] for r in rows7]


def test_t14_at_r0_reproduces_c15_sides():
    for p in (7, 11, 97):
        t14 = {r.params["r"]: r for r in run_check("T14_r", p)}
        c15 = run_check("C15", p)[0]
        assert (t14["0"].lhs, t14["0"].rhs) == (c15.lhs, c15.rhs)


def test_t14_at_negative_half_reproduces_c18_sides():
    for p in (7, 11, 97):
        t14 = {r.params["r"]: r for r in run_check("T14_r", p)}
        c18 = run_check("C18", p)[0]
        assert (t14["-1/2"].lhs, t14["-1/2"].rhs) == (c18.lhs, c18.rhs)


def test_t21_at_x1_matches_t14():
    for p in (7, 13):
        t21 = {(r.params["r"], r.params["x"]): r for r in run_check("T21_rx", p)}
        t14 = {r.params["r"]: r for r in run_check("T14_r", p)}
        for rkey, row in t14.items():
            assert t21[(rkey, "1")].lhs == row.lhs
            assert t21[(rkey, "1")].rhs == row.rhs


def test_c16_mutation_sensitivity():
    # replacing the coefficient -2/3 by -1/3 must break the check at every prime
    for p in primes_in_range(5, 97):
        row = run_check("C16", p)[0]
        m = p * p
        wrong = Fraction(-1, 3) * jacobi(p, 3)
        wrong_rhs = wrong.numerator * pow(wrong.denominator, -1, m) % m
        assert row.lhs == row.rhs
        assert row.lhs != wrong_rhs


def test_l24_rows_brute_force():
    p, m = 7, 49
    rows = run_check("L24", p)
    assert [r.params["k"] for r in rows] == list(range(1, p))
    for r in rows:
        k = r.params["k"]
        lhs = k * math.comb(2 * k, k) * math.comb(2 * (p - k), p - k) % m
        rhs = (-1) ** (2 * k // p - 1) * 2 * p % m
        assert (r.lhs, r.rhs) == (lhs, rhs) and r.passed


def test_l26_rows_brute_force():
    p = 7
    m2, m4 = p**2, p**4
    for r in run_check("L26a", p):
        k = r.params["k"]
        assert r.lhs == math.comb(p - 1, k) * math.comb(p + k, k) % m2
        assert r.rhs == (-1) ** k % m2
        assert r.passed
    rows = run_check("L26b", p)
    assert [r.params["k"] for r in rows] == list(range(p - 1))  # k = p-1 excluded
    for r in rows:
        k = r.params["k"]
        lhs = math.comb(2 * k, k) * sum(
            (2 * n + 1) * math.comb(n + k, 2 * k) for n in range(k, p)
        ) % m4
        assert r.lhs == lhs and r.passed


def test_wol_parts():
    rows = {r.params["part"]: r for r in run_check("WOL", 11)}
    assert rows["H1"].modulus_exponent == 2
    assert rows["H2"].modulus_exponent == 1
    assert rows["CB"].modulus_exponent == 3
    assert rows["CB"].lhs == math.comb(21, 10) % 11**3 == rows["CB"].rhs == 1


def test_jv_rows():
    p = 11
    rows = run_check("JV", p)
    assert len(rows) == p and all(r.passed for r in rows)


def test_s11conj_branches():
    row = run_check("S11conj", 7)[0]
    assert row.params == {"x": 2, "y": 1}
    assert row.rhs == (4 * 4 - 14) % 49
    row = run_check("S11conj", 5)[0]
    assert row.params == {"branch": "p=2 (mod 3)"}
    assert row.rhs == 0
    assert row.passed


def test_st11_anchor_small():
    row = run_check("ST11_anchor", 7)[0]
    assert row.lhs == sum(math.comb(2 * k, k) for k in range(7)) % 49
    assert row.rhs == 1  # 7 = 1 mod 3
    assert row.passed


def _fpoly_frac(n, x):
    return sum(
        Fraction(math.comb(n, k) * math.comb(k, n - k) * math.comb(2 * k, k)) * x**k
        for k in range((n + 1) // 2, n + 1)
    )


def _binom_shift_frac(r, k):
    v = Fraction(1)
    for j in range(1, k + 1):
        v *= Fraction(r + j, j)
    return v


def _modfrac(q, m):
    return q.numerator * pow(q.denominator, -1, m) % m


def test_parameterized_rows_match_exact_rational_summation():
    # both sides of the table-built rows recomputed by Fraction arithmetic
    p = 31
    m2 = p * p
    for row in run_check("T21_rx", p):
        r, x = Fraction(row.params["r"]), Fraction(row.params["x"])
        lhs = _modfrac(sum((-1) ** l * _binom_shift_frac(r, l) * _fpoly_frac(l, x) for l in range(p)), m2)
        rhs = _modfrac(sum(math.comb(2 * k, k) * x**k * _binom_shift_frac(r, k) ** 2 for k in range(p)), m2)
        assert (lhs, rhs) == (row.lhs, row.rhs), row.params
    for row in run_check("C27_x", p):
        x = Fraction(row.params["x"])
        lhs = _modfrac(sum(Fraction((-1) ** l, l) * _fpoly_frac(l, x) for l in range(1, p)), m2)
        rhs = _modfrac(p * sum(x**k / Fraction(k * k) for k in range((p + 1) // 2, p)), m2)
        assert (lhs, rhs) == (row.lhs, row.rhs), row.params
    for row in run_check("C112_r", p):
        r = row.params["r"]
        gf = lambda k: sum(math.comb(k, j) ** r for j in range(k + 1))
        lhs = _modfrac(sum(Fraction((-1) ** (k * r) * gf(k), k ** (r - 1)) for k in range(1, p)), p)
        assert (lhs, 0) == (row.lhs, row.rhs), row.params
    row = run_check("R1b", p)[0]
    fr = [sum(math.comb(n, k) ** 3 for k in range(n + 1)) for n in range(p)]
    assert row.lhs == _modfrac(sum(Fraction(fr[k], 8**k) for k in range(p)), m2)
    row = run_check("R1c", p)[0]
    assert row.lhs == _modfrac(sum(Fraction(fr[k], k * 8**k) for k in range(1, p)), p)


def _single_row_sides(p):
    """Both sides of the single-row checks at p by exact arithmetic: check id
    -> (lhs, rhs) reduced mod p^e."""
    fr = [franel_exact(k) for k in range(p)]
    ce = [math.comb(2 * k, k) for k in range(p)]
    q = (2 ** (p - 1) - 1) // p
    chi = 1 if p % 3 == 1 else -1

    def moment(r):
        return sum((-1) ** k * k**r * fr[k] for k in range(p))

    sides = {
        "C15": (moment(0), chi, 2),
        "C16": (moment(1), Fraction(-2, 3) * chi, 2),
        "C17": (moment(2), Fraction(10, 27) * chi, 2),
        "K3": (moment(3), Fraction(-10, 81) * chi, 2),
        "K4": (moment(4), Fraction(-14, 243) * chi, 2),
        "C18": (sum(Fraction(ce[k] * fr[k], (-4) ** k) for k in range(p)),
                sum(Fraction(ce[k] ** 3, 16**k) for k in range(p)), 2),
        "C19": (sum(Fraction((-1) ** k * fr[k], k) for k in range(1, p)), 0, 2),
        "C110": (sum(Fraction((-1) ** k * fr[k], k * k) for k in range(1, p)), 0, 1),
        "C111": (sum(Fraction((-1) ** k * fr[k - 1], k) for k in range(1, p)), 3 * q + 3 * p * q * q, 2),
        "C25": (sum((-1) ** k * (3 * k + 2) * fr[k] for k in range(p)), 0, 2),
        "L25": (fr[p - 1], 1 + 3 * p * q + 3 * p**2 * q**2, 3),
        "LEH": (sum(Fraction(1, j) for j in range(1, (p + 1) // 2)), -2 * q + p * q * q, 2),
        "ST11_anchor": (sum(ce), chi, 2),
        "R1b": (sum(Fraction(fr[k], 8**k) for k in range(p)), chi, 2),
        "R1c": (sum(Fraction(fr[k], k * 8**k) for k in range(1, p)), 3 * q, 1),
    }
    return {cid: (_modfrac(Fraction(lhs), p**e), _modfrac(Fraction(rhs), p**e)) for cid, (lhs, rhs, e) in sides.items()}


def test_single_row_checks_match_exact_arithmetic():
    statements = {cid for cid, spec in REGISTRY.items() if spec.statement}
    for p in primes_in_range(5, 31):
        sides = _single_row_sides(p)
        assert statements <= set(sides)
        for cid, want in sides.items():
            (row,) = run_check(cid, p)
            assert (row.lhs, row.rhs) == want, (cid, p)


def test_statement_exponents_match_their_registered_exponents():
    for cid, spec in REGISTRY.items():
        if spec.statement:
            assert parse(spec.statement).modulus_exponent == spec.modulus_exponent, cid


def test_statements_read_tables_from_the_context_they_are_given():
    ctx = PrimeContext(13)
    assert REGISTRY["C15"].evaluate(ctx) == REGISTRY["C15"].evaluate(get_context(13))
    assert ctx._cache  # the franel table was built in the context given


def test_statements_compile_on_first_use_not_at_import():
    code = "import franelcheck.suite as s; print(s.expr.compile_expr.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(suite.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


def test_full_suite_small_range_passes():
    rep = run_suite(primes=primes_in_range(5, 23))
    assert not rep.failures()
    assert not rep.errors()
    assert rep.exit_code() == 0
    assert rep.exit_code(strict_conjectures=True) == 0


def test_suite_row_ordering_and_filters():
    rep = run_suite(ids=["C15"], primes=[5])
    assert len(rep.rows) == 1
    rep = run_suite(ids=["C16", "C15"], primes=[7, 5])
    assert [(r.check_id, r.prime) for r in rep.rows] == [
        ("C15", 5), ("C15", 7), ("C16", 5), ("C16", 7),
    ]
    assert run_suite(ids=["C15", "C16", "C15"], primes=[7, 5]).rows == rep.rows


def test_suite_errors():
    with pytest.raises(ValueError):
        run_suite(primes=[])
    with pytest.raises(ValueError):
        run_suite(primes=[4])
    with pytest.raises(ValueError):
        run_suite(ids=["NOPE"], primes=[5])
    with pytest.raises(ValueError):
        run_suite(primes=[3])  # prime, but below every check's smallest admissible p
    with pytest.raises(ValueError):
        run_suite(ids=[], primes=[5])


POOLS: list["RecordingPool"] = []


class RecordingPool:
    """A stand-in for ProcessPoolExecutor: runs each task at once, in process,
    and records the pool size asked for and the primes in submission order."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = []
        POOLS.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, p, *args):
        self.submitted.append(p)
        future = Future()
        future.set_result(fn(p, *args))
        return future


def test_pool_is_capped_at_the_prime_count_and_fed_largest_first(monkeypatch):
    POOLS.clear()
    monkeypatch.setattr(suite, "ProcessPoolExecutor", RecordingPool)
    ids, primes = ["C15", "T14_r", "C112_r"], [5, 7, 11, 13]
    expected = render_json(run_suite(ids=ids, primes=primes, workers=1))
    assert POOLS == []  # one worker runs in process
    assert render_json(run_suite(ids=ids, primes=[13, 5, 11, 7], workers=64)) == expected
    assert render_json(run_suite(ids=ids, primes=primes, workers=2)) == expected
    assert [(pool.max_workers, pool.submitted) for pool in POOLS] == [
        (4, [13, 11, 7, 5]),
        (2, [13, 11, 7, 5]),
    ]
    # a single prime runs in process whatever --workers says
    run_suite(ids=ids, primes=[7], workers=64)
    assert len(POOLS) == 2


class TwoProcessPool(ProcessPoolExecutor):
    """A real process pool that starts at most two processes whatever it is asked."""

    def __init__(self, max_workers):
        super().__init__(max_workers=min(max_workers, 2))


def test_suite_deterministic_across_workers(monkeypatch):
    monkeypatch.setattr(suite, "ProcessPoolExecutor", TwoProcessPool)
    primes = primes_in_range(5, 31)
    reports = [run_suite(primes=primes, workers=w) for w in (1, 2, 8)]
    for render in (render_json, render_csv, render_text):
        assert render(reports[0]) == render(reports[1]) == render(reports[2])
