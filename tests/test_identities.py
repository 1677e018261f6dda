from franelcheck.identities import (
    _weight_poly,
    run_identity_suite,
    verify_andersen,
    verify_chu_vandermonde,
    verify_eq_2_2,
    verify_hockey_stick,
    verify_lemma_2_2,
    verify_lemma_2_6_exact,
    verify_recurrence,
    verify_recurrences,
    verify_strehl_and_1_3,
)
from franelcheck.certificates import CERTIFICATES
from franelcheck.kernels.recurrences import RECURRENCES, Recurrence
from franelcheck.sequences import franel_exact


def test_recurrence_example_n1():
    # 4 f_2 = 16 f_1 + 8 f_0
    assert 4 * franel_exact(2) == 16 * franel_exact(1) + 8 * franel_exact(0)
    assert verify_recurrence("franel").passed


def test_every_table_recurrence_is_proven():
    out = verify_recurrences()
    assert out.passed, out.counterexample
    assert out.range_tested == {"families": list(RECURRENCES)}
    # every sum claim has its certificate, every entry its proof
    for name in RECURRENCES:
        assert verify_recurrence(name).passed, name
    assert set(CERTIFICATES) <= set(RECURRENCES)


def _bump(rows, d, e):
    rows = [list(row) for row in rows]
    rows[d][e] += 1
    return tuple(tuple(row) for row in rows)


def test_recurrence_mutation_flips_to_fail(monkeypatch):
    # one coefficient of the order-4 fpoly recurrence, its certificate, an
    # initial value, and the term-ratio recurrence of the shifted binomials
    rec = RECURRENCES["fpoly"]
    coeffs = list(rec.coeffs)
    coeffs[2] = _bump(coeffs[2], 1, 1)
    out = verify_recurrence("fpoly", recurrence=Recurrence(tuple(coeffs), rec.init))
    assert not out.passed and out.counterexample["part"] == "certificate"
    ce = out.counterexample
    assert ce["lhs"] != ce["rhs"]

    cert = list(CERTIFICATES["weighted_cubes"])
    en, ek, ex, c = cert[100]
    cert[100] = (en, ek, ex, c + 1)
    out = verify_recurrence("weighted_cubes", certificate=tuple(cert))
    assert not out.passed and out.counterexample["part"] == "certificate"

    rec = RECURRENCES["weighted_cubes"]
    out = verify_recurrence("weighted_cubes", recurrence=Recurrence(rec.coeffs, _bump(rec.init, 3, 1)))
    assert not out.passed and out.counterexample["part"] == "init"

    rec = RECURRENCES["shift"]
    mutant = Recurrence((_bump(rec.coeffs[0], 1, 0), rec.coeffs[1]), rec.init)
    out = verify_recurrence("shift", recurrence=mutant)
    assert not out.passed and out.counterexample["part"] == "recurrence"

    # the suite proves the table the kernel boundary reads, and names the family
    rec = RECURRENCES["franel"]
    lead = _bump(rec.coeffs[-1], 0, 0)
    monkeypatch.setitem(RECURRENCES, "franel", Recurrence(rec.coeffs[:-1] + (lead,), rec.init))
    out = verify_recurrences()
    assert not out.passed and out.counterexample["family"] == "franel"


def test_eq_2_2_small():
    out = verify_eq_2_2(8)
    assert out.passed and out.counterexample is None


def test_chu_vandermonde_small():
    # y = z = k = 2: 1 + 4 + 1 = binom(4,2)
    assert verify_chu_vandermonde(8).passed


def test_andersen_small():
    assert verify_andersen(8).passed


def test_weight_poly_values():
    # the m = 2 weight is 3x^2 + 6x + 2
    assert [_weight_poly(2, x) for x in range(4)] == [2, 11, 26, 47]
    assert _weight_poly(1, 0) == 2


def test_lemma_2_2_small_cases():
    # m = 1, n = 1: P_1(0) * 1 = 2 = 1 * binom(2,1)
    # m = 2, n = 2: P_2(0) + 2 P_2(1) = 2 + 22 = 24 = 4 * binom(4,2)
    assert verify_lemma_2_2(3, 20).passed


def test_lemma_2_2_mutation_flips_to_fail():
    def perturbed(m, x):
        return _weight_poly(m, x) + (1 if m == 2 else 0)

    out = verify_lemma_2_2(6, 60, poly=perturbed)
    assert not out.passed
    assert out.counterexample is not None
    # the counterexample reproduces the mismatch
    ce = out.counterexample
    assert ce["lhs"] != ce["rhs"]
    assert ce["m"] == 2


def test_hockey_stick_examples():
    # l=2, m=4: 1 + 3 + 6 = binom(5,3); zero column l > m included
    assert verify_hockey_stick(6, 12).passed


def test_lemma_2_6_exact_k0_is_odd_square_sum():
    # k = 0 row collapses to sum of first m odd numbers = m^2
    assert verify_lemma_2_6_exact(0, 30).passed
    assert verify_lemma_2_6_exact(8, 16).passed


def test_strehl_and_transform_small():
    assert verify_strehl_and_1_3(15).passed


def test_full_identity_suite_passes():
    outcomes = run_identity_suite()
    assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]
