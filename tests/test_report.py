"""The template renderers against the general encoders they stand in for."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from franelcheck.report import CSV_COLUMNS, CheckResult, Report, render_csv, render_json
from report_oracle import oracle_csv, oracle_json


# quotes, backslashes, commas, line breaks, control characters, non-ASCII
# (including a character outside the BMP, which JSON writes as a surrogate pair)
AWKWARD = st.text(st.sampled_from(['"', "\\", ",", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
                                   "é", "€", "\U0001f600", "a", "Z", "0", " ", ":", "{"]),
                  max_size=6)
TEXT = st.one_of(AWKWARD, st.text(max_size=6))
VALUES = st.one_of(st.integers(-(10**30), 10**30), TEXT, st.booleans(),
                   st.fractions(max_denominator=10**6))
ROWS = st.builds(
    CheckResult,
    check_id=TEXT,
    check_class=TEXT,
    prime=st.integers(2, 10**6),
    modulus_exponent=st.integers(1, 4),
    params=st.dictionaries(TEXT, VALUES, max_size=4),
    lhs=st.integers(0, 10**40),
    rhs=st.integers(0, 10**40),
    passed=st.booleans(),
    error=st.none() | TEXT,
)

# each kind of row spelled out once, so every run covers them
COVERING = [
    CheckResult("C15", "theorem", 5, 2, {}, 24, 24, True),
    CheckResult('a"b\\c,d', "lemma", 7, 1, {"k": 3}, 1, 2, False),
    CheckResult("x\ny\rz", "conj\x01é", 11, 3,
                {"r": Fraction(-1, 2), "part": 'H"1', "b": True, "a": False, "n": -7}, 0, 5, False),
    CheckResult("expr", "user", 13, 2, {"é\t": "€,\n"}, 0, 0, False, error='NonInvertibleError: "7"\\\n'),
    CheckResult("C26_x", "theorem", 17, 2, {"x": "1/2", "r": "-2/3"}, 10**30, 10**30, True),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(ROWS, max_size=5))
@example([])
@example(COVERING)
def test_renderers_match_the_general_encoders(rows):
    report = Report(rows=rows)
    assert render_json(report) == oracle_json(report)
    assert render_csv(report) == oracle_csv(report)


def test_empty_report():
    assert render_json(Report()) == "[]\n"
    assert render_csv(Report()) == ",".join(CSV_COLUMNS) + "\n"
