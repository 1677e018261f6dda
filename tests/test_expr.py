import contextlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franelcheck import expr, kernels
from franelcheck.expr import (
    EXACT_INDEX_CAP,
    SUM_LENGTH_CAP,
    BinOp,
    Call,
    CongruenceStmt,
    EvalError,
    Neg,
    Num,
    ParseError,
    Sum,
    Var,
    eval_congruence,
    eval_expr,
    parse,
    unparse,
)
from franelcheck.modring import NonInvertibleError, ring_new
from franelcheck.primes import primes_in_range
from franelcheck.sequences import binom_exact, franel_exact, generalized_franel, get_context
from franelcheck.suite import run_suite


def test_parse_congruence_statement():
    stmt = parse("sum(k=0..p-1, (-1)^k * f(k)) ≡ jacobi(p,3) (mod p^2)")
    assert isinstance(stmt, CongruenceStmt)
    assert stmt.modulus_exponent == 2
    assert isinstance(stmt.lhs, Sum)
    assert stmt.rhs == Call("jacobi", (Var("p"), Num(3)))


def test_parse_ascii_congruence_marker():
    a = parse("f(1) ≡ 2 (mod p^1)")
    b = parse("f(1) =mod= 2 (mod p^1)")
    assert a == b


def test_parse_unicode_minus_sign():
    assert parse("1−2") == parse("1-2")
    assert parse("−1^k") == parse("-1^k")


def test_statement_rhs_ending_in_variable():
    stmt = parse("sum(k=0..p-1, f(k)) ≡ 3*p (mod p^2)")
    assert isinstance(stmt, CongruenceStmt)
    assert stmt.rhs == BinOp("*", Num(3), Var("p"))
    assert parse(unparse(stmt)) == stmt


def test_parse_bare_expression():
    ast = parse("binom(2*3, 3)")
    assert ast == Call("binom", (BinOp("*", Num(2), Num(3)), Num(3)))
    assert eval_expr(ast, ring_new(7, 2)).value == 20


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("sum(k=0..p, f(k)")
    assert err.value.line == 1 and err.value.col == 17
    with pytest.raises(ParseError):
        parse("1 +")
    with pytest.raises(ParseError):
        parse("nosuch(3)")
    with pytest.raises(ParseError):
        parse("f(1, 2)")  # arity
    with pytest.raises(ParseError):
        parse("f(1) ≡ 1 (mod p^7)")
    with pytest.raises(ParseError):
        parse("f(1) ≡ 1 (mod q^2)")


def test_precedence_and_associativity():
    big = ring_new(101, 1)
    assert eval_expr(parse("1-2-3"), big).value == (-4) % 101
    assert eval_expr(parse("2*3^2"), big).value == 18
    # unary minus binds looser than ^
    assert parse("-1^k") == Neg(BinOp("^", Num(1), Var("k")))
    assert eval_expr(parse("-2^2"), big).value == (-4) % 101
    assert eval_expr(parse("(-2)^2"), big).value == 4
    assert eval_expr(parse("6/3/2"), big).value == 1
    with pytest.raises(ParseError):
        parse("2^3^2")  # ^ is not chainable without parens


def test_eval_builtins():
    r53 = ring_new(5, 3)
    assert eval_expr(parse("f(4)"), r53).value == 96
    assert eval_expr(parse("f(7)"), r53).value == 104960 % 125  # beyond p: exact fallback
    assert eval_expr(parse("sum(k=1..4, 1/k^2)"), ring_new(5, 1)).value == 0
    assert eval_expr(parse("A(2)"), ring_new(7, 2)).value == 73 % 49
    assert eval_expr(parse("fr(2, 3)"), ring_new(7, 2)).value == 20
    assert eval_expr(parse("fx(2, 2)"), ring_new(7, 2)).value == 32
    assert eval_expr(parse("H(2)"), ring_new(5, 2)).value == 14
    assert eval_expr(parse("H2(p-1)"), ring_new(7, 1)).value == 0
    assert eval_expr(parse("q2()"), ring_new(5, 2)).value == 3
    assert eval_expr(parse("jacobi(p, 3)"), ring_new(5, 2)).value == 24
    assert eval_expr(parse("inv(3)"), ring_new(5, 2)).value == 17
    assert eval_expr(parse("2^(-1)"), ring_new(5, 2)).value == 13


def test_eval_errors():
    r53 = ring_new(5, 3)
    with pytest.raises(NonInvertibleError):
        eval_expr(parse("1/p"), r53)
    with pytest.raises(EvalError):
        eval_expr(parse("x+1"), r53)  # unbound variable
    with pytest.raises(EvalError):
        eval_expr(parse("2^q2()"), r53)  # residue-valued exponent
    with pytest.raises(EvalError):
        eval_expr(parse("2^(0-1)"), r53)  # negative exponent must be a literal
    with pytest.raises(EvalError):
        eval_expr(parse("sum(k=1/2..3, k)"), r53)  # non-integer bound
    with pytest.raises(NonInvertibleError):
        eval_expr(parse("H(p)"), r53)
    with pytest.raises(NonInvertibleError, match="^120 is divisible by p=5 in PrimePowerRing"):
        eval_expr(parse("sum(k=0-p..0-p, 1/k)"), r53)  # residues are canonical
    with pytest.raises(EvalError):
        eval_expr(parse("binom(p, q2())"), r53)
    # an integer power checks its exponent before it evaluates its base
    with pytest.raises(EvalError, match="negative exponent in integer context$"):
        eval_expr(parse("sum(k=1..x^(0-1), 1)"), r53)


def test_integer_division_by_zero_is_an_error_row():
    cases = {
        "sum(k=1..p/0, 1) ≡ 0 (mod p^1)": "sum bound is not an exact integer: {p}/0",
        "2^(1/0) ≡ 0 (mod p^1)": "exponent must be an integer expression: 1/0",
    }
    for text, message in cases.items():
        rep = eval_congruence(parse(text), [5, 7])
        assert [r.prime for r in rep.rows] == [5, 7]
        for row in rep.rows:
            assert row.error == message.format(p=row.prime) + " is a division by zero"
        assert rep.exit_code() == 1


@pytest.mark.parametrize(
    "text,cap",
    [
        ("f(p^p)", "f() index is past the cap EXACT_INDEX_CAP = 2000"),
        ("A(13^p)", "A() index is past the cap EXACT_INDEX_CAP = 2000"),
        ("fr(p^10, p)", "fr() power is past the cap EXACT_POWER_CAP = 64"),
        ("fr(3, p^p)", "fr() index is past the cap EXACT_INDEX_CAP = 2000"),
        ("sum(k=0..13^p, k)", "sum length is past the cap SUM_LENGTH_CAP = 1000000"),
        ("sum(k=0..13^p, 1)", "sum length is past the cap SUM_LENGTH_CAP = 1000000"),
        ("binom(13^p, p^3)", "binom() factor count is past the cap EXACT_INDEX_CAP = 2000"),
        ("binom(-13^p, p^3)", "binom() factor count is past the cap EXACT_INDEX_CAP = 2000"),
        ("2^(2^(p^p))", "integer power size in bits is past the cap POWER_BITS_CAP = 1048576"),
    ],
)
def test_exact_arithmetic_past_a_cap_is_an_error_row(text, cap):
    start = time.perf_counter()
    rep = eval_congruence(parse(f"{text} ≡ 0 (mod p^2)"), [101, 103])
    assert time.perf_counter() - start < 1
    assert [row.error for row in rep.rows] == [cap, cap]
    assert rep.exit_code() == 1


def test_exact_arithmetic_below_the_caps_still_runs():
    assert EXACT_INDEX_CAP == 2000 and SUM_LENGTH_CAP == 10**6
    ring = ring_new(5, 2)
    assert eval_expr(parse("f(2000)"), ring).value == franel_exact(2000) % 25
    assert eval_expr(parse("fr(64, 5)"), ring).value == sum(math.comb(5, j) ** 64 for j in range(6)) % 25
    assert eval_expr(parse("binom(13^p, 2000)"), ring).value == binom_exact(13**5, 2000) % 25
    assert eval_expr(parse("sum(k=1..10^6, 1)"), ring).value == 10**6 % 25


def test_binom_outside_the_table_matches_binom_exact():
    for p in (5, 7):
        for e in (1, 3):
            ring = ring_new(p, e)
            for n in list(range(-2 * p, 0)) + list(range(2 * p, 3 * p + 2)):
                for k in range(0, 3 * p + 3, 2):
                    got = eval_expr(Call("binom", (Num(n), Num(k))), ring).value
                    assert got == binom_exact(n, k) % p**e, (p, e, n, k)
            # inside the table, including k > n
            assert eval_expr(parse("binom(2*p-1, 2*p)"), ring).value == 0
            assert eval_expr(parse("binom(2*p-1, p)"), ring).value == math.comb(2 * p - 1, p) % p**e


def test_eval_with_bindings():
    ring = ring_new(7, 2)
    out = eval_expr(parse("x^2 + 1"), ring, bindings={"x": ring.residue(5)})
    assert out.value == 26
    with pytest.raises(EvalError):
        eval_expr(parse("x"), ring, bindings={"x": ring_new(5, 2).residue(1)})


def test_sum_bounds_integer_domain():
    ring = ring_new(13, 1)
    # (p-1)/2 is an exact integer bound
    assert eval_expr(parse("sum(k=1..(p-1)/2, 1)"), ring).value == 6
    # empty sums, also with a constant body
    assert eval_expr(parse("sum(k=3..2, f(k))"), ring).value == 0
    assert eval_expr(parse("sum(k=3..1, 5)"), ring).value == 0
    # an inner sum whose body reads an enclosing index, with constant or
    # folded or integer-power bounds, is summed again for each outer index
    assert eval_expr(parse("sum(k=1..3, sum(j=1..2, k))"), ring).value == 12
    assert eval_expr(parse("sum(k=1..3, sum(j=2^0..2^1, k))"), ring).value == 12
    assert eval_expr(parse("sum(k=1..3, sum(j=0+1..4/2, k))"), ring).value == 12
    assert eval_expr(parse("sum(k=1..3, sum(j=1..2, j) * k)"), ring).value == 18 % 13
    assert eval_expr(parse("sum(k=1..3, sum(j=1..2, sum(i=0..1, k + i)))"), ring).value == 30 % 13
    # an inner index shadows the outer one only inside the inner sum
    assert eval_expr(parse("sum(k=1..3, sum(k=k..3, k) * k)"), ring).value == 25 % 13


def test_eval_congruence_matches_builtin_rows():
    # hand-written checks only; the registry's statements are compared with
    # exact arithmetic in tests/test_suite.py
    primes = primes_in_range(5, 97)
    encodings = {
        "C16": "sum(k=0..p-1, (-1)^k * k * f(k)) ≡ -(2/3) * jacobi(p,3) (mod p^2)",
        "C111": "sum(k=1..p-1, (-1)^k * f(k-1) / k) ≡ 3*q2() + 3*p*q2()^2 (mod p^2)",
    }
    for check_id, text in encodings.items():
        rep = eval_congruence(parse(text), primes)
        builtin = run_suite(ids=[check_id], primes=primes)
        got = [(r.prime, r.lhs, r.rhs, r.passed) for r in rep.rows]
        want = [(r.prime, r.lhs, r.rhs, r.passed) for r in builtin.rows]
        assert got == want, check_id


def test_eval_congruence_false_statement():
    stmt = parse("sum(k=0..p-1,(-1)^k*f(k)) ≡ 1 (mod p^2)")
    rep = eval_congruence(stmt, primes_in_range(5, 23))
    failing = [r.prime for r in rep.rows if not r.passed]
    assert failing == [p for p in primes_in_range(5, 23) if p % 3 == 2]
    assert rep.exit_code() == 1


def test_eval_congruence_reports_errors_not_failures():
    stmt = parse("1/p ≡ 0 (mod p^2)")
    rep = eval_congruence(stmt, [5, 7])
    assert all(r.error for r in rep.rows)
    assert not rep.failures()
    assert rep.errors()
    assert rep.exit_code() == 1


def test_eval_congruence_empty_primes():
    with pytest.raises(ValueError):
        eval_congruence(parse("f(1) ≡ 2 (mod p^1)"), [])


def test_unparse_readable():
    stmt = parse("sum(k=1..p-1, (-1)^k * f(k-1) / k) ≡ 3*q2() (mod p^2)")
    text = unparse(stmt)
    assert "≡" in text and "(mod p^2)" in text
    assert parse(text) == stmt


# --- round-trip property ------------------------------------------------------

_BUILTINS = [("binom", 2), ("f", 1), ("fx", 2), ("fr", 2), ("A", 1),
             ("H", 1), ("H2", 1), ("q2", 0), ("jacobi", 2), ("inv", 1)]
_NAMES = ["p", "k", "j", "n", "x", "y"]


def _random_ast(rng, depth, scope):
    choices = ["num", "var", "neg", "binop", "pow"]
    if depth > 0:
        choices += ["sum", "call", "call"]
    kind = rng.choice(choices)
    if kind == "num":
        return Num(rng.randrange(0, 50))
    if kind == "var":
        return Var(rng.choice(scope) if scope else "p")
    if kind == "neg":
        return Neg(_random_ast(rng, depth - 1, scope))
    if kind == "binop":
        op = rng.choice("+-*/")
        return BinOp(op, _random_ast(rng, depth - 1, scope), _random_ast(rng, depth - 1, scope))
    if kind == "pow":
        # grammar restricts both sides of ^ to atoms
        return BinOp("^", _random_atom(rng, depth - 1, scope), _random_atom(rng, depth - 1, scope))
    if kind == "sum":
        idx = rng.choice([n for n in _NAMES if n != "p"])
        return Sum(
            idx,
            _random_ast(rng, depth - 1, scope),
            _random_ast(rng, depth - 1, scope),
            _random_ast(rng, depth - 1, scope + [idx]),
        )
    name, arity = rng.choice(_BUILTINS)
    return Call(name, tuple(_random_ast(rng, depth - 1, scope) for _ in range(arity)))


def _random_atom(rng, depth, scope):
    kind = rng.choice(["num", "var", "call"] if depth > 0 else ["num", "var"])
    if kind == "num":
        return Num(rng.randrange(0, 50))
    if kind == "var":
        return Var(rng.choice(scope) if scope else "p")
    name, arity = rng.choice(_BUILTINS)
    return Call(name, tuple(_random_ast(rng, depth - 1, scope) for _ in range(arity)))


def test_unparse_parse_roundtrip_1000_random_asts():
    rng = random.Random(11171140)
    for i in range(1000):
        ast = _random_ast(rng, depth=4, scope=["p"])
        text = unparse(ast)
        assert parse(text) == ast, f"case {i}: {text}"
        stmt = CongruenceStmt(ast, _random_ast(rng, depth=3, scope=["p"]), rng.randrange(1, 5))
        assert parse(unparse(stmt)) == stmt


# --- generated ASTs: round trip, and the compiler against an exact oracle ------

_INDICES = ("i", "j", "k")


def _int_leaves(scope):
    leaves = [st.builds(Num, st.integers(0, 6)), st.just(Var("p"))]
    if scope:
        leaves.append(st.sampled_from([Var(name) for name in scope]))
    return st.one_of(leaves)


def _small_ints(scope, depth):
    """Integer-context expressions with small values, some inexact or negative."""
    leaf = _int_leaves(scope)
    if depth == 0:
        return leaf
    sub = _small_ints(scope, depth - 1)
    return st.one_of(
        leaf,
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(BinOp, st.just("/"), sub, st.builds(Num, st.integers(0, 3))),
    )


def _bounds(scope):
    leaf = _int_leaves(scope)
    return st.one_of(
        leaf,
        st.builds(BinOp, st.sampled_from("+-"), leaf, st.builds(Num, st.integers(0, 3))),
        st.builds(BinOp, st.just("/"), leaf, st.builds(Num, st.integers(0, 2))),
        st.builds(
            BinOp,
            st.just("^"),
            leaf,
            st.one_of(st.builds(Num, st.integers(0, 1)), st.just(Neg(Num(1)))),
        ),
    )


def _exponents(scope):
    options = [st.builds(Num, st.integers(0, 4)), st.builds(Neg, st.builds(Num, st.integers(0, 3)))]
    if scope:
        index = st.sampled_from([Var(name) for name in scope])
        options += [index, st.builds(BinOp, st.just("-"), index, st.builds(Num, st.integers(0, 3)))]
    return st.one_of(options)


@st.composite
def _asts(draw, scope=(), depth=3):
    """Ring-valued ASTs over Num, p, sum indices, + - * / ^, sum, binom and f."""
    kinds = ["leaf"] if depth == 0 else ["leaf", "neg", "arith", "pow", "sum", "sum", "binom", "f"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        leaves = [_int_leaves(scope), st.builds(Num, st.integers(7, 40))]
        if scope:  # favour indices, including those of enclosing sums
            leaves.append(st.sampled_from([Var(name) for name in scope]))
        return draw(st.one_of(leaves))
    if kind == "neg":
        return Neg(draw(_asts(scope, depth - 1)))
    if kind == "arith":
        op = draw(st.sampled_from("+-*/"))
        return BinOp(op, draw(_asts(scope, depth - 1)), draw(_asts(scope, depth - 1)))
    if kind == "pow":
        return BinOp("^", draw(_asts(scope, depth - 1)), draw(_exponents(scope)))
    if kind == "sum":
        index = draw(st.sampled_from(_INDICES))
        # constant bounds half of the time, also for a sum inside a sum
        bound_scope = draw(st.sampled_from([scope, ()]))
        lower, upper = draw(_bounds(bound_scope)), draw(_bounds(bound_scope))
        return Sum(index, lower, upper, draw(_asts(scope + (index,), depth - 1)))
    if kind == "binom":
        return Call("binom", (draw(_small_ints(scope, 2)), draw(_small_ints(scope, 1))))
    return Call("f", (draw(_small_ints(scope, 1)),))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lhs=_asts(), rhs=_asts(depth=2), e=st.integers(1, 4))
def test_parse_unparse_roundtrip(lhs, rhs, e):
    assert parse(unparse(lhs)) == lhs
    stmt = CongruenceStmt(lhs, rhs, e)
    assert parse(unparse(stmt)) == stmt


class _Undefined(Exception):
    pass


def _exact_int(node, p, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env.get(node.name, p)
    if isinstance(node, Neg):
        return -_exact_int(node.operand, p, env)
    if not isinstance(node, BinOp):
        raise _Undefined("sums and calls are not integers")
    a, b = _exact_int(node.left, p, env), _exact_int(node.right, p, env)
    if node.op == "^":
        if b < 0:
            raise _Undefined("negative exponent")
        return a**b
    if node.op == "/":
        if b == 0 or a % b:
            raise _Undefined("inexact division")
        return a // b
    return {"+": a + b, "-": a - b, "*": a * b}[node.op]


def _exact(node, p, env):
    """The value of node over the rationals; _Undefined where the ring has
    none: a divisor of positive p-adic valuation, or an invalid argument."""

    def unit(x):
        if x.numerator % p == 0:
            raise _Undefined(f"{x} is not a p-adic unit")
        return x

    if isinstance(node, (Num, Var)):
        return Fraction(_exact_int(node, p, env))
    if isinstance(node, Neg):
        return -_exact(node.operand, p, env)
    if isinstance(node, Sum):
        lo, hi = _exact_int(node.lower, p, env), _exact_int(node.upper, p, env)
        return sum((_exact(node.body, p, {**env, node.index: i}) for i in range(lo, hi + 1)), Fraction(0))
    if isinstance(node, Call):
        args = [_exact_int(arg, p, env) for arg in node.args]
        if min(args[-1:]) < 0:
            raise _Undefined("negative argument")
        if node.name == "binom":
            return Fraction(binom_exact(*args))
        if node.name == "f":
            return Fraction(franel_exact(*args))
        if node.name == "fr":
            if args[0] < 1:
                raise _Undefined("power below 1")
            return Fraction(generalized_franel(args[1], args[0]))
        if args[0] >= p:  # H, H2: the language gives them no value past p - 1
            raise _Undefined("harmonic index past p - 1")
        order = 1 if node.name == "H" else 2
        return sum((Fraction(1, j**order) for j in range(1, args[0] + 1)), Fraction(0))
    a = _exact(node.left, p, env)
    if node.op == "^":
        x = _exact_int(node.right, p, env)
        if x >= 0:
            return a**x
        if not (isinstance(node.right, Neg) and isinstance(node.right.operand, Num)):
            raise _Undefined("negative exponent that is not a literal")
        return unit(a) ** x
    b = _exact(node.right, p, env)
    if node.op == "/":
        return a / unit(b)
    return {"+": a + b, "-": a - b, "*": a * b}[node.op]


@st.composite
def _nested_sums(draw):
    """A sum over a few outer indices of a sum whose bounds are fixed at the
    prime and whose body reads the outer index."""
    outer = draw(st.sampled_from(_INDICES))
    inner = draw(st.sampled_from([name for name in _INDICES if name != outer]))
    lower, upper = draw(_bounds(())), draw(_bounds(()))
    term = draw(_asts((outer, inner), depth=1))
    body = BinOp(draw(st.sampled_from("+*")), Var(outer), term)
    first, last = draw(st.integers(0, 2)), draw(st.integers(2, 4))
    return Sum(outer, Num(first), Num(last), Sum(inner, lower, upper, body))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ast=st.one_of(_asts(), _nested_sums()), p=st.sampled_from([5, 7, 11]), e=st.integers(1, 4))
def test_compiled_evaluator_matches_exact_arithmetic(ast, p, e):
    m = p**e
    try:
        want = _exact(ast, p, {})
    except _Undefined:
        with pytest.raises((EvalError, NonInvertibleError)):
            eval_expr(ast, ring_new(p, e))
        return
    assert eval_expr(ast, ring_new(p, e)).value == want.numerator * pow(want.denominator, -1, m) % m


# --- sums lowered to one kernels.wdot call --------------------------------------

_K = Var("k")
_SIGN = BinOp("^", Neg(Num(1)), _K)
_CONSTANTS = st.one_of(
    st.builds(Num, st.integers(0, 6)),
    st.sampled_from([Var("p"), Neg(Num(2)), BinOp("/", Num(1), Var("p")), BinOp("+", Var("p"), Num(1))]),
)
_TABLES = st.one_of(
    st.sampled_from([Call("f", (_K,)), Call("binom", (BinOp("*", Num(2), _K), _K)), Call("H", (_K,)),
                     Call("H2", (_K,))]),
    st.builds(lambda r: Call("fr", (Num(r), _K)), st.integers(0, 6)),
)
_POWERS = st.builds(BinOp, st.just("^"), _CONSTANTS, st.just(_K))
_DIVISORS = st.one_of(_CONSTANTS, _POWERS, st.sampled_from([_K, BinOp("^", _K, Num(2)), _SIGN]))
_BOUNDS = st.one_of(
    st.builds(Num, st.integers(0, 3)),
    st.just(Neg(Num(1))),
    st.builds(lambda op, d: BinOp(op, Var("p"), Num(d)), st.sampled_from("+-"), st.integers(0, 3)),
)


@st.composite
def _product_sums(draw):
    """sum(k=lo..hi, body), body a product or quotient of the factors the
    compiler lowers, over ranges inside and outside 0..p-1."""
    body = draw(st.one_of(_TABLES, _CONSTANTS, _POWERS, st.just(_SIGN)))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            body = BinOp("/", body, draw(_DIVISORS))
        else:
            factor = draw(st.one_of(_TABLES, _TABLES, _CONSTANTS, _POWERS, st.just(_SIGN)))
            body = BinOp("*", *((body, factor) if draw(st.booleans()) else (factor, body)))
    return Sum("k", draw(_BOUNDS), draw(_BOUNDS), body)


@contextlib.contextmanager
def _closure_loops_only():
    """Compile every sum as the closure loop, as if no body lowered."""
    saved = expr._product_factors
    expr._product_factors = lambda *args: False
    expr.compile_expr.cache_clear()
    try:
        yield
    finally:
        expr._product_factors = saved
        expr.compile_expr.cache_clear()


def _outcome(ast, ring):
    try:
        return eval_expr(ast, ring).value
    except (EvalError, NonInvertibleError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ast=_product_sums(), p=st.sampled_from([3, 5, 7, 11]), e=st.integers(1, 4))
def test_lowered_sums_match_the_closure_loop_and_exact_arithmetic(ast, p, e):
    ring = ring_new(p, e)
    got = _outcome(ast, ring)
    with _closure_loops_only():
        assert _outcome(ast, ring) == got  # the same value, or the same error
    try:
        want = _exact(ast, p, {})
    except _Undefined:
        assert type(got) is tuple
        return
    m = p**e
    assert got == want.numerator * pow(want.denominator, -1, m) % m


def test_product_sums_inside_the_tables_run_as_one_wdot_call(monkeypatch):
    calls = []
    wdot = kernels.wdot
    monkeypatch.setattr(kernels, "wdot", lambda *args: calls.append(args) or wdot(*args))
    ring = ring_new(11, 2)
    lowered = [
        "sum(k=0..p-1, (-1)^k * f(k))",
        "sum(k=0..p-1, f(k) / 8^k)",
        "sum(k=1..p-1, (-1)^k * f(k) / k)",
        "sum(k=0..p-1, binom(2*k,k))",
        "sum(k=3..p-2, 3 * fr(5,k) * H(k) / k^2 / 7^k * (-1)^k * q2())",
        "sum(k=1..1, H2(k) / (p+2) * (1/3) * (-2)^k)",
    ]
    not_lowered = [
        "sum(k=0..p-1, f(k) * k)",  # k is not a table
        "sum(k=1..p-1, f(k) / (k*k))",  # a divisor that is a product
        "sum(k=0..p, f(k))",  # past the tables
        "sum(k=0..p-1, f(k) / k)",  # 1/0
        "sum(k=1..p-1, 1/p^k)",  # p is no unit
        "sum(k=0..p-1, (1/p) * f(k))",  # a constant that raises
        "sum(k=0..p-1, fr(0, k))",  # a table that raises
        "sum(k=3..2, f(k))",  # empty
    ]
    for text in lowered + not_lowered:
        calls.clear()
        with contextlib.suppress(EvalError, NonInvertibleError):
            eval_expr(parse(text), ring)
        assert len(calls) == (text in lowered), text


def test_powers_of_a_varying_base_are_built_per_sum_and_not_kept():
    # the base of c^k is the outer index: each inner sum builds its own slice
    # and no table per base stays in the prime's context
    p = 31
    ring = ring_new(p, 2)
    m = ring.modulus
    ctx = get_context(p)
    eval_expr(parse("sum(k=0..p-1, f(k))"), ring)  # the franel table itself
    before = len(ctx._cache)
    fr = [franel_exact(k) % m for k in range(p)]
    cases = {
        "sum(x=1..p-1, sum(k=0..p-1, f(k) * x^k))": sum(
            fr[k] * pow(x, k, m) for x in range(1, p) for k in range(p)
        ),
        "sum(x=1..p-1, sum(k=2..4, f(k) / x^k))": sum(
            fr[k] * pow(x, -k, m) for x in range(1, p) for k in range(2, 5)
        ),
    }
    for text, expected in cases.items():
        assert eval_expr(parse(text), ring).value == expected % m, text
    assert len(ctx._cache) == before


@pytest.mark.parametrize(
    "text,errors",
    [
        ("sum(k=0..p-1, f(k)/k)", ["0 is divisible by p=5 in PrimePowerRing(5, 2)",
                                   "0 is divisible by p=7 in PrimePowerRing(7, 2)"]),
        ("sum(k=1..p-1, 1/p^k)", ["5 is divisible by p=5 in PrimePowerRing(5, 2)",
                                  "7 is divisible by p=7 in PrimePowerRing(7, 2)"]),
        ("sum(k=0..p, f(k))", [None, None]),
        ("sum(k=0..p-1, (1/p)*f(k))", ["5 is divisible by p=5 in PrimePowerRing(5, 2)",
                                       "7 is divisible by p=7 in PrimePowerRing(7, 2)"]),
    ],
)
def test_sums_that_do_not_lower_keep_their_rows(text, errors):
    rep = eval_congruence(parse(f"{text} ≡ 0 (mod p^2)"), [5, 7])
    assert [row.error for row in rep.rows] == errors
    for row in rep.rows:
        if row.error is None:  # f(p) comes from exact summation
            assert row.lhs == sum(franel_exact(k) for k in range(row.prime + 1)) % row.prime**2
