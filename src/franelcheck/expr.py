"""A small congruence-expression language.

Statements like

    sum(k=0..p-1, (-1)^k * f(k)) ≡ jacobi(p,3) (mod p^2)

are parsed into ASTs and evaluated over ranges of primes, producing the
same report rows as the built-in checks.  Grammar (EBNF):

    stmt   := expr ("≡" expr "(mod" "p" "^" int ")")?
    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | factor
    factor := atom ("^" atom)?
    atom   := int | ident | "(" expr ")" | call | sum
    sum    := "sum" "(" ident "=" expr ".." expr "," expr ")"
    call   := ident "(" (expr ("," expr)*)? ")"

"≡" may be written "=mod=", and the Unicode minus sign is accepted for
"-".  Unary minus binds looser than "^": -1^k is -(1^k).  Semantics: all
arithmetic happens in the ambient ring mod p^e; "/" multiplies by the
inverse and fails on non-invertible divisors; sum bounds and exponents are
evaluated as exact integers (a residue-valued exponent is rejected, a
negative exponent must be a literal, meaning inverse-power, and "/" must
divide exactly, so "/" by zero there is an error too).

Each statement is compiled once into closures over plain canonical ints
mod p^e, which then run at each prime; tables come from the prime's
PrimeContext, and binom(n,k) with 0 <= k <= n < 2p from its O(p) table of
p-free factorials.  Evaluation errors are EvalError or NonInvertibleError,
which eval_congruence turns into error rows.

A sum(k=lo..hi, body) whose body is a product or quotient of the factors

    constants in k, (-1)^k, c^k and /c^k (c constant),
    f(k), binom(2*k,k), H(k), H2(k), fr(r,k) (r constant), 1/k and 1/k^2

is lowered at compile time to one kernels.wdot call over slices of their
tables; c^k and /c^k build just the slice c^lo..c^hi for each sum.  That call runs only when no factor can raise on the range:
0 <= lo, hi <= p-1, lo >= 1 with a 1/k factor, c a unit with a /c^k
factor, r >= 1, and every constant (evaluated once, only for a nonempty
range; divisors inverted through the ring) defined.  Every other sum, and
every such sum where a condition fails, runs term by term, so values,
error texts and error order are those of the term-by-term loop.

Builtins: binom(n,k), f(n), fx(n,x), fr(r,n), A(n), H(n), H2(n), q2(),
jacobi(a,n), inv(a).

Exact arithmetic is capped by the module constants below, so that no
statement runs without bound: an argument past a cap is an EvalError that
names the cap.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Union

from . import kernels
from .modring import NonInvertibleError, PrimePowerRing, Residue, jacobi, ring_new
from .report import CheckResult, Report
from .sequences import (
    _apery_cached,
    binom_exact,
    franel_exact,
    PrimeContext,
    generalized_franel,
    get_context,
)

# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Ast"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Sum:
    index: str
    lower: "Ast"
    upper: "Ast"
    body: "Ast"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Ast", ...]


Ast = Union[Num, Var, Neg, BinOp, Sum, Call]


@dataclass(frozen=True)
class CongruenceStmt:
    lhs: Ast
    rhs: Ast
    modulus_exponent: int


BUILTIN_ARITY = {
    "binom": 2,
    "f": 1,
    "fx": 2,
    "fr": 2,
    "A": 1,
    "H": 1,
    "H2": 1,
    "q2": 0,
    "jacobi": 2,
    "inv": 1,
}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


#: n in f(n), A(n) and fr(r, n) where the value comes from exact summation
#: (A always, f and fr for n >= p), and the number of factors min(k, n-k) of
#: binom(n, k) outside its table
EXACT_INDEX_CAP = 2000
#: r in fr(r, n) where the value comes from exact summation
EXACT_POWER_CAP = 64
#: terms of one sum(k=a..b, ...)
SUM_LENGTH_CAP = 10**6
#: bits of an integer power b^x (sum bounds, exponents, arguments)
POWER_BITS_CAP = 2**20


def _capped(value: int, cap: int, cap_name: str, what: str) -> int:
    if value > cap:
        raise EvalError(f"{what} is past the cap {cap_name} = {cap}")
    return value


# --- lexer -------------------------------------------------------------------

_SYMBOLS = "+-*/^(),="


@dataclass(frozen=True)
class _Token:
    kind: str  # INT IDENT OP LPAREN RPAREN COMMA DOTDOT CONG EQUALS EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    line, col = 1, 1

    def advance(n: int):
        nonlocal i, line, col
        for _ in range(n):
            if i < len(text) and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < len(text):
        ch = text[i]
        if ch.isspace():
            advance(1)
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], start_line, start_col))
            advance(j - i)
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], start_line, start_col))
            advance(j - i)
        elif ch == "≡":  # ≡
            tokens.append(_Token("CONG", "≡", start_line, start_col))
            advance(1)
        elif ch == "−":  # Unicode minus
            tokens.append(_Token("OP", "-", start_line, start_col))
            advance(1)
        elif ch == "." and text[i : i + 2] == "..":
            tokens.append(_Token("DOTDOT", "..", start_line, start_col))
            advance(2)
        elif ch == "=" and text[i : i + 5] == "=mod=":
            tokens.append(_Token("CONG", "=mod=", start_line, start_col))
            advance(5)
        elif ch == "=":
            tokens.append(_Token("EQUALS", "=", start_line, start_col))
            advance(1)
        elif ch == "(":
            tokens.append(_Token("LPAREN", "(", start_line, start_col))
            advance(1)
        elif ch == ")":
            tokens.append(_Token("RPAREN", ")", start_line, start_col))
            advance(1)
        elif ch == ",":
            tokens.append(_Token("COMMA", ",", start_line, start_col))
            advance(1)
        elif ch in "+-*/^":
            tokens.append(_Token("OP", ch, start_line, start_col))
            advance(1)
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)

    _KIND_NAMES = {
        "LPAREN": "'('",
        "RPAREN": "')'",
        "COMMA": "','",
        "DOTDOT": "'..'",
        "EQUALS": "'='",
        "INT": "an integer",
        "IDENT": "an identifier",
        "EOF": "end of input",
    }

    def eat(self, kind: str, text: str | None = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = repr(text) if text else self._KIND_NAMES.get(kind, kind)
            got = repr(tok.text) if tok.text else "end of input"
            self.error(f"expected {want}, found {got}")
        self.pos += 1
        return tok

    def _at_modulus_clause(self) -> bool:
        # a variable right before "(mod p^e)" is not a function call
        toks = self.tokens[self.pos + 1 : self.pos + 7]
        return (
            len(toks) == 6
            and toks[0].kind == "LPAREN"
            and toks[1].kind == "IDENT" and toks[1].text == "mod"
            and toks[2].kind == "IDENT" and toks[2].text == "p"
            and toks[3].kind == "OP" and toks[3].text == "^"
            and toks[4].kind == "INT"
            and toks[5].kind == "RPAREN"
        )

    def statement(self) -> CongruenceStmt | Ast:
        lhs = self.expr()
        if self.cur.kind == "CONG":
            self.pos += 1
            rhs = self.expr()
            self.eat("LPAREN")
            tok = self.eat("IDENT")
            if tok.text != "mod":
                self.error("expected 'mod'")
            tok = self.eat("IDENT")
            if tok.text != "p":
                self.error("expected 'p'")
            self.eat("OP", "^")
            e = int(self.eat("INT").text)
            if not 1 <= e <= 4:
                self.error(f"modulus exponent must be in 1..4, got {e}")
            self.eat("RPAREN")
            self.eat("EOF")
            return CongruenceStmt(lhs, rhs, e)
        self.eat("EOF")
        return lhs

    def expr(self) -> Ast:
        node = self.term()
        while self.cur.kind == "OP" and self.cur.text in "+-":
            op = self.cur.text
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Ast:
        node = self.unary()
        while self.cur.kind == "OP" and self.cur.text in "*/":
            op = self.cur.text
            self.pos += 1
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Ast:
        if self.cur.kind == "OP" and self.cur.text == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.factor()

    def factor(self) -> Ast:
        node = self.atom()
        if self.cur.kind == "OP" and self.cur.text == "^":
            self.pos += 1
            node = BinOp("^", node, self.atom())
        return node

    def atom(self) -> Ast:
        tok = self.cur
        if tok.kind == "INT":
            self.pos += 1
            return Num(int(tok.text))
        if tok.kind == "LPAREN":
            self.pos += 1
            node = self.expr()
            self.eat("RPAREN")
            return node
        if tok.kind == "IDENT":
            if self.tokens[self.pos + 1].kind == "LPAREN" and not self._at_modulus_clause():
                if tok.text == "sum":
                    return self.sum_node()
                return self.call()
            self.pos += 1
            return Var(tok.text)
        self.error(f"expected an expression, found {tok.text or 'end of input'!r}")

    def sum_node(self) -> Ast:
        self.eat("IDENT")  # 'sum'
        self.eat("LPAREN")
        index = self.eat("IDENT").text
        self.eat("EQUALS")
        lower = self.expr()
        self.eat("DOTDOT")
        upper = self.expr()
        self.eat("COMMA")
        body = self.expr()
        self.eat("RPAREN")
        return Sum(index, lower, upper, body)

    def call(self) -> Ast:
        name_tok = self.eat("IDENT")
        name = name_tok.text
        if name not in BUILTIN_ARITY:
            raise ParseError(f"unknown function {name!r}", name_tok.line, name_tok.col)
        self.eat("LPAREN")
        args: list[Ast] = []
        if self.cur.kind != "RPAREN":
            args.append(self.expr())
            while self.cur.kind == "COMMA":
                self.pos += 1
                args.append(self.expr())
        self.eat("RPAREN")
        if len(args) != BUILTIN_ARITY[name]:
            raise ParseError(
                f"{name}() takes {BUILTIN_ARITY[name]} argument(s), got {len(args)}",
                name_tok.line,
                name_tok.col,
            )
        return Call(name, tuple(args))


def parse(text: str) -> CongruenceStmt | Ast:
    """Parse a congruence statement or bare expression."""
    parser = _Parser(_tokenize(text))
    try:
        return parser.statement()
    except RecursionError:
        tok = parser.cur
        raise ParseError("expression nests too deeply", tok.line, tok.col) from None


# --- printer -----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Ast) -> int:
    if isinstance(node, (Num, Var, Call, Sum)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if node.op in "+-":
        return _LEVEL_ADD
    if node.op in "*/":
        return _LEVEL_MUL
    return _LEVEL_POW


def _emit(node: Ast, min_level: int) -> str:
    if isinstance(node, Num):
        s = str(node.value)
    elif isinstance(node, Var):
        s = node.name
    elif isinstance(node, Neg):
        s = "-" + _emit(node.operand, _LEVEL_UNARY)
    elif isinstance(node, Sum):
        s = (
            f"sum({node.index}={_emit(node.lower, _LEVEL_ADD)}"
            f"..{_emit(node.upper, _LEVEL_ADD)}, {_emit(node.body, _LEVEL_ADD)})"
        )
    elif isinstance(node, Call):
        s = f"{node.name}({', '.join(_emit(a, _LEVEL_ADD) for a in node.args)})"
    elif node.op in "+-":
        s = f"{_emit(node.left, _LEVEL_ADD)}{node.op}{_emit(node.right, _LEVEL_MUL)}"
    elif node.op in "*/":
        s = f"{_emit(node.left, _LEVEL_MUL)}{node.op}{_emit(node.right, _LEVEL_UNARY)}"
    else:  # ^
        s = f"{_emit(node.left, _LEVEL_ATOM)}^{_emit(node.right, _LEVEL_ATOM)}"
    if _level(node) < min_level:
        return f"({s})"
    return s


def unparse(node: CongruenceStmt | Ast) -> str:
    """Render an AST back to source; parse(unparse(x)) is structurally x."""
    if isinstance(node, CongruenceStmt):
        return (
            f"{_emit(node.lhs, _LEVEL_ADD)} ≡ {_emit(node.rhs, _LEVEL_ADD)}"
            f" (mod p^{node.modulus_exponent})"
        )
    return _emit(node, _LEVEL_ADD)


# --- compiler ----------------------------------------------------------------
#
# compile_expr() walks an AST once and turns each node into a *maker*: a
# function that takes the runtime of one evaluation (ring, tables, sum-index
# slots) and returns the node's value as a canonical int when it is already
# known at that prime (numbers, p, bindings, and arithmetic on them), or
# else a zero-argument closure that computes it when it is reached.  Ring
# values are canonical ints in [0, p^e); integer-context values (sum bounds,
# exponents, builtin indices) are exact ints.  Evaluation order, and so the
# first error raised, is the same as a walk of the tree from left to right.


class _NotInteger(Exception):
    pass


_DSL_ERRORS = (EvalError, NonInvertibleError, _NotInteger)


class _Runtime:
    """What one evaluation binds: the ring, its context, bindings, index slots."""

    __slots__ = ("p", "e", "m", "ring", "ctx", "bindings", "slots", "ops", "tables")

    def __init__(self, ring: PrimePowerRing, bindings: dict[str, Residue], nslots: int, ctx: PrimeContext):
        self.p, self.e, self.m = ring.p, ring.e, ring.modulus
        self.ring = ring
        self.ctx = ctx
        self.bindings = bindings
        self.slots = [0] * nslots
        self.tables = {}
        m = self.m
        self.ops = {
            "+": lambda x, y: (x + y) % m,
            "-": lambda x, y: (x - y) % m,
            "*": lambda x, y: x * y % m,
            "/": lambda x, y: x * self.inv(y) % m,
        }

    def inv(self, x: int) -> int:
        """The inverse mod p^e, by modring's one implementation of it."""
        return self.ring.residue(x).inv().value

    def table(self, name: str, *args):
        """A PrimeContext table (or value) for this ring, fetched once."""
        key = (name, *args)
        try:
            return self.tables[key]
        except KeyError:
            value = self.tables[key] = getattr(self.ctx, name)(self.e, *args)
            return value


def _apply(fn, *operands, costly: bool = False):
    """fn over bound operands, evaluated left to right.

    Constant operands are folded now unless fn is costly (calls, sums,
    integer powers, which run only when reached); a fold that raises a
    language error is left to raise again when the node is evaluated, so
    errors keep their order.
    """
    if not costly and all(type(v) is int for v in operands):
        try:
            return fn(*operands)
        except _DSL_ERRORS:
            return lambda: fn(*operands)
    if not operands:
        return fn
    if len(operands) == 1:
        (a,) = operands
        return (lambda: fn(a)) if type(a) is int else (lambda: fn(a()))
    a, b = operands
    if type(a) is int:
        return (lambda: fn(a, b)) if type(b) is int else (lambda: fn(a, b()))
    if type(b) is int:
        return lambda: fn(a(), b)
    return lambda: fn(a(), b())


def _fail(exc_type, message: str):
    def fail():
        raise exc_type(message)

    return fail


def _is_negative_literal(node: Ast) -> bool:
    return isinstance(node, Neg) and isinstance(node.operand, Num)


_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise _NotInteger(f"{a}/0 is a division by zero")
    q, r = divmod(a, b)
    if r:
        raise _NotInteger(f"{a}/{b} is not an integer")
    return q


def _nonnegative(x: int) -> int:
    if x < 0:
        raise _NotInteger("negative exponent in integer context")
    return x


def _int_power(x: int, b: int) -> int:
    if abs(b) > 1:  # the power has at least x * (bit_length - 1) bits
        bits = x * (abs(b).bit_length() - 1)
        _capped(bits, POWER_BITS_CAP, "POWER_BITS_CAP", "integer power size in bits")
    return b**x


def _int(node: Ast, scope: dict[str, int]):
    """Maker of the exact-integer value of node."""
    if isinstance(node, Num):
        value = node.value
        return lambda rt: value
    if isinstance(node, Var):
        if node.name in scope:
            s = scope[node.name]
            return lambda rt: lambda slots=rt.slots: slots[s]
        if node.name == "p":
            return lambda rt: rt.p
        fail = _fail(_NotInteger, f"variable {node.name!r} is not integer-valued here")
        return lambda rt: fail
    if isinstance(node, Neg):
        operand = _int(node.operand, scope)
        return lambda rt: _apply(operator.neg, operand(rt))
    if isinstance(node, BinOp):
        left, right = _int(node.left, scope), _int(node.right, scope)
        if node.op == "^":  # the exponent is checked before the base is evaluated
            return lambda rt: _apply(
                _int_power, _apply(_nonnegative, right(rt)), left(rt), costly=True
            )
        fn = _INT_OPS.get(node.op, _int_div)
        return lambda rt: _apply(fn, left(rt), right(rt))
    fail = _fail(_NotInteger, "sums and calls are not integer expressions")
    return lambda rt: fail


def _int_arg(node: Ast, scope: dict[str, int], what: str):
    """Maker of an integer argument; a non-integer value is an EvalError."""
    make = _int(node, scope)

    def guarded(rt):
        value = make(rt)
        if type(value) is int:
            return value

        def run():
            try:
                return value()
            except _NotInteger as exc:
                raise EvalError(f"{what}: {exc}") from None

        return run

    return guarded


def _ring(node: Ast, scope: dict[str, int], slots: itertools.count):
    """Maker of the value of node mod p^e; scope maps sum indices to slots."""
    if isinstance(node, Num):
        value = node.value
        return lambda rt: value % rt.m
    if isinstance(node, Var):
        return _ring_var(node.name, scope)
    if isinstance(node, Neg):
        operand = _ring(node.operand, scope, slots)
        return lambda rt: _apply(lambda x, m=rt.m: -x % m, operand(rt))
    if isinstance(node, Sum):
        return _ring_sum(node, scope, slots)
    if isinstance(node, Call):
        return _ring_call(node, scope, slots)
    if node.op == "^":
        return _ring_pow(node, scope, slots)
    left, right = _ring(node.left, scope, slots), _ring(node.right, scope, slots)
    op = node.op
    return lambda rt: _apply(rt.ops[op], left(rt), right(rt))


def _ring_var(name: str, scope: dict[str, int]):
    if name in scope:
        s = scope[name]
        return lambda rt: lambda slots=rt.slots, m=rt.m: slots[s] % m
    if name == "p":
        return lambda rt: rt.p % rt.m

    def binding(rt):
        if name not in rt.bindings:
            return _fail(EvalError, f"unbound variable {name!r}")
        r = rt.bindings[name]
        if r.ring != rt.ring:
            return _fail(EvalError, f"binding {name!r} lives in {r.ring}, not {rt.ring}")
        return r.value

    return binding


def _ring_pow(node: BinOp, scope: dict[str, int], slots: itertools.count):
    base, power = _ring(node.left, scope, slots), _ring_power(node, scope)
    return lambda rt: power(rt, base(rt))


def _ring_power(node: BinOp, scope: dict[str, int]):
    """Maker of base^exponent from the runtime and the base's value."""
    exponent = _int_arg(node.right, scope, "exponent must be an integer expression")
    literal = _is_negative_literal(node.right)

    def make(rt, base):
        m, inv = rt.m, rt.inv

        def power(x, b):
            if x >= 0:
                return pow(b, x, m)
            if not literal:
                raise EvalError("negative exponent must be a literal (inverse-power)")
            return pow(inv(b), -x, m)

        return _apply(power, exponent(rt), base)

    return make


def _ring_sum(node: Sum, scope: dict[str, int], slots: itertools.count):
    what = "sum bound is not an exact integer"
    lower = _int_arg(node.lower, scope, what)
    upper = _int_arg(node.upper, scope, what)
    s = next(slots)
    body = _sum_body(node, {**scope, node.index: s}, slots)

    def make(rt):
        m, index = rt.m, rt.slots
        term, as_wdot = body(rt)
        if type(term) is int:
            return _apply(lambda lo, hi: term * _sum_length(lo, hi) % m, lower(rt), upper(rt))

        def total(lo, hi):
            _sum_length(lo, hi)
            if as_wdot is not None and lo <= hi:
                value = as_wdot(lo, hi)
                if value is not None:
                    return value
            acc = 0
            for i in range(lo, hi + 1):
                index[s] = i
                acc += term()
            return acc % m

        return _apply(total, lower(rt), upper(rt), costly=True)

    return make


def _sum_length(lo: int, hi: int) -> int:
    return _capped(max(0, hi - lo + 1), SUM_LENGTH_CAP, "SUM_LENGTH_CAP", "sum length")


# --- sums as one kernels.wdot call --------------------------------------------
#
# A sum whose body is a product of factors that each either do not depend on
# the index k or read a table at k is one reduction over slices of those
# tables.  Each factor is compiled and made once; its value feeds both the
# closure loop and the wdot call.  The wdot call runs only where the loop
# could raise on no term: every table covers the range and every value it
# inverts (constants, the base of /c^k, k itself) is a unit.  Anything else,
# and any language error from a constant, goes back to the closure loop,
# which then raises the same error in the same order.


def _force(value):
    return value if type(value) is int else value()


def _mentions(node: Ast, name: str) -> bool:
    """Whether the variable name occurs free in node."""
    if isinstance(node, Var):
        return node.name == name
    if isinstance(node, Neg):
        return _mentions(node.operand, name)
    if isinstance(node, BinOp):
        return _mentions(node.left, name) or _mentions(node.right, name)
    if isinstance(node, Call):
        return any(_mentions(arg, name) for arg in node.args)
    if isinstance(node, Sum):
        return (
            _mentions(node.lower, name)
            or _mentions(node.upper, name)
            or (node.index != name and _mentions(node.body, name))
        )
    return False


def _product_factors(node: Ast, k: str, inverted: bool, out: list) -> bool:
    """Append the (factor, inverted) pairs of node, a product or quotient, to
    out; False when a divisor that depends on k is itself a product."""
    if isinstance(node, BinOp) and node.op in "*/" and _mentions(node, k):
        if inverted:
            return False
        return _product_factors(node.left, k, False, out) and _product_factors(
            node.right, k, node.op == "/", out
        )
    out.append((node, inverted))
    return True


def _fold_product(node: Ast, positions: dict[int, int]):
    """(rt, factor values) -> the value of node, a product of those factors."""
    if id(node) in positions:
        i = positions[id(node)]
        return lambda rt, values: values[i]
    left, right = _fold_product(node.left, positions), _fold_product(node.right, positions)
    op = node.op
    return lambda rt, values: _apply(rt.ops[op], left(rt, values), right(rt, values))


#: table builtins at the index: name -> the PrimeContext table of their values
_INDEX_TABLES = {"f": ("franel",), "H": ("harmonic", 1), "H2": ("harmonic", 2)}
_SIGN = Neg(Num(1))


def _lower_factor(node: Ast, inverted: bool, k: str, scope: dict[str, int], slots):
    """(kind, maker) of one factor of a product body.

    The maker gives, for a runtime, the factor's value for the closure loop
    and a function (lo, hi) -> what the wdot call takes of it: the scalar,
    a list of tables at k = lo..hi, or None where the factor could raise.
    c^k builds its slice for each call and caches nothing, so a base that
    changes from one sum to the next costs what the loop's pow calls did.
    kind is "scalar" (no
    k in it), "sign" ((-1)^k), "table", "inverse" (1/k or 1/k^2, which need
    k >= 1) or None (the factor does not lower).
    """
    index = Var(k)
    if isinstance(node, BinOp) and node.op == "^" and node.right == index and not _mentions(node.left, k):
        base, power = _ring(node.left, scope, slots), _ring_power(node, scope)

        def powers(rt):
            b, m = base(rt), rt.m

            def fetch(lo, hi):
                c = _force(b)
                c = rt.inv(c) if inverted else c
                steps = itertools.repeat(c, hi - lo)
                return [list(itertools.accumulate(steps, lambda a, x: a * x % m, initial=pow(c, lo, m)))]

            return power(rt, b), fetch

        return ("sign" if node.left == _SIGN else "table"), powers
    value = _ring(node, scope, slots)
    if not _mentions(node, k):

        def scalar(rt):
            v = value(rt)
            return v, (lambda lo, hi: rt.inv(_force(v))) if inverted else (lambda lo, hi: _force(v))

        return "scalar", scalar
    kind, tables = None, None
    if inverted:
        if node in (index, BinOp("^", index, Num(2))):
            count = 1 if node == index else 2
            kind, tables = "inverse", lambda rt: lambda: [rt.table("inv")] * count
    elif node == Call("binom", (BinOp("*", Num(2), index), index)):
        kind, tables = "table", lambda rt: lambda: [rt.table("central")]
    elif isinstance(node, Call) and node.args[-1:] == (index,) and node.name in _INDEX_TABLES:
        name = _INDEX_TABLES[node.name]
        kind, tables = "table", lambda rt: lambda: [rt.table(*name)]
    elif (
        isinstance(node, Call) and node.name == "fr" and node.args[1] == index
        and not _mentions(node.args[0], k)
    ):
        power = _int_arg(node.args[0], scope, "fr() power must be an integer expression")

        def tables(rt):
            def fetch(r=power(rt)):
                r = _force(r)
                return [rt.table("genfranel", r)] if r >= 1 else None

            return fetch

        kind = "table"
    return kind, lambda rt: (value(rt), _sliced(tables(rt)) if kind else None)


def _sliced(fetch):
    """A thunk of tables at k = 0..p-1 -> (lo, hi) -> their slices at lo..hi."""

    def sliced(lo, hi):
        got = fetch()
        return None if got is None else [table[lo : hi + 1] for table in got]

    return sliced


def _sum_body(node: Sum, scope: dict[str, int], slots):
    """Maker of (the sum's term, the sum as a function (lo, hi) -> one wdot
    call, or None where it must run as the closure loop).  The second is None
    outright unless the body is a product of lowerable factors with a table."""
    factors: list = []
    if not _product_factors(node.body, node.index, False, factors):
        body = _ring(node.body, scope, slots)
        return lambda rt: (body(rt), None)
    lowered = [_lower_factor(f, inverted, node.index, scope, slots) for f, inverted in factors]
    fold = _fold_product(node.body, {id(f): i for i, (f, _) in enumerate(factors)})
    kinds = [kind for kind, _ in lowered]
    if None in kinds or not {"table", "inverse"} & set(kinds):
        return lambda rt: (fold(rt, [make(rt)[0] for _, make in lowered]), None)
    alternate = kinds.count("sign") % 2 == 1
    first = 1 if "inverse" in kinds else 0

    def make(rt):
        p, m = rt.p, rt.m
        made = [make(rt) for _, make in lowered]
        parts = [(kind == "scalar", fetch) for kind, (_, fetch) in zip(kinds, made) if kind != "sign"]

        def as_wdot(lo, hi):
            if lo < first or hi >= p:
                return None
            scalar, tables = 1, []
            try:
                for is_scalar, fetch in parts:
                    got = fetch(lo, hi)
                    if got is None:
                        return None
                    if is_scalar:
                        scalar = scalar * got % m
                    else:
                        tables += got
            except _DSL_ERRORS:
                return None
            total = kernels.wdot(m, alternate, *tables)
            if alternate and lo % 2:  # wdot's signs start at +1 at k = lo
                total = -total
            return scalar * total % m

        return fold(rt, [value for value, _ in made]), as_wdot

    return make


def _binom(rt: _Runtime, n: int, k: int) -> int:
    if k < 0:
        raise EvalError(f"binom() lower argument must be >= 0, got {k}")
    if not 0 <= n < 2 * rt.p:
        factors = min(k, n - k) if n >= 0 else min(k, -n - 1)
        _capped(factors, EXACT_INDEX_CAP, "EXACT_INDEX_CAP", "binom() factor count")
        return binom_exact(n, k) % rt.m
    return rt.table("small_binom")(n, k) if k <= n else 0


def _franel(rt: _Runtime, n: int) -> int:
    if n < 0:
        raise EvalError(f"f() index must be >= 0, got {n}")
    if n < rt.p:
        return rt.table("franel")[n]
    return franel_exact(_capped(n, EXACT_INDEX_CAP, "EXACT_INDEX_CAP", "f() index")) % rt.m


def _fx_index(rt: _Runtime, n: int) -> int:
    if not 0 <= n < rt.p:
        raise EvalError(f"fx() index must be in 0..p-1, got {n}")
    return n


def _fpoly(rt: _Runtime, n: int, x: int) -> int:
    return rt.table("fpoly", x)[n]


def _genfranel(rt: _Runtime, r: int, n: int) -> int:
    if r < 1:
        raise EvalError(f"fr() power must be >= 1, got {r}")
    if n < 0:
        raise EvalError(f"fr() index must be >= 0, got {n}")
    if n < rt.p:
        return rt.table("genfranel", r)[n]
    _capped(n, EXACT_INDEX_CAP, "EXACT_INDEX_CAP", "fr() index")
    _capped(r, EXACT_POWER_CAP, "EXACT_POWER_CAP", "fr() power")
    return generalized_franel(n, r) % rt.m


def _apery(rt: _Runtime, n: int) -> int:
    if n < 0:
        raise EvalError(f"A() index must be >= 0, got {n}")
    return _apery_cached(_capped(n, EXACT_INDEX_CAP, "EXACT_INDEX_CAP", "A() index")) % rt.m


def _harmonic(order: int, rt: _Runtime, n: int) -> int:
    if n < 0:
        raise EvalError(f"harmonic index must be >= 0, got {n}")
    if n >= rt.p:
        raise NonInvertibleError(f"harmonic number at {n} >= p has a non-invertible term")
    return rt.table("harmonic", order)[n]


def _q2(rt: _Runtime) -> int:
    if rt.e > 3:
        raise EvalError("q2() needs ring exponent <= 3")
    return rt.table("q2")


def _jacobi(rt: _Runtime, a: int, n: int) -> int:
    try:
        return jacobi(a, n) % rt.m
    except ValueError as exc:
        raise EvalError(str(exc)) from None


#: builtin -> (its function of the runtime and the argument values, what
#: each argument is: the name used in its error messages, or None for a
#: ring-valued argument)
_CALLS = {
    "binom": (_binom, ("binom() upper argument", "binom() lower argument")),
    "f": (_franel, ("f() index",)),
    "fx": (_fpoly, ("fx() index", None)),
    "fr": (_genfranel, ("fr() power", "fr() index")),
    "A": (_apery, ("A() index",)),
    "H": (partial(_harmonic, 1), ("harmonic index",)),
    "H2": (partial(_harmonic, 2), ("harmonic index",)),
    "q2": (_q2, ()),
    "jacobi": (_jacobi, ("jacobi() numerator", "jacobi() denominator")),
    "inv": (_Runtime.inv, (None,)),
}


def _ring_call(node: Call, scope: dict[str, int], slots: itertools.count):
    if node.name not in _CALLS:  # unreachable after parse
        fail = _fail(EvalError, f"unknown function {node.name!r}")
        return lambda rt: fail
    fn, kinds = _CALLS[node.name]
    args = [
        _ring(arg, scope, slots)
        if what is None
        else _int_arg(arg, scope, f"{what} must be an integer expression")
        for arg, what in zip(node.args, kinds)
    ]
    if node.name == "fx":  # the index is range-checked before x is evaluated
        index = args[0]
        args[0] = lambda rt: _apply(partial(_fx_index, rt), index(rt))
    return lambda rt: _apply(partial(fn, rt), *(arg(rt) for arg in args), costly=True)


@lru_cache(maxsize=64)
def compile_expr(ast: Ast):
    """Compile an expression once; the result maps (ring, bindings) to the
    canonical value mod p^e, raising EvalError or NonInvertibleError.
    Tables come from ctx, by default get_context(p)."""
    slots = itertools.count()
    make = _ring(ast, {}, slots)
    nslots = next(slots)

    def run(
        ring: PrimePowerRing, bindings: dict[str, Residue] | None = None, ctx: PrimeContext | None = None
    ) -> int:
        value = make(_Runtime(ring, bindings or {}, nslots, ctx or get_context(ring.p)))
        return value if type(value) is int else value()

    return run


def eval_expr(
    ast: Ast, ring: PrimePowerRing, bindings: dict[str, Residue] | None = None
) -> Residue:
    """Evaluate an expression in the given ring.  ``p`` is bound to the
    ring's prime; sum indices are bound as integers during iteration."""
    return ring.residue(compile_expr(ast)(ring, bindings))


def eval_congruence(
    stmt: CongruenceStmt, primes: list[int], check_id: str = "expr"
) -> Report:
    """Evaluate a parsed congruence statement at each prime.

    Both sides are compiled once.  Evaluation errors (non-invertible
    division, bad bounds) become error rows, distinct from failures.
    """
    if not isinstance(stmt, CongruenceStmt):
        raise ValueError("statement has no modulus; use eval_expr for bare expressions")
    primes = sorted(set(primes))
    if not primes:
        raise ValueError("no primes in range")
    lhs_of, rhs_of = compile_expr(stmt.lhs), compile_expr(stmt.rhs)
    rows = []
    for p in primes:
        ring = ring_new(p, stmt.modulus_exponent)
        try:
            lhs = lhs_of(ring)
            rhs = rhs_of(ring)
            rows.append(
                CheckResult(
                    check_id=check_id,
                    check_class="user",
                    prime=p,
                    modulus_exponent=stmt.modulus_exponent,
                    params={},
                    lhs=lhs,
                    rhs=rhs,
                    passed=lhs == rhs,
                )
            )
        except (EvalError, NonInvertibleError) as exc:
            rows.append(
                CheckResult(
                    check_id=check_id,
                    check_class="user",
                    prime=p,
                    modulus_exponent=stmt.modulus_exponent,
                    params={},
                    lhs=0,
                    rhs=0,
                    passed=False,
                    error=str(exc),
                )
            )
    return Report(rows=rows)
