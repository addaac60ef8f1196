"""Expression language for operators and spaces.

Grammar (whitespace-insensitive):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := atom ['^' exponent]
    exponent := ['-'] uint | '(' expr ')'     (uint <= MAX_EXPONENT)
    atom     := rational | ident ['(' args ')'] | '(' expr ')'
              | 'comm' '(' expr ',' expr ')'
    args     := expr (',' expr)*

Atoms x, d, D, f, a and parameter names (lam, lambda, k2) are bare idents;
D means x*d.  Integer-literal quotients like 1/2 fold into one rational
token; '/' between anything else is division and needs an invertible
right factor at evaluation time.  Products compose left-to-right in
application order: the leftmost factor is applied last.

Printing is canonical (minimal parentheses by precedence) and
parse(print(ast)) == ast holds structurally for canonical trees; the
random_expr generator produces such trees for round-trip testing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .operators import QuasiDiffOp, commutator
from .quadext import MatOp, QuadSpace, lame_preset, lift_d, lift_f, lift_x, \
    ratio_sqrt_preset, sqrt_quadratic_preset
from .scalars import ExactError, PARAM, ParamScalar, QuasiExponent, RatFunc
from .spaces import (
    V1Space,
    make_bosonic,
    make_jumps,
    make_k,
    make_kernels,
    make_mixing,
    make_sl2,
)


# Largest integer exponent the grammar accepts.  The cost of a power grows
# fast with it: on a 2-core VM with Python 3.11, (x+d)^32 takes about 1 s
# and (x+d)^64 about 13 s.
MAX_EXPONENT = 32

# Largest operator order and x-degree (the largest numerator or denominator
# degree among the coefficients) of an operator that a product, a power or
# a commutator may build.  The size of the result is predicted before it is
# formed, orders adding and x-degrees adding, so a nested power such as
# ((x+d)^8)^8, which is (x+d)^64, is refused at once.  MAX_ORDER also caps
# each integer argument of a named generator (K(n) composes n + 1 factors).
MAX_ORDER = 32
MAX_DEGREE = 32

# Deepest nesting of parentheses, arguments and comm() the parser accepts:
# deeper input is refused before the recursive descent can exhaust the stack.
MAX_NESTING = 64


class DslSyntaxError(ExactError):
    """Parse failure with the offending position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class DslEvalError(ExactError):
    """Expression is grammatical but cannot be evaluated in this context."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class RatLit:
    value: Fraction


@dataclass(frozen=True)
class Sum:
    terms: tuple[tuple[int, "Node"], ...]  # sign is +1 or -1


@dataclass(frozen=True)
class Prod:
    factors: tuple[tuple[str, "Node"], ...]  # op is '*' or '/'; first is '*'


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exp: Union[int, "Node"]


@dataclass(frozen=True)
class Comm:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


Node = Union[Sym, RatLit, Sum, Prod, Pow, Comm, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            break
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if not ch.isspace():
                tokens.append(("op", ch, m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if val != value:
            raise DslSyntaxError(f"expected {value!r}, found {val!r}", pos)
        return self.next()

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> Node:
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(
                f"nesting exceeds the cap of {MAX_NESTING}", self.peek()[2])
        self.depth += 1
        terms = []
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        terms.append((sign, self.parse_term()))
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            terms.append((1 if op == "+" else -1, self.parse_term()))
        self.depth -= 1
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def parse_term(self) -> Node:
        factors = [("*", self.parse_factor())]
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            factors.append((op, self.parse_factor()))
        # fold integer / integer into one rational literal
        folded = [factors[0]]
        for op, node in factors[1:]:
            prev_op, prev = folded[-1]
            if (
                op == "/"
                and isinstance(prev, RatLit)
                and isinstance(node, RatLit)
                and node.value != 0
            ):
                folded[-1] = (prev_op, RatLit(prev.value / node.value))
            else:
                folded.append((op, node))
        if len(folded) == 1:
            return folded[0][1]
        return Prod(tuple(folded))

    def parse_factor(self) -> Node:
        base = self.parse_atom()
        if self.peek()[1] == "^":
            self.next()
            exp = self.parse_exponent()
            return Pow(base, exp)
        return base

    def parse_exponent(self) -> Union[int, Node]:
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        neg = False
        if val == "-":
            self.next()
            neg = True
            kind, val, pos = self.peek()
        if kind != "num":
            raise DslSyntaxError("expected integer or '(' after '^'", pos)
        self.next()
        k = int(val)
        if k > MAX_EXPONENT:
            raise DslSyntaxError(
                f"exponent {k} exceeds the cap of {MAX_EXPONENT}", pos)
        return -k if neg else k

    def parse_atom(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            return RatLit(Fraction(int(val)))
        if val == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == "ident":
            self.next()
            if self.peek()[1] == "(":
                self.next()
                args = []
                if self.peek()[1] != ")":
                    args.append(self.parse_expr())
                    while self.peek()[1] == ",":
                        self.next()
                        args.append(self.parse_expr())
                self.expect(")")
                if val == "comm":
                    if len(args) != 2:
                        raise DslSyntaxError("comm takes two arguments", pos)
                    return Comm(args[0], args[1])
                return Call(val, tuple(args))
            return Sym(val)
        raise DslSyntaxError(f"unexpected {val!r}", pos)


def parse(src: str) -> Node:
    """Parse an expression to its AST; raises DslSyntaxError with position."""
    p = _Parser(src)
    node = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise DslSyntaxError(f"trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def _print_factor(node: Node, first: bool) -> str:
    s = pprint(node)
    if isinstance(node, (Sum, Prod)):
        return f"({s})"
    if isinstance(node, RatLit) and node.value.denominator != 1 and not first:
        return f"({s})"
    return s


def pprint(node: Node) -> str:
    """Canonical text form; inverse of parse on canonical trees."""
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, RatLit):
        return str(node.value)
    if isinstance(node, Sum):
        out = []
        for i, (sign, t) in enumerate(node.terms):
            ts = pprint(t)
            if isinstance(t, Sum):
                ts = f"({ts})"
            if i == 0:
                out.append(f"-{ts}" if sign < 0 else ts)
            else:
                out.append(f" - {ts}" if sign < 0 else f" + {ts}")
        return "".join(out)
    if isinstance(node, Prod):
        return _join_prod(node)
    if isinstance(node, Pow):
        bs = pprint(node.base)
        if isinstance(node.base, (Sum, Prod, Pow)) or (
            isinstance(node.base, RatLit) and node.base.value.denominator != 1
        ):
            bs = f"({bs})"
        if isinstance(node.exp, int):
            return f"{bs}^{node.exp}"
        return f"{bs}^({pprint(node.exp)})"
    if isinstance(node, Comm):
        return f"comm({pprint(node.lhs)}, {pprint(node.rhs)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(pprint(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


def _join_prod(node: Prod) -> str:
    parts = []
    for i, (op, f) in enumerate(node.factors):
        fs = _print_factor(f, i == 0)
        if i == 0:
            parts.append(fs)
        else:
            parts.append(f"{op}{fs}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_PARAM_NAMES = {"a", "lam", "lambda", "k2"}
_LADDER_ATOMS = {"x": (1, 0, 1), "d": (0, 1, 1), "D": (1, 1, 1)}  # c x^i d^j

Value = Union[ParamScalar, QuasiDiffOp, MatOp]


def _gen_table():
    def needs_int(v: ParamScalar, what: str) -> int:
        f = v.as_fraction()
        if f.denominator != 1 or f < 0:
            raise DslEvalError(f"{what} must be a nonnegative integer, got {f}")
        if f > MAX_ORDER:
            raise DslEvalError(
                f"generator argument {what} = {f} exceeds the cap of {MAX_ORDER}")
        return int(f)

    def a_value(v: ParamScalar):
        if v == PARAM:
            return None
        if v.is_constant():
            return v.as_fraction()
        raise DslEvalError("parameter argument must be 'a' or a rational")

    def sl2(which):
        def build(n):
            return make_sl2(needs_int(n, "n"))[which]
        return build

    def conj(which):
        def build(n, a):
            return make_k(needs_int(n, "n"), a_value(a))[which]
        return build

    def bosonic(which):
        def build(n, m, a):
            return make_bosonic(needs_int(n, "n"), needs_int(m, "m"),
                                a_value(a))[which]
        return build

    def jumps(which):
        def build(n, m, k):
            return make_jumps(needs_int(n, "n"), needs_int(m, "m"),
                              needs_int(k, "k"))[which]
        return build

    def mixing(which):
        def build(n, m, a, alpha):
            ops = make_mixing(needs_int(n, "n"), needs_int(m, "m"),
                              a_value(a), needs_int(alpha, "alpha"))
            return ops.Q if which == "Q" else ops.Qbar
        return build

    return {
        "jp": (1, sl2("jp")),
        "j0": (1, sl2("j0")),
        "jm": (0, lambda: make_sl2(0)["jm"]),
        "kp": (2, conj("kp")),
        "k0": (2, conj("k0")),
        "km": (2, lambda n, a: conj("km")(n, a)),
        "Jp": (3, bosonic("Jp")),
        "J0": (3, bosonic("J0")),
        "Jm": (3, bosonic("Jm")),
        "K": (1, lambda n: make_kernels(needs_int(n, "n"), 0)["K"]),
        "Kprime": (2, lambda m, a: make_kernels(
            0, needs_int(m, "m"), a_value(a))["Kprime"]),
        "Q": (4, mixing("Q")),
        "Qbar": (4, mixing("Qbar")),
        "Wp": (3, jumps("Wp")),
        "Wm": (3, jumps("Wm")),
    }


_GENERATORS = _gen_table()


def _order_degree(v) -> tuple[int, int]:
    """Operator order and x-degree of a value; scalars have (0, 0)."""
    if isinstance(v, QuasiDiffOp):
        return v.size()
    if not isinstance(v, MatOp):
        return 0, 0
    ops = [L for row in v.rows() for L in row]
    order = max((L.order() or 0 for L in ops), default=0)
    degree = max((max(len(c.num), len(c.den)) - 1
                  for L in ops for _, c in L.terms), default=0)
    return order, degree


def _check_product(factors) -> None:
    """Refuse a product of factors whose predicted order or x-degree
    exceeds its cap."""
    sizes = [_order_degree(f) for f in factors]
    order, degree = sum(o for o, _ in sizes), sum(d for _, d in sizes)
    if order > MAX_ORDER:
        raise DslEvalError(
            f"operator order {order} exceeds the cap of {MAX_ORDER}")
    if degree > MAX_DEGREE:
        raise DslEvalError(
            f"x-degree {degree} exceeds the cap of {MAX_DEGREE}")


class _Evaluator:
    """Shared arithmetic over tagged values: ParamScalar scalars plus
    either QuasiDiffOp (ladder mode) or MatOp (quad mode) operators."""

    def __init__(self, space: Optional[QuadSpace] = None):
        self.space = space  # None => ladder mode

    # -- coercions ------------------------------------------------------------

    def is_op(self, v) -> bool:
        return isinstance(v, (QuasiDiffOp, MatOp))

    def to_op(self, v):
        if self.is_op(v):
            return v
        if self.space is not None:
            return MatOp.scalar(RatFunc.const(v))
        return QuasiDiffOp.coerce(v)

    # -- atoms ------------------------------------------------------------------

    def atom(self, name: str):
        if name == "a" or (self.space is not None and name in _PARAM_NAMES):
            return PARAM
        if self.space is None:
            if name in _LADDER_ATOMS:
                return QuasiDiffOp.from_cells([_LADDER_ATOMS[name]])
            if name == "f":
                raise DslEvalError("f needs a quadratic-extension space")
        else:
            if name == "x":
                return lift_x()
            if name == "d":
                return lift_d(self.space)
            if name == "D":
                return lift_x() * lift_d(self.space)
            if name == "f":
                return lift_f(self.space)
        raise DslEvalError(f"unknown symbol {name!r}")

    # -- operations ----------------------------------------------------------

    def add(self, u, v):
        if self.is_op(u) or self.is_op(v):
            return self.to_op(u) + self.to_op(v)
        return u + v

    def sub(self, u, v):
        return self.add(u, self.mul(ParamScalar.const(-1), v))

    def mul(self, u, v):
        if self.is_op(u) and self.is_op(v):
            _check_product((u, v))
            return u * v
        if self.is_op(u):
            return u.scale(v) if not isinstance(v, MatOp) else u * v
        if self.is_op(v):
            return v.scale(u)
        return u * v

    def div(self, u, v):
        if not self.is_op(v):
            if not v:
                raise DslEvalError("division by zero")
            return self.mul(u, ParamScalar.const(1) / v)
        inv = self.invert(v)
        return self.mul(u, inv)

    def invert(self, v):
        if isinstance(v, QuasiDiffOp):
            mono = v.as_monomial_mult()
            if mono is not None and mono[1]:
                E, c = mono
                return QuasiDiffOp.power_shift(-E).scale(ParamScalar.const(1) / c)
        raise DslEvalError("can only divide by scalars or monomials")

    def power(self, u, k):
        if isinstance(k, int):
            if self.is_op(u):
                base = u if k >= 0 else self.invert(u)
                _check_product([base] * abs(k))
                return base ** abs(k)
            if k >= 0:
                return u ** k
            if not u:
                raise DslEvalError("division by zero")
            return u ** k
        # symbolic exponent: only powers of x, ladder mode
        raise DslEvalError("symbolic exponents only apply to x")

    def power_sym(self, base_name: str, e: ParamScalar):
        if base_name != "x":
            raise DslEvalError("symbolic exponents only apply to x")
        if self.space is not None:
            raise DslEvalError("quasi-powers of x need the ladder calculus")
        if len(e.num) > 2 or not e.is_polynomial():
            raise DslEvalError("exponent must be linear in the parameter")
        num = e.num + (Fraction(0),) * (2 - len(e.num))
        return QuasiDiffOp.power_shift(QuasiExponent(num[1], num[0]))

    def commutator(self, u, v):
        u, v = self.to_op(u), self.to_op(v)
        _check_product((u, v))
        return commutator(u, v)

    # -- tree walk ------------------------------------------------------------

    def eval(self, node: Node) -> Value:
        if isinstance(node, RatLit):
            return ParamScalar.const(node.value)
        if isinstance(node, Sym):
            return self.atom(node.name)
        if isinstance(node, Sum):
            acc = None
            for sign, t in node.terms:
                v = self.eval(t)
                if sign < 0:
                    v = self.mul(ParamScalar.const(-1), v)
                acc = v if acc is None else self.add(acc, v)
            return acc
        if isinstance(node, Prod):
            acc = None
            for op, f in node.factors:
                v = self.eval(f)
                if acc is None:
                    acc = v
                elif op == "*":
                    acc = self.mul(acc, v)
                else:
                    acc = self.div(acc, v)
            return acc
        if isinstance(node, Pow):
            if isinstance(node.exp, int):
                return self.power(self.eval(node.base), node.exp)
            e = self.eval(node.exp)
            if self.is_op(e):
                raise DslEvalError("exponent must be a scalar")
            if isinstance(node.base, Sym):
                return self.power_sym(node.base.name, e)
            raise DslEvalError("symbolic exponents only apply to x")
        if isinstance(node, Comm):
            return self.commutator(self.eval(node.lhs), self.eval(node.rhs))
        if isinstance(node, Call):
            if self.space is not None:
                raise DslEvalError(
                    f"named generator {node.name!r} is not available on "
                    "quadratic-extension spaces")
            spec = _GENERATORS.get(node.name)
            if spec is None:
                raise DslEvalError(f"unknown generator {node.name!r}")
            arity, build = spec
            if len(node.args) != arity:
                raise DslEvalError(
                    f"{node.name} takes {arity} argument(s), got {len(node.args)}")
            scalar_eval = _Evaluator(None)
            args = []
            for anode in node.args:
                v = scalar_eval.eval(anode)
                if self.is_op(v):
                    raise DslEvalError(
                        f"arguments of {node.name} must be scalars")
                args.append(v)
            return QuasiDiffOp.coerce(build(*args))
        raise TypeError(f"not an AST node: {node!r}")


def eval_ladder(src_or_node: Union[str, Node]) -> Value:
    """Evaluate in the ladder-space calculus (operators on x-monomials)."""
    node = parse(src_or_node) if isinstance(src_or_node, str) else src_or_node
    return _Evaluator(None).eval(node)


def eval_quad(src_or_node: Union[str, Node], space: QuadSpace) -> Value:
    """Evaluate in the quadratic-extension calculus (2x2 matrix operators)."""
    node = parse(src_or_node) if isinstance(src_or_node, str) else src_or_node
    return _Evaluator(space).eval(node)


def split_top_level(src: str, sep: str = ",") -> list[str]:
    """Split on separators not nested inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(src):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(src[start:i])
            start = i + 1
    parts.append(src[start:])
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# Space literals
# ---------------------------------------------------------------------------


def _eval_ratfunc(node: Node) -> RatFunc:
    """Evaluate a space-literal subexpression to a rational function."""
    if isinstance(node, RatLit):
        return RatFunc.const(node.value)
    if isinstance(node, Sym):
        if node.name == "x":
            return RatFunc.x()
        if node.name in _PARAM_NAMES:
            return RatFunc.const(PARAM)
        raise DslEvalError(f"unknown symbol {node.name!r} in space literal")
    if isinstance(node, Sum):
        acc = RatFunc()
        for sign, t in node.terms:
            v = _eval_ratfunc(t)
            acc = acc + v if sign > 0 else acc - v
        return acc
    if isinstance(node, Prod):
        acc = RatFunc.const(1)
        for op, f in node.factors:
            v = _eval_ratfunc(f)
            acc = acc * v if op == "*" else acc / v
        return acc
    if isinstance(node, Pow):
        if not isinstance(node.exp, int):
            raise DslEvalError("space literals need integer powers")
        return _eval_ratfunc(node.base) ** node.exp
    raise DslEvalError("unsupported construct in space literal")


def _int_arg(node: Node, what: str) -> int:
    if isinstance(node, RatLit) and node.value.denominator == 1:
        return int(node.value)
    raise DslEvalError(f"{what} must be an integer literal")


def _param_arg(node: Node):
    """None for a bare parameter name, else an exact rational."""
    if isinstance(node, Sym) and node.name in _PARAM_NAMES:
        return None
    if isinstance(node, RatLit):
        return node.value
    if isinstance(node, Sum) and len(node.terms) == 1:
        sign, t = node.terms[0]
        if sign < 0 and isinstance(t, RatLit):
            return -t.value
    raise DslEvalError("parameter must be a symbol or a rational literal")


def parse_space(src: str) -> Union[V1Space, QuadSpace]:
    """Space literals: V1(n[, m, a]), Quad(r = <ratfunc>, n, m),
    SqrtP2(n, lam), RatioSqrt(n, lam), Lame(n, k2)."""
    node = parse(src)
    if not isinstance(node, Call):
        raise DslEvalError(f"not a space literal: {src!r}")
    name, args = node.name, node.args
    if name == "V1":
        if len(args) == 1:
            return V1Space(_int_arg(args[0], "n"))
        if len(args) == 3:
            return V1Space(_int_arg(args[0], "n"), _int_arg(args[1], "m"),
                           _param_arg(args[2]))
        raise DslEvalError("V1 takes (n) or (n, m, a)")
    if name == "SqrtP2":
        return sqrt_quadratic_preset(_int_arg(args[0], "n"), _param_arg(args[1]))
    if name == "RatioSqrt":
        return ratio_sqrt_preset(_int_arg(args[0], "n"), _param_arg(args[1]))
    if name == "Lame":
        return lame_preset(_int_arg(args[0], "n"), _param_arg(args[1]))
    if name == "Quad":
        raise DslEvalError("Quad literal uses keywords: Quad(r = ..., n, m)")
    raise DslEvalError(f"unknown space constructor {name!r}")


_QUAD_RE = re.compile(
    r"^\s*Quad\s*\(\s*r\s*=\s*(?P<r>.*?)\s*,\s*(?:n\s*=\s*)?(?P<n>\d+)\s*,"
    r"\s*(?:m\s*=\s*)?(?P<m>\d+)\s*\)\s*$"
)


def parse_space_or_quad(src: str) -> Union[V1Space, QuadSpace]:
    """parse_space plus the keyworded Quad(r = ..., n, m) form."""
    m = _QUAD_RE.match(src)
    if m:
        r = _eval_ratfunc(parse(m.group("r")))
        return QuadSpace(r, int(m.group("n")), int(m.group("m")))
    return parse_space(src)


# ---------------------------------------------------------------------------
# Random canonical expressions (round-trip corpus)
# ---------------------------------------------------------------------------

_RAND_SYMS = ["x", "d", "D", "f", "a", "lam", "k2"]
_RAND_CALLS = [
    ("jp", 1), ("j0", 1), ("Jp", 3), ("J0", 3), ("Jm", 3), ("K", 1),
    ("Kprime", 2), ("Wp", 3), ("Wm", 3),
]


def random_expr(rng: random.Random, depth: int = 3) -> Node:
    """A random canonical AST: Sums have >= 2 terms, Prods >= 2 factors,
    literals are nonnegative, powers avoid exponent 1."""
    if depth <= 0:
        pick = rng.randrange(3)
        if pick == 0:
            return Sym(rng.choice(_RAND_SYMS))
        if pick == 1:
            return RatLit(Fraction(rng.randrange(0, 12)))
        return RatLit(Fraction(rng.randrange(1, 9), rng.randrange(2, 9)))
    pick = rng.randrange(6)
    if pick == 0:
        k = rng.randrange(2, 4)
        return Sum(tuple(
            (rng.choice((1, -1)), random_expr(rng, depth - 1)) for _ in range(k)
        ))
    if pick == 1:
        k = rng.randrange(2, 4)
        return Prod(tuple(
            ("*", random_expr(rng, depth - 1)) for _ in range(k)
        ))
    if pick == 2:
        base = rng.choice(
            [Sym(rng.choice(_RAND_SYMS)), random_expr(rng, depth - 1)]
        )
        exp = rng.choice([2, 3, 4, 5, -1, -2, -3, 0])
        return Pow(base, exp)
    if pick == 3:
        return Comm(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if pick == 4:
        name, arity = rng.choice(_RAND_CALLS)
        args = []
        for _ in range(arity):
            r = rng.randrange(3)
            if r == 0:
                args.append(Sym("a"))
            elif r == 1:
                args.append(RatLit(Fraction(rng.randrange(0, 6))))
            else:
                args.append(RatLit(Fraction(rng.randrange(1, 9),
                                            rng.randrange(2, 7))))
        return Call(name, tuple(args))
    return random_expr(rng, 0)
