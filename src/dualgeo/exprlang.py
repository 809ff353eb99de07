"""Closed-form scalar expressions of named coordinates.

Small expression language used for metric entries, connection coefficients
and twisting functions.  Supports parsing, exact symbolic differentiation,
light simplification, pointwise evaluation, and compilation of whole
expression arrays into straight-line kernels.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Known one-argument functions: sin cos tan sinh cosh tanh exp log sqrt.
The identifier ``pi`` denotes the constant.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary",
    "ParseError", "UnknownIdentifierError", "ArityError", "DomainError",
    "parse", "differentiate", "evaluate", "simplify", "substitute",
    "free_vars", "same_tree", "to_source", "compile_array", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")


class ParseError(ValueError):
    """Source text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """Identifier is neither a declared coordinate nor a known function."""


class ArityError(ParseError):
    """Call syntax used with something that is not a one-argument function."""


class DomainError(ArithmeticError):
    """Evaluation left the real domain (log/sqrt of non-positive, zero division, overflow)."""


@dataclass(frozen=True)
class Expr:
    """Immutable expression node; safe to share across threads."""

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a FUNCTIONS name
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # add sub mul div pow
    left: Expr
    right: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _fold(op: str, *args: Expr) -> Expr | None:
    # Fold constant subtrees eagerly; leave domain errors for eval time.
    if all(isinstance(a, Const) for a in args):
        node = Unary(op, *args) if len(args) == 1 else Binary(op, *args)
        try:
            return Const(evaluate(node, {}))
        except DomainError:
            return None
    return None


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold("add", a, b) or Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _fold("sub", a, b) or Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold("mul", a, b) or Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    return _fold("div", a, b) or Binary("div", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return ONE
    return _fold("pow", a, b) or Binary("pow", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def fn(name: str, a: Expr) -> Expr:
    # log(exp(a)) = a always; exp(log(a)) = a on the a > 0 domain where
    # the nested form is defined at all
    if name == "log" and isinstance(a, Unary) and a.op == "exp":
        return a.arg
    if name == "exp" and isinstance(a, Unary) and a.op == "log":
        return a.arg
    return _fold(name, a) or Unary(name, a)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.lastgroup is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, coords: tuple[str, ...]):
        self.source = source
        self.coords = set(coords)
        self.tokens = _tokenize(source)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = Binary("add" if op == "+" else "sub", e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            e = Binary("mul" if op == "*" else "div", e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.unary()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return Binary("pow", e, self.factor())
        return e

    def unary(self) -> Expr:
        kind, text, pos = self.peek()
        if (kind, text) == ("op", "-"):
            self.advance()
            return Unary("neg", self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    if text in self.coords or text == "pi":
                        raise ArityError(f"{text!r} is not callable", pos)
                    raise UnknownIdentifierError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            if text == "pi":
                return Const(math.pi)
            if text in self.coords:
                return Var(text)
            if text in FUNCTIONS:
                raise ArityError(f"function {text!r} requires an argument", pos)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        if (kind, text) == ("op", "("):
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(source: str, coords) -> Expr:
    """Parse ``source`` over the declared coordinate names."""
    coords = tuple(coords)
    clash = set(coords) & (set(FUNCTIONS) | {"pi"})
    if clash:
        raise ParseError(f"coordinate names shadow built-ins: {sorted(clash)}", 0)
    return _Parser(source, coords).parse()


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """Evaluate at a coordinate assignment; raises DomainError instead of returning NaN/inf."""
    result = _eval(e, env)
    if not math.isfinite(result):
        raise DomainError(f"non-finite result {result!r} for {to_source(e)}")
    return result


def _eval(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            _unbound(e.name)
    if isinstance(e, Unary):
        x = _eval(e.arg, env)
        return -x if e.op == "neg" else _UNARY[e.op](x)
    assert isinstance(e, Binary)
    a = _eval(e.left, env)
    b = _eval(e.right, env)
    op = e.op
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return _div(a, b)
    assert op == "pow"
    return _pow(a, b)


# -- domain-guarded operations, shared by _eval and the compiled kernels -----

def _unbound(name: str) -> NoReturn:
    raise DomainError(f"no value bound for coordinate {name!r}") from None


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise DomainError("zero raised to a negative power")
    if a < 0.0 and b != int(b):
        raise DomainError(f"negative base {a} with non-integer exponent {b}")
    try:
        return math.pow(a, b)
    except OverflowError:
        raise DomainError(f"overflow in pow({a}, {b})") from None


def _log(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _overflow_checked(op: str, f):
    def call(x: float) -> float:
        try:
            return f(x)
        except OverflowError:
            raise DomainError(f"overflow in {op}({x})") from None
    return call


_UNARY = {op: _overflow_checked(op, getattr(math, op)) for op in FUNCTIONS}
_UNARY.update(log=_log, sqrt=_sqrt)


# -- compiled tensor kernels ---------------------------------------------------

# Source templates of the binary ops; an op missing here never reaches a kernel.
_BINARY_SRC = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}",
               "div": "_div({}, {})", "pow": "_pow({}, {})"}
_EMIT = object()  # compile_array's stack mark: the node entry below it has its children named


def _flatten(exprs, done: dict) -> tuple[tuple[int, ...], list[Expr]]:
    """Shape and row-major entries of a nested list of expressions.

    ``done`` maps the id of each sub-list flattened so far to its result, so
    a sub-list object that appears more than once is flattened once.
    """
    if isinstance(exprs, Expr):
        return (), [exprs]
    hit = done.get(id(exprs))
    if hit is None:
        if not isinstance(exprs, (list, tuple)):
            raise TypeError(f"expected an Expr or a list of them, got {type(exprs).__name__}")
        if all(isinstance(e, Expr) for e in exprs):
            hit = (len(exprs),), list(exprs)
        else:
            parts = [_flatten(e, done) for e in exprs]
            shapes = {shape for shape, _ in parts}
            if len(shapes) > 1:
                raise ValueError(f"ragged expression array: entry shapes {sorted(shapes)}")
            inner = shapes.pop() if shapes else ()
            hit = (len(parts),) + inner, [e for _, flat in parts for e in flat]
        done[id(exprs)] = hit
    return hit


def compile_array(exprs, coords):
    """Compile a nested list of expressions into one kernel ``x -> ndarray``.

    ``x`` holds the values of ``coords`` in order, either one point ``(d,)``
    or a batch ``(N, d)``; the result has the nesting shape of ``exprs``,
    after the batch axis if there is one.  The kernel is one generated
    straight-line scalar function, run once per point, with an assignment per
    distinct node (shared subtrees, by identity or by structure, are computed
    once); constants live in its namespace, never in its source, so kernels
    of the same structure share one code object.  It uses the same
    domain-guarded operations as ``evaluate``.  A point where a node leaves
    the domain or an entry is not finite gets a NaN row in the one pass over
    the points; only those rows are then evaluated again, in point order and
    with ``evaluate`` entry by entry in row-major order, so the kernel raises
    exactly the error ``evaluate`` raises for the first failing entry of the
    first failing point.
    """
    coords = tuple(coords)
    shape, flat = _flatten(exprs, {})
    slot = {name: i for i, name in enumerate(coords)}
    namespace = {"__builtins__": {}, "_div": _div, "_pow": _pow, "_unbound": _unbound, **_UNARY}
    names: dict[int, str] = {}  # id(node) -> its variable in the kernel
    by_key: dict[tuple, str] = {}  # structural key -> variable, so equal subtrees share one
    lines = []

    # One post-order walk, without recursion so no tree is too deep to
    # compile.  A leaf is named when it is popped.  A compound node is
    # replaced by its entry (node, op, template, left, right), right None for
    # a unary op, and the _EMIT mark, below its children with the right child
    # on top; it is named when the mark comes back up, so an unknown op is
    # reported in walk order.
    for root in flat:
        if id(root) in names:
            continue
        stack = [root]
        pop = stack.pop
        while stack:
            e = pop()
            if e is _EMIT:
                e, op, template, left, right = pop()
                if template is None:
                    raise ValueError(f"unknown {'unary' if right is None else 'binary'} op {op!r}")
                key = (op, names[id(left)], None if right is None else names[id(right)])
                name = by_key.get(key)
                if name is None:
                    name = by_key[key] = f"t{len(by_key)}"
                    lines.append(f"    {name} = " + template.format(*key[1:]))
            elif id(e) in names:
                continue
            elif isinstance(e, Binary):
                stack += ((e, e.op, _BINARY_SRC.get(e.op), e.left, e.right), _EMIT,
                          e.left, e.right)
                continue
            elif isinstance(e, Unary):
                template = ("-{}" if e.op == "neg"
                            else e.op + "({})" if e.op in FUNCTIONS else None)
                stack += ((e, e.op, template, e.arg, None), _EMIT, e.arg)
                continue
            elif isinstance(e, Const):
                key = ("const", type(e.value), repr(e.value))
                name = by_key.get(key)
                if name is None:
                    name = by_key[key] = f"c{len(by_key)}"
                    namespace[name] = e.value
            elif isinstance(e, Var):
                key = ("var", e.name)
                name = by_key.get(key)
                if name is None:
                    n = len(by_key)
                    name = by_key[key] = f"t{n}"
                    if e.name in slot:
                        rhs = f"x[{slot[e.name]}]"
                    else:
                        namespace[f"c{n}"] = e.name
                        rhs = f"_unbound(c{n})"
                    lines.append(f"    {name} = {rhs}")
            else:
                raise ValueError(f"cannot compile {type(e).__name__} node")
            names[id(e)] = name
    outputs = ", ".join(names[id(e)] for e in flat)
    source = "\n".join(["def kernel(x):", *lines, f"    return [{outputs}]"])
    exec(_code_of(source), namespace)
    straight = namespace["kernel"]
    size = len(flat)

    def kernel(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        count = math.prod(x.shape[:-1])
        points = x.reshape(count, x.shape[-1]).tolist()
        out = np.empty(x.shape[:-1] + shape)
        rows = out.reshape(count, size)
        for i, xs in enumerate(points):
            try:
                rows[i] = straight(xs)
            except (ArithmeticError, ValueError, LookupError):
                rows[i] = math.nan
        if np.isfinite(rows).all():
            return out
        for i in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
            env = dict(zip(coords, points[i]))
            rows[i] = [evaluate(e, env) for e in flat]
        return out

    return kernel


@functools.lru_cache(maxsize=512)
def _code_of(source: str):
    """The compiled code of a kernel source; equal sources share one code object."""
    return compile(source, "<compile_array>", "exec")


# The chain rule of each unary op: (a, da) -> d op(a)
_CHAIN_RULES = {
    "neg": lambda a, da: neg(da),
    "sin": lambda a, da: mul(fn("cos", a), da),
    "cos": lambda a, da: neg(mul(fn("sin", a), da)),
    "tan": lambda a, da: div(da, pow_(fn("cos", a), Const(2.0))),
    "sinh": lambda a, da: mul(fn("cosh", a), da),
    "cosh": lambda a, da: mul(fn("sinh", a), da),
    "tanh": lambda a, da: div(da, pow_(fn("cosh", a), Const(2.0))),
    "exp": lambda a, da: mul(fn("exp", a), da),
    "log": lambda a, da: div(da, a),
    "sqrt": lambda a, da: div(da, mul(Const(2.0), fn("sqrt", a))),
}


def differentiate(e: Expr, var: str) -> Expr:
    """Exact derivative with respect to a coordinate name, lightly simplified."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Unary):
        da = differentiate(e.arg, var)
        return _CHAIN_RULES[e.op](e.arg, da)
    assert isinstance(e, Binary)
    a, b = e.left, e.right
    da, db = differentiate(a, var), differentiate(b, var)
    if e.op == "add":
        return add(da, db)
    if e.op == "sub":
        return sub(da, db)
    if e.op == "mul":
        return add(mul(da, b), mul(a, db))
    if e.op == "div":
        return div(sub(mul(da, b), mul(a, db)), pow_(b, Const(2.0)))
    assert e.op == "pow"
    if isinstance(b, Const):
        return mul(mul(b, pow_(a, Const(b.value - 1.0))), da)
    # a^b = exp(b*log a):  a^b * (db*log a + b*da/a)
    return mul(pow_(a, b), add(mul(db, fn("log", a)), mul(b, div(da, a))))


def simplify(e: Expr) -> Expr:
    """Constant folding and 0/1 identities, applied bottom-up."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        a = simplify(e.arg)
        return neg(a) if e.op == "neg" else fn(e.op, a)
    assert isinstance(e, Binary)
    a, b = simplify(e.left), simplify(e.right)
    return {"add": add, "sub": sub, "mul": mul, "div": div, "pow": pow_}[e.op](a, b)


def substitute(e: Expr, bindings: dict[str, float]) -> Expr:
    """Replace coordinates by constants; result is simplified."""
    if isinstance(e, Var) and e.name in bindings:
        return Const(float(bindings[e.name]))
    if isinstance(e, Unary):
        return (neg if e.op == "neg" else lambda x: fn(e.op, x))(substitute(e.arg, bindings))
    if isinstance(e, Binary):
        op = {"add": add, "sub": sub, "mul": mul, "div": div, "pow": pow_}[e.op]
        return op(substitute(e.left, bindings), substitute(e.right, bindings))
    return e


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_vars(e.arg)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    return set()


def same_tree(a: Expr, b: Expr) -> bool:
    """Whether a and b are equal node for node, constants by type and ``repr``.

    Two such trees get one variable in ``compile_array``.  ``==`` is no test,
    since it takes ``0.0`` for ``-0.0``, and printed text is none either:
    ``a + b + c`` and ``a + (b + c)`` print alike.
    """
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if isinstance(a, Const):
            if type(a.value) is not type(b.value) or repr(a.value) != repr(b.value):
                return False
        elif isinstance(a, Var):
            if a.name != b.name:
                return False
        elif isinstance(a, Unary) and a.op == b.op:
            pairs.append((a.arg, b.arg))
        elif isinstance(a, Binary) and a.op == b.op:
            pairs += ((a.left, b.left), (a.right, b.right))
        else:
            return False
    return True


# Printing precedence mirrors the grammar: the base of '^' and the operand of
# unary '-' must re-parse as 'unary'; right operands of '-' and '/' must not
# re-associate.
_LEVEL = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}


def _print(e: Expr, min_level: int) -> str:
    if isinstance(e, Const):
        text = repr(e.value)
        return f"({text})" if e.value < 0 and min_level > 1 else text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = f"-{_print(e.arg, 4)}"
            return f"({inner})" if min_level > 3 else inner
        return f"{e.op}({_print(e.arg, 0)})"
    assert isinstance(e, Binary)
    lvl = _LEVEL[e.op]
    symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.op]
    if e.op == "pow":
        text = f"{_print(e.left, 4)}^{_print(e.right, 3)}"
    else:
        # left-assoc: right operand one level stricter for - and /
        right_lvl = lvl + (1 if e.op in ("sub", "div") else 0)
        text = f"{_print(e.left, lvl)}{symbol}{_print(e.right, right_lvl)}"
    return f"({text})" if lvl < min_level else text


def to_source(e: Expr) -> str:
    """Render to text that re-parses to a semantically identical expression."""
    return _print(e, 0)
