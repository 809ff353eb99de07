"""Closed-form scalar expressions of named coordinates.

Small expression language used for metric entries, connection coefficients
and twisting functions.  Supports parsing, exact symbolic differentiation,
light simplification, pointwise evaluation, and compilation of whole
expression arrays into straight-line kernels.

Nodes are hash-consed: a constructor returns the one live node of its key,
so trees equal node for node (constants by type and ``repr``) are one
object, and ``==`` and ``hash`` are identity.  The intern table is weak: a
node dies with its last holder.  Symbolic work is kept across calls, never
arrays of numbers: ``parse`` keeps the trees of the last 1024 sources parsed,
``differentiate`` memoizes on the node, and ``compile_array`` keeps the
kernels of the last 512 entry arrays, with their roots.  A kernel computes
and returns each distinct entry once, and places it at each of its entries.

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

import collections
import functools
import math
import re
import threading
import weakref
from typing import NoReturn

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary",
    "ParseError", "UnknownIdentifierError", "ArityError", "DomainError",
    "parse", "differentiate", "evaluate", "simplify", "substitute",
    "free_vars", "to_source", "compile_array", "FUNCTIONS",
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


class Expr:
    """Immutable interned expression node; safe to share across threads."""

    __slots__ = ("_derivatives", "__weakref__")  # differentiate's memo, made on first use

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):  # copy and pickle rebuild through the interning constructor
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return to_source(self)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        return _intern(cls, (cls, type(value), repr(value)), value)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), name)


class Unary(Expr):
    __slots__ = ("op", "arg")  # op: 'neg' or a FUNCTIONS name

    def __new__(cls, op: str, arg: Expr):
        return _intern(cls, (cls, op, id(arg)), op, arg)


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: add sub mul div pow

    def __new__(cls, op: str, left: Expr, right: Expr):
        return _intern(cls, (cls, op, id(left), id(right)), op, left, right)


# The one live node of each key: a compound node's key holds its children's
# ids, which stay valid since the node holds its children.  A miss inserts
# under the lock, so two threads never make two nodes of one key.
_NODES = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


def _intern(cls, key: tuple, *fields) -> Expr:
    node = _NODES.get(key)
    if node is None:
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(("_derivatives", *cls.__slots__), (None, *fields)):
                    object.__setattr__(node, name, value)
                _NODES[key] = node
    return node


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _fold(op: str, *args: Expr) -> Expr | None:
    # Fold constant subtrees eagerly; leave domain errors for eval time.
    if all(isinstance(a, Const) for a in args):
        node = Unary(op, *args) if len(args) == 1 else Binary(op, *args)
        try:
            value = _eval(node, {})
        except DomainError:
            return None
        return Const(value) if math.isfinite(value) else None
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


# parse's trees by (source, coordinates), oldest first; an error is never kept
_PARSED = collections.OrderedDict()
_PARSED_KEPT = 1024


def parse(source: str, coords) -> Expr:
    """Parse ``source`` over the declared coordinate names; the last 1024 trees are kept."""
    coords = tuple(coords)
    tree = _PARSED.get((source, coords))
    if tree is None:
        clash = set(coords) & (set(FUNCTIONS) | {"pi"})
        if clash:
            raise ParseError(f"coordinate names shadow built-ins: {sorted(clash)}", 0)
        tree = _PARSED[source, coords] = _Parser(source, coords).parse()
        if len(_PARSED) > _PARSED_KEPT:
            _PARSED.popitem(last=False)
    return tree


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


def _flatten(exprs) -> tuple[tuple[int, ...], list[Expr]]:
    """Shape and row-major entries of a nested list of expressions."""
    if isinstance(exprs, Expr):
        return (), [exprs]
    if not isinstance(exprs, (list, tuple)):
        raise TypeError(f"expected an Expr or a list of them, got {type(exprs).__name__}")
    if all(isinstance(e, Expr) for e in exprs):
        return (len(exprs),), list(exprs)
    parts = [_flatten(e) for e in exprs]
    shapes = {shape for shape, _ in parts}
    if len(shapes) > 1:
        raise ValueError(f"ragged expression array: entry shapes {sorted(shapes)}")
    inner = shapes.pop() if shapes else ()
    return (len(parts),) + inner, [e for _, flat in parts for e in flat]


def compile_array(exprs, coords):
    """Compile a nested list of expressions into one kernel ``x -> ndarray``.

    ``x`` holds the values of ``coords`` in order, either one point ``(d,)``
    or a batch ``(N, d)``; the result has the nesting shape of ``exprs``,
    after the batch axis if there is one.  The process keeps one kernel per
    entry objects, shape and coordinates, for the last 512 arrays compiled
    (``_kernel_of``); it holds their roots, so a tree built again is the
    same object and finds its kernel.  The kernel is one generated
    straight-line scalar function, run once per point, with an assignment
    per distinct node (a shared subtree is one node, so it is computed
    once) and a return of each distinct entry once, which one ``np.take``
    places; constants live in its namespace, never in its source, so kernels
    of the same structure share one code object.  It uses the same
    domain-guarded operations as ``evaluate``.  A point where a node leaves
    the domain or an entry is not finite gets a NaN row in the one pass over
    the points; only those rows are then evaluated again, in point order and
    with ``evaluate`` on each distinct entry by first appearance, so the
    kernel raises exactly the error ``evaluate`` raises for the first failing
    entry, in row-major order, of the first failing point.
    """
    shape, flat = _flatten(exprs)
    return _kernel_of(tuple(flat), shape, tuple(coords))


@functools.lru_cache(maxsize=512)
def _kernel_of(flat: tuple[Expr, ...], shape: tuple[int, ...], coords: tuple[str, ...]):
    """The kernel of compile_array for row-major entries ``flat``, built on a miss."""
    slot = {name: i for i, name in enumerate(coords)}
    namespace = {"__builtins__": {}, "_div": _div, "_pow": _pow, "_unbound": _unbound, **_UNARY}
    names: dict[int, str] = {}  # id(node) -> its variable in the kernel
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
                name = f"t{len(names)}"
                lines.append(f"    {name} = " + template.format(
                    names[id(left)], None if right is None else names[id(right)]))
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
                name = f"c{len(names)}"
                namespace[name] = e.value
            elif isinstance(e, Var):
                n = len(names)
                name = f"t{n}"
                if e.name in slot:
                    rhs = f"x[{slot[e.name]}]"
                else:
                    namespace[f"c{n}"] = e.name
                    rhs = f"_unbound(c{n})"
                lines.append(f"    {name} = {rhs}")
            else:
                raise ValueError(f"cannot compile {type(e).__name__} node")
            names[id(e)] = name
    # The straight-line function returns each distinct entry once, first appearance first:
    # the first failing entry in that order is the first in row-major order.
    distinct = list(dict.fromkeys(flat))
    outputs = ", ".join(names[id(e)] for e in distinct)
    source = "\n".join(["def kernel(x):", *lines, f"    return [{outputs}]"])
    exec(_code_of(source), namespace)
    straight = namespace["kernel"]
    place = {e: i for i, e in enumerate(distinct)}
    index = np.array([place[e] for e in flat], dtype=np.intp).reshape(shape)

    def kernel(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        count = math.prod(x.shape[:-1])
        points = x.reshape(count, x.shape[-1]).tolist()
        rows = np.empty((count, len(distinct)))
        for i, xs in enumerate(points):
            try:
                rows[i] = straight(xs)
            except (ArithmeticError, ValueError, LookupError):
                rows[i] = math.nan
        if not np.isfinite(rows).all():
            for i in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
                env = dict(zip(coords, points[i]))
                rows[i] = [evaluate(e, env) for e in distinct]
        out = rows.reshape(x.shape[:-1] + rows.shape[1:]).take(index, axis=-1)
        return out if shape else np.asarray(out)  # take makes one entry at a point a scalar

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
    """Exact derivative with respect to a coordinate name, lightly simplified.

    Memoized on the node: each (node, coordinate) pair is differentiated
    once while the node lives, and its derivative is one object.
    """
    memo = e._derivatives
    if memo is None:
        memo = {}
        object.__setattr__(e, "_derivatives", memo)
    elif var in memo:
        return memo[var]
    if isinstance(e, Const):
        d = ZERO
    elif isinstance(e, Var):
        d = ONE if e.name == var else ZERO
    elif isinstance(e, Unary):
        d = _CHAIN_RULES[e.op](e.arg, differentiate(e.arg, var))
    else:
        assert isinstance(e, Binary)
        a, b = e.left, e.right
        da, db = differentiate(a, var), differentiate(b, var)
        if e.op == "add":
            d = add(da, db)
        elif e.op == "sub":
            d = sub(da, db)
        elif e.op == "mul":
            d = add(mul(da, b), mul(a, db))
        elif e.op == "div":
            d = div(sub(mul(da, b), mul(a, db)), pow_(b, Const(2.0)))
        else:
            assert e.op == "pow"
            if isinstance(b, Const):
                d = mul(mul(b, pow_(a, Const(b.value - 1.0))), da)
            else:
                # a^b = exp(b*log a):  a^b * (db*log a + b*da/a)
                d = mul(pow_(a, b), add(mul(db, fn("log", a)), mul(b, div(da, a))))
    memo[var] = d
    return d


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
