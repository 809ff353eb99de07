"""Closed-form scalar expressions of named coordinates.

Small expression language used for metric entries, connection coefficients
and twisting functions.  Supports parsing, exact symbolic differentiation,
light simplification, pointwise evaluation, and compilation of whole
expression arrays into straight-line kernels.

Each operator is defined once, by its row in the operator table ``_OPS``.
Every walker that needs an op's meaning reads its row through ``_row``, so
an op without a row raises ``ValueError("unknown binary op 'mod'")`` (or
``unary``) in each.

Nodes are hash-consed: a constructor returns the one live node of its key,
so trees equal node for node (constants by type and ``repr``) are one
object, and ``==`` and ``hash`` are identity.  The intern table is weak: a
node dies with its last holder.  Symbolic work is kept across calls, never
arrays of numbers: ``parse`` keeps the trees of the last 1024 sources parsed,
``differentiate`` memoizes on the node, and ``compile_array`` keeps the
kernels of the last 512 entry arrays, with their roots.  A kernel computes
and returns each distinct entry once, and places it at each of its entries;
it runs once on a point, and once on a batch of at least ``_COLUMN_ROWS``
points, over coordinate columns, and once per point on a smaller batch.
An owner of symbolic work (a chart's metric, an explicit connection's
Gamma, a twist) holds its own ``_Jets`` and finds its derivatives and
kernels in the node memos and the kernel table; jets are not shared
between owners, so an owner built again walks its derivative tables
again, each step a memo hit.

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
import itertools
import math
import operator
import re
import threading
import types
import weakref
from typing import Callable, NamedTuple, NoReturn

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary",
    "ParseError", "UnknownIdentifierError", "ArityError", "DomainError",
    "parse", "differentiate", "evaluate", "simplify", "substitute",
    "free_vars", "to_source", "compile_array", "FUNCTIONS",
]

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
        value_of = _row(Unary if len(args) == 1 else Binary, op).value
        try:
            value = value_of(*(a.value for a in args))
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

    def binary_op(self, level: int) -> str | None:
        """Consume and return the next token's op if it is a binary op of ``level``."""
        op = _LEVEL_OPS.get((level, self.peek()[1]))
        if op is not None:
            self.advance()
        return op

    def expr(self) -> Expr:
        e = self.term()
        while op := self.binary_op(1):
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.binary_op(2):
            e = Binary(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        e = self.unary()
        if op := self.binary_op(3):
            return Binary(op, e, self.factor())
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
        return _row(Unary, e.op).value(_eval(e.arg, env))
    return _row(Binary, e.op).value(_eval(e.left, env), _eval(e.right, env))


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
    if a < 0.0 and not float(b).is_integer():
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


# -- the operator table: each op's one definition -------------------------------

class _BinaryOp(NamedTuple):
    symbol: str  # its token in the grammar
    level: int  # its precedence: 1 sums, 2 products, 3 powers
    operands: tuple[int, int]  # the least level each operand prints at unbracketed
    value: Callable[[float, float], float]  # domain-guarded, as in the kernels
    line: str  # its kernel line over the operands' variables
    rule: Callable[[Expr, Expr, Expr, Expr], Expr]  # (a, b, da, db) -> d op(a, b)
    build: Callable[[Expr, Expr], Expr]  # op(a, b), folded and with its 0/1 identities


class _UnaryOp(NamedTuple):
    value: Callable[[float], float]
    line: str  # its kernel line over the operand's variable, also its printed form
    rule: Callable[[Expr, Expr], Expr]  # the chain rule: (a, da) -> d op(a)
    build: Callable[[Expr], Expr]


def _function(name: str, rule, value=None) -> _UnaryOp:
    """The row of a FUNCTIONS name; by default its value is math's, overflow a DomainError."""
    f = getattr(math, name)

    def checked(x: float) -> float:
        try:
            return f(x)
        except OverflowError:
            raise DomainError(f"overflow in {name}({x})") from None
        except ValueError:  # sin, cos and tan of an infinite argument
            raise DomainError(f"{name} of {x} is undefined") from None
    return _UnaryOp(value or checked, f"{name}({{}})", rule, functools.partial(fn, name))


_OPS = {
    Binary: {
        "add": _BinaryOp("+", 1, (1, 1), operator.add, "{} + {}",
                         lambda a, b, da, db: add(da, db), add),
        "sub": _BinaryOp("-", 1, (1, 2), operator.sub, "{} - {}",
                         lambda a, b, da, db: sub(da, db), sub),
        "mul": _BinaryOp("*", 2, (2, 2), operator.mul, "{} * {}",
                         lambda a, b, da, db: add(mul(da, b), mul(a, db)), mul),
        "div": _BinaryOp("/", 2, (2, 3), _div, "_div({}, {})",
                         lambda a, b, da, db: div(sub(mul(da, b), mul(a, db)),
                                                  pow_(b, Const(2.0))), div),
        "pow": _BinaryOp("^", 3, (4, 3), _pow, "_pow({}, {})", lambda a, b, da, db: (
            mul(mul(b, pow_(a, Const(b.value - 1.0))), da) if isinstance(b, Const)
            # a^b = exp(b*log a):  a^b * (db*log a + b*da/a)
            else mul(pow_(a, b), add(mul(db, fn("log", a)), mul(b, div(da, a))))), pow_),
    },
    Unary: {
        "neg": _UnaryOp(operator.neg, "-{}", lambda a, da: neg(da), neg),
        "sin": _function("sin", lambda a, da: mul(fn("cos", a), da)),
        "cos": _function("cos", lambda a, da: neg(mul(fn("sin", a), da))),
        "tan": _function("tan", lambda a, da: div(da, pow_(fn("cos", a), Const(2.0)))),
        "sinh": _function("sinh", lambda a, da: mul(fn("cosh", a), da)),
        "cosh": _function("cosh", lambda a, da: mul(fn("sinh", a), da)),
        "tanh": _function("tanh", lambda a, da: div(da, pow_(fn("cosh", a), Const(2.0)))),
        "exp": _function("exp", lambda a, da: mul(fn("exp", a), da)),
        "log": _function("log", lambda a, da: div(da, a), _log),
        "sqrt": _function("sqrt", lambda a, da: div(da, mul(Const(2.0), fn("sqrt", a))), _sqrt),
    },
}
FUNCTIONS = tuple(op for op in _OPS[Unary] if op != "neg")  # the named functions, in row order
_LEVEL_OPS = {(row.level, row.symbol): op for op, row in _OPS[Binary].items()}  # for the parser


def _row(kind: type, op: str):
    """The row of ``op`` in a ``kind`` (Unary or Binary) node; every walker reads ops here."""
    row = _OPS[kind].get(op)
    if row is None:
        raise ValueError(f"unknown {kind.__name__.lower()} op {op!r}")
    return row


# -- compiled tensor kernels ---------------------------------------------------

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


# A batch of at least this many rows is evaluated by columns, one call of a
# kernel's straight-line code for all its rows.  Below it, one call per point
# is cheaper: the two cost the same at about 16 rows on 2-4 D charts' jets.
_COLUMN_ROWS = 16


def _mapped(f):
    """``f`` at each row of a column, or once at a constant (a float)."""
    return lambda a: (np.fromiter(map(f, a.tolist()), float, len(a))
                      if isinstance(a, np.ndarray) else f(a))


def _pow_columns(a, b):
    if isinstance(a, np.ndarray):
        b = b.tolist() if isinstance(b, np.ndarray) else itertools.repeat(b)
        return np.fromiter(map(_pow, a.tolist(), b), float, len(a))
    if isinstance(b, np.ndarray):
        return np.fromiter(map(_pow, itertools.repeat(a), b.tolist()), float, len(b))
    return _pow(a, b)


def _div_columns(a, b):
    if np.count_nonzero(b) < np.size(b):
        raise DomainError("division by zero")
    return a / b


# The column namespace.  + - * and unary - are numpy's, the same IEEE
# operations in the same order as on floats.  Each function's raw math
# function raises where its row's value raises and else returns the same
# float; math.pow does not (math.pow(-0.5, inf) is 0.0), so _pow stays guarded.
_COLUMN_OPS = {"_div": _div_columns, "_pow": _pow_columns,
               **{name: _mapped(getattr(math, name)) for name in FUNCTIONS}}


def compile_array(exprs, coords):
    """Compile a nested list of expressions into one kernel ``x -> ndarray``.

    ``x`` holds the values of ``coords`` in order, either one point ``(d,)``
    or a batch ``(N, d)``; the result has the nesting shape of ``exprs``,
    after the batch axis if there is one.  The process keeps one kernel per
    entry objects, shape and coordinates, for the last 512 arrays compiled
    (``_kernel_of``); it holds their roots, so a tree built again is the
    same object and finds its kernel.  The kernel is one generated
    straight-line scalar function with an assignment per distinct node (a
    shared subtree is one node, so it is computed once) and a return of each
    distinct entry once, which one ``np.take`` places; constants live in its
    namespace, never in its source, so kernels of the same structure share
    one code object.  It uses the same domain-guarded operations as
    ``evaluate``.  One point ``(d,)`` is one direct call, kept when every
    value is finite.  A batch of at least ``_COLUMN_ROWS`` points is one call
    of the same code over the coordinate columns, rebound to the column
    operations ``_COLUMN_OPS``, whose values are bitwise those of one call
    per point; it is kept when no node raises and every value is finite.  Any
    other batch, or point, is run once per point: a point where a node leaves
    the domain or an entry is not finite gets a NaN row, and only those rows
    are then evaluated again, in point order and with ``evaluate`` on each
    distinct entry by first appearance, so the kernel raises exactly the
    error ``evaluate`` raises for the first failing entry, in row-major
    order, of the first failing point.
    """
    shape, flat = _flatten(exprs)
    return _kernel_of(tuple(flat), shape, tuple(coords))


@functools.lru_cache(maxsize=512)
def _kernel_of(flat: tuple[Expr, ...], shape: tuple[int, ...], coords: tuple[str, ...]):
    """The kernel of compile_array for row-major entries ``flat``, built on a miss."""
    slot = {name: i for i, name in enumerate(coords)}
    namespace = {"__builtins__": {}, "_div": _div, "_pow": _pow, "_unbound": _unbound,
                 **{op: row.value for op, row in _OPS[Unary].items()}}
    names: dict[int, str] = {}  # id(node) -> its variable in the kernel
    lines = []

    # One post-order walk, without recursion so no tree is too deep to
    # compile.  A leaf is named when it is popped.  A compound node is
    # replaced by its entry (node, children) and the _EMIT mark, below its
    # children with the right child on top; it is named when the mark comes
    # back up, so an unknown op is reported in walk order.
    for root in flat:
        if id(root) in names:
            continue
        stack = [root]
        pop = stack.pop
        while stack:
            e = pop()
            if e is _EMIT:
                e, children = pop()
                name = f"t{len(names)}"
                lines.append(f"    {name} = " + _row(type(e), e.op).line.format(
                    *[names[id(c)] for c in children]))
            elif id(e) in names:
                continue
            elif isinstance(e, Binary):
                stack += ((e, (e.left, e.right)), _EMIT, e.left, e.right)
                continue
            elif isinstance(e, Unary):
                stack += ((e, (e.arg,)), _EMIT, e.arg)
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
    code = _code_of(source)
    exec(code, namespace)
    straight = namespace["kernel"]
    column = None  # the same code over coordinate columns, made on the first batch
    place = {e: i for i, e in enumerate(distinct)}
    index = np.array([place[e] for e in flat], dtype=np.intp).reshape(shape)

    def kernel(x) -> np.ndarray:
        nonlocal column
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:  # one point: keep a direct call when every value is finite
            try:
                values = straight(x.tolist())
                if math.isfinite(sum(values)) or all(map(math.isfinite, values)):
                    return np.asarray(np.array(values, dtype=float).take(index))
            except (ArithmeticError, ValueError, LookupError):
                pass
        count = math.prod(x.shape[:-1])
        points = x.reshape(count, x.shape[-1])
        rows = None
        if count >= _COLUMN_ROWS:  # one call over the columns, kept when no node raises
            if column is None:
                body = next(c for c in code.co_consts if isinstance(c, types.CodeType))
                column = types.FunctionType(body, {**namespace, **_COLUMN_OPS})
            cols = np.empty((len(distinct), count))
            try:
                with np.errstate(all="ignore"):
                    for i, value in enumerate(column(list(points.T.copy()))):
                        cols[i] = value
                    if math.isfinite(cols.sum()) or np.isfinite(cols).all():  # a sum can overflow
                        rows = cols.T
            except (ArithmeticError, ValueError, LookupError):
                pass
        if rows is None:
            points = points.tolist()
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
        d = _row(Unary, e.op).rule(e.arg, differentiate(e.arg, var))
    else:
        a, b = e.left, e.right
        d = _row(Binary, e.op).rule(a, b, differentiate(a, var), differentiate(b, var))
    memo[var] = d
    return d


# -- jets: an entry array with its derivatives --------------------------------

def derivative_table(exprs: tuple, coord: str) -> tuple:
    """d exprs / d coord entry by entry, for a tuple of entries.

    ``differentiate`` memoizes on the entry node, and equal entries are one
    node, so each distinct entry is differentiated once per coordinate for
    as long as it lives, and its derivatives are one object too.
    """
    return tuple(differentiate(e, coord) for e in exprs)


class _Jets:
    """An array of expressions with its derivatives over coords, and their kernels.

    A chart's metric g with dg, d2g, d3g, an explicit connection's Gamma
    with dGamma, a twist's k with dk, d2k.  The array is a row-major tuple
    of entries of ``shape``, and so is each derivative block, with the
    derivative indices leading: d1 has shape (d,) + shape, d2 (d, d) + shape.
    Each owner builds its own; the nodes' derivative memos and the kernel
    table (``_kernel_of``) make every derivative and kernel of the same
    entries the same object in every owner.  It holds no arrays of numbers.
    Each higher order has one rule: block (i, *rest) is d_i of block rest one
    order lower, built once per sorted index tuple and held, entry object for
    entry object, by its permutations; the kernel computes each distinct entry
    once and places it.  Tables are built on first use, kernels when evaluated.
    """

    def __init__(self, exprs: tuple, shape: tuple[int, ...], coords: tuple[str, ...]):
        self.exprs, self.shape, self.coords = exprs, shape, coords

    def block(self, table: tuple, n: int) -> tuple:
        """The n-th array of ``shape`` in a derivative table."""
        size = len(self.exprs)
        return table[n * size:(n + 1) * size]

    @functools.cached_property
    def d1(self) -> tuple:
        # block i is d_i exprs (for a metric, d1 is d_i g_jk at [i, j, k])
        return tuple(e for c in self.coords for e in derivative_table(self.exprs, c))

    def _next_order(self, lower: tuple, order: int) -> tuple:
        # block t = (i, *rest) is d_i of block rest of ``lower``; in product order a sorted t
        # comes before its other permutations, and they take its block
        d = len(self.coords)
        blocks = {}
        for n, t in enumerate(itertools.product(range(d), repeat=order)):
            c = tuple(sorted(t))
            blocks[t] = blocks[c] if c in blocks else derivative_table(
                self.block(lower, n % d ** (order - 1)), self.coords[t[0]])
        return tuple(itertools.chain.from_iterable(blocks.values()))

    d2 = functools.cached_property(lambda self: self._next_order(self.d1, 2))
    d3 = functools.cached_property(lambda self: self._next_order(self.d2, 3))

    def _compiled(self, table: tuple, lead: tuple[int, ...]):
        return _kernel_of(table, lead + self.shape, self.coords)

    kernel = functools.cached_property(lambda self: self._compiled(self.exprs, ()))
    d1_kernel = functools.cached_property(lambda self: self._compiled(self.d1, (len(self.coords),)))
    d2_kernel = functools.cached_property(
        lambda self: self._compiled(self.d2, (len(self.coords),) * 2))
    d3_kernel = functools.cached_property(
        lambda self: self._compiled(self.d3, (len(self.coords),) * 3))


def simplify(e: Expr) -> Expr:
    """Constant folding and 0/1 identities, applied bottom-up."""
    return substitute(e, {})


def substitute(e: Expr, bindings: dict[str, float]) -> Expr:
    """Replace coordinates by constants; result is simplified."""
    if isinstance(e, Var) and e.name in bindings:
        return Const(float(bindings[e.name]))
    if isinstance(e, Unary):
        return _row(Unary, e.op).build(substitute(e.arg, bindings))
    if isinstance(e, Binary):
        return _row(Binary, e.op).build(substitute(e.left, bindings),
                                        substitute(e.right, bindings))
    return e


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_vars(e.arg)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    return set()


def _print(e: Expr, min_level: int) -> str:
    if isinstance(e, Const):
        text = repr(e.value)
        return f"({text})" if e.value < 0 and min_level > 1 else text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        line = _row(Unary, e.op).line
        if e.op == "neg":  # the operand of unary '-' must re-parse as 'unary'
            inner = line.format(_print(e.arg, 4))
            return f"({inner})" if min_level > 3 else inner
        return line.format(_print(e.arg, 0))
    # the base of '^' must re-parse as 'unary'; the right operands of '-' and '/'
    # must not re-associate
    row = _row(Binary, e.op)
    left, right = row.operands
    symbol = f" {row.symbol} " if row.level == 1 else row.symbol  # sums print spaced
    text = f"{_print(e.left, left)}{symbol}{_print(e.right, right)}"
    return f"({text})" if row.level < min_level else text


def to_source(e: Expr) -> str:
    """Render to text that re-parses to a semantically identical expression."""
    return _print(e, 0)
