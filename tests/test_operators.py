"""Each operator's rules, and the one way an operator without rules fails.

One expression per operator (and ``pow`` once with a constant exponent and
once with a variable one) is parsed over ``x, y``.  Its first derivative in
``x``, its mixed second derivative, its simplified form and the source of
its compiled kernel are compared with literals, so a change to any
operator's rule shows here as a changed string.  An op outside the operator
table raises the same ``ValueError`` in every walker, also under
``python -O``; and a domain error of ``_pow`` reaches the command line as a
usage error.  A batch evaluated by columns maps each function's raw ``math``
function, which raises exactly where the row's value raises; ``_pow`` is
the one operator whose raw function would not, so its guards stay.
"""

import json
import math
import os
import re
import subprocess
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from dualgeo import exprlang
from dualgeo.cli import main
from dualgeo.exprlang import (FUNCTIONS, Binary, DomainError, Unary, Var, compile_array,
                              differentiate, evaluate, parse, simplify, substitute, to_source)

ROOT = Path(__file__).parent.parent

COORDS = ("x", "y")
ARG = "x*y + (3 - 1)"
LEFT, RIGHT = "x^2*y", "(3 - 1)*x + y"
SOURCES = {
    "add": f"{LEFT} + ({RIGHT})",
    "sub": f"{LEFT} - ({RIGHT})",
    "mul": f"({LEFT})*({RIGHT})",
    "div": f"({LEFT})/({RIGHT})",
    "pow": f"({RIGHT})^3",
    "pow-variable": f"({RIGHT})^(x*y)",
    "neg": f"-({ARG})",
    **{name: f"{name}({ARG})" for name in FUNCTIONS},
}

# (d/dx, d/dy d/dx, simplify, kernel source) of each source above
PINNED = {
    "add": (
        "2.0*x*y + 3.0 - 1.0",
        "2.0*x",
        "x^2.0*y + 2.0*x + y",
        "def kernel(x):\n" "    t0 = x[1]\n" "    t1 = x[0]\n"
         "    t4 = c3 - c2\n" "    t5 = t4 * t1\n" "    t6 = t5 + t0\n"
         "    t8 = _pow(t1, c7)\n" "    t9 = t8 * t0\n" "    t10 = t9 + t6\n"
         "    return [t10]"),
    "sub": (
        "2.0*x*y - (3.0 - 1.0)",
        "2.0*x",
        "x^2.0*y - (2.0*x + y)",
        "def kernel(x):\n" "    t0 = x[1]\n" "    t1 = x[0]\n"
         "    t4 = c3 - c2\n" "    t5 = t4 * t1\n" "    t6 = t5 + t0\n"
         "    t8 = _pow(t1, c7)\n" "    t9 = t8 * t0\n" "    t10 = t9 - t6\n"
         "    return [t10]"),
    "mul": (
        "2.0*x*y*((3.0 - 1.0)*x + y) + x^2.0*y*(3.0 - 1.0)",
        "2.0*x*((3.0 - 1.0)*x + y) + 2.0*x*y + x^2.0*(3.0 - 1.0)",
        "x^2.0*y*(2.0*x + y)",
        "def kernel(x):\n" "    t0 = x[1]\n" "    t1 = x[0]\n"
         "    t4 = c3 - c2\n" "    t5 = t4 * t1\n" "    t6 = t5 + t0\n"
         "    t8 = _pow(t1, c7)\n" "    t9 = t8 * t0\n" "    t10 = t9 * t6\n"
         "    return [t10]"),
    "div": (
        "(2.0*x*y*((3.0 - 1.0)*x + y) - x^2.0*y*(3.0 - 1.0))/((3.0 - 1.0)*x + y)^2.0",
        "((2.0*x*((3.0 - 1.0)*x + y) + 2.0*x*y - x^2.0*(3.0 - 1.0))*((3.0 - 1.0)*x + "
         "y)^2.0 - (2.0*x*y*((3.0 - 1.0)*x + y) - x^2.0*y*(3.0 - 1.0))*2.0*((3.0 - "
         "1.0)*x + y))/(((3.0 - 1.0)*x + y)^2.0)^2.0",
        "x^2.0*y/(2.0*x + y)",
        "def kernel(x):\n" "    t0 = x[1]\n" "    t1 = x[0]\n"
         "    t4 = c3 - c2\n" "    t5 = t4 * t1\n" "    t6 = t5 + t0\n"
         "    t8 = _pow(t1, c7)\n" "    t9 = t8 * t0\n" "    t10 = _div(t9, t6)\n"
         "    return [t10]"),
    "pow": (
        "3.0*((3.0 - 1.0)*x + y)^2.0*(3.0 - 1.0)",
        "3.0*2.0*((3.0 - 1.0)*x + y)*(3.0 - 1.0)",
        "(2.0*x + y)^3.0",
        "def kernel(x):\n" "    t1 = x[1]\n" "    t2 = x[0]\n"
         "    t4 = c0 - c3\n" "    t5 = t4 * t2\n" "    t6 = t5 + t1\n"
         "    t7 = _pow(t6, c0)\n" "    return [t7]"),
    "pow-variable": (
        "((3.0 - 1.0)*x + y)^(x*y)*(y*log((3.0 - 1.0)*x + y) + x*y*(3.0 - 1.0)/((3.0 - "
         "1.0)*x + y))",
        "((3.0 - 1.0)*x + y)^(x*y)*(x*log((3.0 - 1.0)*x + y) + x*y*1.0/((3.0 - 1.0)*x "
         "+ y))*(y*log((3.0 - 1.0)*x + y) + x*y*(3.0 - 1.0)/((3.0 - 1.0)*x + y)) + "
         "((3.0 - 1.0)*x + y)^(x*y)*(log((3.0 - 1.0)*x + y) + y*1.0/((3.0 - 1.0)*x + y) "
         "+ x*(3.0 - 1.0)/((3.0 - 1.0)*x + y) + x*y*-(3.0 - 1.0)/((3.0 - 1.0)*x + "
         "y)^2.0)",
        "(2.0*x + y)^(x*y)",
        "def kernel(x):\n" "    t0 = x[1]\n" "    t1 = x[0]\n"
         "    t2 = t1 * t0\n" "    t5 = c4 - c3\n" "    t6 = t5 * t1\n"
         "    t7 = t6 + t0\n" "    t8 = _pow(t7, t2)\n" "    return [t8]"),
    "neg": (
        "-y",
        "-1.0",
        "-(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = -t6\n" "    return [t7]"),
    "sin": (
        "cos(x*y + 3.0 - 1.0)*y",
        "-(sin(x*y + 3.0 - 1.0)*x)*y + cos(x*y + 3.0 - 1.0)",
        "sin(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = sin(t6)\n" "    return [t7]"),
    "cos": (
        "-(sin(x*y + 3.0 - 1.0)*y)",
        "-(cos(x*y + 3.0 - 1.0)*x*y + sin(x*y + 3.0 - 1.0))",
        "cos(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = cos(t6)\n" "    return [t7]"),
    "tan": (
        "y/cos(x*y + 3.0 - 1.0)^2.0",
        "(cos(x*y + 3.0 - 1.0)^2.0 - y*2.0*cos(x*y + 3.0 - 1.0)*-(sin(x*y + 3.0 - "
         "1.0)*x))/(cos(x*y + 3.0 - 1.0)^2.0)^2.0",
        "tan(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = tan(t6)\n" "    return [t7]"),
    "sinh": (
        "cosh(x*y + 3.0 - 1.0)*y",
        "sinh(x*y + 3.0 - 1.0)*x*y + cosh(x*y + 3.0 - 1.0)",
        "sinh(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = sinh(t6)\n" "    return [t7]"),
    "cosh": (
        "sinh(x*y + 3.0 - 1.0)*y",
        "cosh(x*y + 3.0 - 1.0)*x*y + sinh(x*y + 3.0 - 1.0)",
        "cosh(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = cosh(t6)\n" "    return [t7]"),
    "tanh": (
        "y/cosh(x*y + 3.0 - 1.0)^2.0",
        "(cosh(x*y + 3.0 - 1.0)^2.0 - y*2.0*cosh(x*y + 3.0 - 1.0)*sinh(x*y + 3.0 - "
         "1.0)*x)/(cosh(x*y + 3.0 - 1.0)^2.0)^2.0",
        "tanh(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = tanh(t6)\n" "    return [t7]"),
    "exp": (
        "exp(x*y + 3.0 - 1.0)*y",
        "exp(x*y + 3.0 - 1.0)*x*y + exp(x*y + 3.0 - 1.0)",
        "exp(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = exp(t6)\n" "    return [t7]"),
    "log": (
        "y/(x*y + 3.0 - 1.0)",
        "(x*y + 3.0 - 1.0 - y*x)/(x*y + 3.0 - 1.0)^2.0",
        "log(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = log(t6)\n" "    return [t7]"),
    "sqrt": (
        "y/(2.0*sqrt(x*y + 3.0 - 1.0))",
        "(2.0*sqrt(x*y + 3.0 - 1.0) - y*2.0*x/(2.0*sqrt(x*y + 3.0 - "
         "1.0)))/(2.0*sqrt(x*y + 3.0 - 1.0))^2.0",
        "sqrt(x*y + 2.0)",
        "def kernel(x):\n" "    t2 = c1 - c0\n" "    t3 = x[1]\n"
         "    t4 = x[0]\n" "    t5 = t4 * t3\n" "    t6 = t5 + t2\n"
         "    t7 = sqrt(t6)\n" "    return [t7]"),
}


def _kernel_source(e, monkeypatch) -> str:
    """The source compile_array generates for [e] (with empty symbolic tables installed)."""
    sources = []
    code_of = exprlang._code_of
    monkeypatch.setattr(exprlang, "_code_of", lambda source: sources.append(source)
                        or code_of(source))
    compile_array([e], COORDS)
    [source] = sources
    return source


def test_every_operator_is_pinned():
    roots = {parse(source, COORDS).op for source in SOURCES.values()}
    assert roots == {"add", "sub", "mul", "div", "pow", "neg", *FUNCTIONS}
    assert PINNED.keys() == SOURCES.keys()


@pytest.mark.parametrize("name", PINNED)
def test_operator_rules_are_unchanged(name, monkeypatch, empty_tables):
    e = parse(SOURCES[name], COORDS)
    dx = differentiate(e, "x")
    got = (to_source(dx), to_source(differentiate(dx, "y")), to_source(simplify(e)),
           _kernel_source(e, monkeypatch))
    assert got == PINNED[name]


X, Y = Var("x"), Var("y")
UNKNOWN = {
    "erf": (Unary("erf", X), "unknown unary op 'erf'"),
    "mod": (Binary("mod", X, Y), "unknown binary op 'mod'"),
    "nested-erf": (Binary("add", Unary("sin", X), Unary("erf", Y)), "unknown unary op 'erf'"),
    "nested-mod": (Unary("neg", Binary("mul", X, Binary("mod", X, Y))),
                   "unknown binary op 'mod'"),
}
WALKERS = {
    "evaluate": lambda e: evaluate(e, {"x": 1.0, "y": 2.0}),
    "differentiate": lambda e: differentiate(e, "x"),
    "simplify": simplify,
    "substitute": lambda e: substitute(e, {"x": 1.0}),
    "to_source": to_source,
    "compile_array": lambda e: compile_array([e], COORDS),
}


@pytest.mark.parametrize("walker", WALKERS)
@pytest.mark.parametrize("case", UNKNOWN)
def test_an_unknown_op_fails_alike_in_every_walker(walker, case):
    node, message = UNKNOWN[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WALKERS[walker](node)


def test_the_operator_table_holds_exactly_the_grammar():
    assert set(exprlang._OPS[Unary]) == {"neg", *FUNCTIONS}
    assert set(exprlang._OPS[Binary]) == {"add", "sub", "mul", "div", "pow"}


def test_an_unknown_op_fails_without_asserts():
    # under -O no assert guards an op, so the table's lookup must be what fails
    code = ("from dualgeo.exprlang import Binary, Var, evaluate\n"
            "try:\n"
            "    print(evaluate(Binary('mod', Var('x'), Var('y')), {'x': 2.0, 'y': 3.0}))\n"
            "except ValueError as error:\n"
            "    print(type(error).__name__, error)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "ValueError unknown binary op 'mod'\n")


def test_negative_base_with_infinite_exponent_is_a_domain_error(tmp_path, capsys):
    source = "2 + x^(1e308*10)"
    spec = {"name": "negpow", "coords": list(COORDS), "domain": [[-1, 1], [-1, 1]],
            "metric": [[source, "0"], ["0", "1"]], "connection": {"kind": "levi-civita"}}
    path = tmp_path / "negpow.json"
    path.write_text(json.dumps(spec))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: negpow\.json\.metric: negative base -[0-9.e-]+ "
                        r"with non-integer exponent inf\n", err), err

    e = parse(source, COORDS)
    message = "negative base -0.5 with non-integer exponent inf"
    with pytest.raises(DomainError, match=f"^{message}$"):
        evaluate(e, {"x": -0.5, "y": 0.0})
    with pytest.raises(DomainError, match=f"^{message}$"):
        compile_array([e], COORDS)([-0.5, 0.0])


# signed zeros, infinities, nan, negatives, values near each function's overflow, huge values
EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, -1e-300, 1e-300, 5e-324, -0.5,
         0.5, -1.0, 1.0, -2.0, 3.0, math.pi / 2, 709.0, 711.0, -711.0, -746.0, 1e15, 1e22,
         1e300, -1e300, 1.7976931348623157e308)


def _bits_or_raises(f, *args):
    """The bytes of f(*args), or None when it raises an error that the kernels catch."""
    try:
        return struct.pack("<d", f(*args))
    except (ArithmeticError, ValueError):
        return None


@pytest.mark.parametrize("name", FUNCTIONS)
def test_raw_math_functions_raise_exactly_where_their_rows_raise(name):
    value, raw = exprlang._OPS[Unary][name].value, getattr(math, name)
    by_columns = exprlang._COLUMN_OPS[name]
    for x in EDGES:
        want = _bits_or_raises(value, x)
        assert _bits_or_raises(raw, x) == want, x
        assert _bits_or_raises(lambda v: by_columns(np.array([0.5, v, 0.5]))[1], x) == want, x


def test_pow_keeps_its_guards_by_columns():
    # the raw math.pow is not a substitute for _pow: here it returns where _pow raises
    assert math.pow(-0.5, math.inf) == 0.0
    message = "^negative base -0.5 with non-integer exponent inf$"
    with pytest.raises(DomainError, match=message):
        exprlang._pow(-0.5, math.inf)
    by_columns = exprlang._COLUMN_OPS["_pow"]
    with pytest.raises(DomainError, match=message):
        by_columns(np.array([0.5, -0.5]), math.inf)
    for a in EDGES:
        for b in EDGES:
            want = _bits_or_raises(exprlang._pow, a, b)
            # beside a row of base 1 or exponent 1, which never raises
            for column in (lambda: by_columns(np.array([1.0, a]), b)[1],
                           lambda: by_columns(a, np.array([1.0, b]))[1],
                           lambda: by_columns(np.array([1.0, a]), np.array([1.0, b]))[1]):
                assert _bits_or_raises(column) == want, (a, b)
