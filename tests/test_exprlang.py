import copy
import gc
import inspect
import itertools
import math
import pickle
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualgeo import exprlang
from dualgeo.exprlang import (FUNCTIONS, ArityError, Binary, Const, DomainError, ParseError,
                              Unary, UnknownIdentifierError, Var, compile_array,
                              differentiate, evaluate, free_vars, parse, simplify,
                              substitute, to_source)
from dualgeo.geometry import ManifoldSpec

from conftest import count_straight_runs
from oracles import fd1, tree_key
from strategies import charts


def ev(src, coords, **env):
    return evaluate(parse(src, coords), env)


class TestParseEval:
    def test_literal_arithmetic(self):
        assert ev("x + 1", ["x"], x=2) == 3

    def test_sin_squared(self):
        assert ev("sin(th)^2", ["th"], th=math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_exp_product(self):
        assert ev("exp(x*u)", ["x", "u"], x=0.5, u=0.0) == 1.0

    def test_log_one(self):
        assert ev("log(y)", ["y"], y=1.0) == 0.0

    def test_inverse_square(self):
        assert ev("1/y^2", ["y"], y=2.0) == 0.25

    def test_pi_constant(self):
        assert ev("cos(pi)", []) == pytest.approx(-1.0)

    def test_subtraction_left_associates(self):
        assert ev("2 - 3 - 4", []) == -5

    def test_division_left_associates(self):
        assert ev("2/4/2", []) == 0.25

    def test_power_right_associates(self):
        assert ev("2^3^2", []) == 512

    def test_unary_minus_binds_inside_power(self):
        # factor := unary ('^' factor)?, so -x^2 reads as (-x)^2
        assert ev("-x^2", ["x"], x=3.0) == 9.0

    def test_power_with_negative_exponent(self):
        assert ev("x^-2", ["x"], x=2.0) == 0.25

    def test_scientific_numbers(self):
        assert ev("1.5e2 + .5", []) == 150.5


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("x +* 1", ["x"])
        assert err.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x + nope", ["x"])

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("sinc(x)", ["x"])

    def test_function_without_argument(self):
        with pytest.raises(ArityError):
            parse("sin + 1", ["x"])

    def test_coordinate_called_like_function(self):
        with pytest.raises(ArityError):
            parse("x(2)", ["x"])

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1 2", ["x"])

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(x + 1", ["x"])

    def test_coordinate_shadowing_builtin(self):
        with pytest.raises(ParseError):
            parse("sin(sin)", ["sin"])

    @pytest.mark.parametrize("src,env", [
        ("log(y)", {"y": 0.0}),
        ("log(y)", {"y": -1.0}),
        ("sqrt(y)", {"y": -4.0}),
        ("1/y", {"y": 0.0}),
        ("y^-1", {"y": 0.0}),
        ("(-2)^0.5", {}),
        ("exp(y)", {"y": 1e6}),
    ])
    def test_domain_errors(self, src, env):
        with pytest.raises(DomainError):
            evaluate(parse(src, list(env)), env)

    def test_missing_binding(self):
        with pytest.raises(DomainError):
            evaluate(parse("x + y", ["x", "y"]), {"x": 1.0})


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x^2", ["x"]), "x")
        assert evaluate(d, {"x": 3.0}) == 6.0

    def test_mixed_partial_of_bilinear(self):
        e = parse("x*u", ["x", "u"])
        dd = differentiate(differentiate(e, "x"), "u")
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, u = rng.uniform(-5, 5, 2)
            assert evaluate(dd, {"x": x, "u": u}) == 1.0

    def test_sin_squared_derivative(self):
        e = parse("sin(th)^2", ["th"])
        d = differentiate(e, "th")
        got = evaluate(d, {"th": math.pi / 4})
        assert got == pytest.approx(1.0, abs=1e-12)
        fd = fd1(lambda z: evaluate(e, {"th": z[0]}), [math.pi / 4], 0)
        assert got == pytest.approx(float(fd), abs=1e-9)

    def test_nonconstant_exponent(self):
        # d/dx x^x = x^x (log x + 1)
        e = parse("x^x", ["x"])
        d = differentiate(e, "x")
        x = 1.7
        expected = x**x * (math.log(x) + 1.0)
        assert evaluate(d, {"x": x}) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("src", [
        "sin(x)", "cos(x)", "tan(x)", "sinh(x)", "cosh(x)", "tanh(x)",
        "exp(x)", "log(2 + x^2)", "sqrt(1 + x^2)", "x^3 - 2*x + 1",
        "x/(1 + x^2)", "exp(x*u)*sin(u)", "sinh(x)*tanh(u) + x^2*u",
    ])
    def test_fd_agreement(self, src):
        coords = ["x", "u"]
        e = parse(src, coords)
        rng = np.random.default_rng(7)
        for _ in range(20):
            pt = rng.uniform(-1.0, 1.0, 2)
            env = dict(zip(coords, pt))
            for var, i in (("x", 0), ("u", 1)):
                d = evaluate(differentiate(e, var), env)
                fd = float(fd1(lambda z: evaluate(e, dict(zip(coords, z))), pt, i))
                assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def _random_expr(rng, depth=3):
    """Random expression over (x, u), kept inside safe numeric ranges."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(0, 3)
        if choice == 0:
            return repr(round(rng.uniform(-2, 2), 3))
        return "x" if choice == 1 else "u"
    op = rng.choice(["add", "sub", "mul", "fn", "pow"])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if op == "add":
        return f"({a} + {b})"
    if op == "sub":
        return f"({a} - {b})"
    if op == "mul":
        return f"({a})*({b})"
    if op == "pow":
        return f"(1.5 + sin({a})^2)^{rng.integers(2, 4)}"
    fn = rng.choice(["sin", "cos", "tanh", "exp", "sinh"])
    if fn in ("exp", "sinh"):
        return f"{fn}(0.3*({a}))"
    return f"{fn}({a})"


def test_fd_agreement_random_samples():
    """AST derivative vs central FD (step 1e-6) on 1000 random triples."""
    rng = np.random.default_rng(2024)
    coords = ["x", "u"]
    checked = 0
    while checked < 1000:
        e = parse(_random_expr(rng), coords)
        pt = rng.uniform(-1.0, 1.0, 2)
        i = int(rng.integers(0, 2))
        env = dict(zip(coords, pt))
        d = evaluate(differentiate(e, coords[i]), env)
        fd = float(fd1(lambda z: evaluate(e, dict(zip(coords, z))), pt, i, h=1e-6))
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d)), to_source(e)
        checked += 1


def test_linearity_of_derivative():
    coords = ["x", "u"]
    f = parse("sin(x)*u", coords)
    g = parse("exp(0.5*x) + u^2", coords)
    combo = parse("2.5*(sin(x)*u) - 1.25*(exp(0.5*x) + u^2)", coords)
    rng = np.random.default_rng(5)
    for _ in range(25):
        env = dict(zip(coords, rng.uniform(-1, 1, 2)))
        lhs = evaluate(differentiate(combo, "x"), env)
        rhs = (2.5 * evaluate(differentiate(f, "x"), env)
               - 1.25 * evaluate(differentiate(g, "x"), env))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mixed_partials_commute():
    coords = ["x", "u"]
    rng = np.random.default_rng(11)
    for src in ("exp(x*u)", "sin(x*u) + x^2*u^3", "tanh(x + u)*cos(x - u)"):
        e = parse(src, coords)
        dxu = differentiate(differentiate(e, "x"), "u")
        dux = differentiate(differentiate(e, "u"), "x")
        for _ in range(100):
            env = dict(zip(coords, rng.uniform(-1, 1, 2)))
            assert evaluate(dxu, env) == pytest.approx(evaluate(dux, env), abs=1e-10)


def test_round_trip_print_parse():
    coords = ["x", "u"]
    rng = np.random.default_rng(3)
    sources = ["-x^2", "x - (u - 1)", "x/(u + 2)/2", "2^x^2",
               "sin(x)*cos(u) - exp(x*u)"]
    sources += [_random_expr(rng) for _ in range(20)]
    for src in sources:
        e = parse(src, coords)
        back = parse(to_source(e), coords)
        for _ in range(100):
            env = dict(zip(coords, rng.uniform(-1, 1, 2)))
            assert evaluate(e, env) == pytest.approx(evaluate(back, env), abs=1e-12)


def test_higher_order_derivatives():
    e = parse("sin(2*x)", ["x"])
    d3 = differentiate(differentiate(differentiate(e, "x"), "x"), "x")
    # third derivative of sin(2x) is -8 cos(2x)
    assert evaluate(d3, {"x": 0.3}) == pytest.approx(-8 * math.cos(0.6), rel=1e-12)


class TestSimplify:
    def test_zero_and_one_identities(self):
        x = Var("x")
        assert simplify(parse("x + 0", ["x"])) == x
        assert simplify(parse("1*x", ["x"])) == x
        assert simplify(parse("x^1", ["x"])) == x
        assert simplify(parse("0*sin(x)", ["x"])) == Const(0.0)

    def test_constant_folding(self):
        assert simplify(parse("2*3 + 4", ["x"])) == Const(10.0)

    def test_log_exp_collapse(self):
        assert simplify(parse("log(exp(x))", ["x"])) == Var("x")
        assert simplify(parse("exp(log(x))", ["x"])) == Var("x")

    def test_substitute(self):
        e = parse("x*u + sin(u)", ["x", "u"])
        s = substitute(e, {"u": 0.0})
        assert free_vars(s) == set()
        assert evaluate(s, {"x": 5.0}) == 0.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_constant_round_trip(value):
    e = parse(repr(value), [])
    assert evaluate(parse(to_source(e), []), {}) == value


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=200, deadline=None)
def test_eval_matches_python(x, u):
    e = parse("x^2*u - sin(x) + exp(0.1*u)", ["x", "u"])
    expected = x * x * u - math.sin(x) + math.exp(0.1 * u)
    assert evaluate(e, {"x": x, "u": u}) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- compiled tensor kernels ---------------------------------------------------

def _outcome(call):
    """(result, None) or (None, (exception type, message))."""
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _reference(exprs, coords, x):
    """Per-entry evaluate in row-major order: the oracle for compile_array."""
    env = dict(zip(coords, x))
    return np.array([[evaluate(e, env) for e in row] for row in exprs])


_leaves = st.one_of(
    st.sampled_from([Var("x"), Var("u"), Const(0.0), Const(-0.0), Const(2.0)]),
    st.floats(-3, 3).map(Const),
)
_nodes = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(Unary, st.sampled_from(("neg",) + FUNCTIONS), kids),
    st.builds(Binary, st.sampled_from(("add", "sub", "mul", "div", "pow")), kids, kids),
), max_leaves=10)
_SIGNED = [Const(0.0), Const(-0.0), Const(1), Const(1.0)]  # two equal pairs of distinct nodes


@st.composite
def _symmetric_tensors(draw):
    """A symmetric array whose mirrored entries are one node, then repeats of its rows and
    all-constant rows that hold 0.0, -0.0, 1 and 1.0 together."""
    n = draw(st.integers(2, 4))
    pool = _SIGNED + draw(st.lists(_nodes, min_size=1, max_size=3))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(pool))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    constants = draw(st.permutations(_SIGNED))
    return rows + [[constants[(r * n + j) % 4] for j in range(n)] for r in range(-(-4 // n))]


# each row of the first kind is an expression with its two partials, which share its subtrees
_tensors = st.one_of(
    st.lists(_nodes, min_size=1, max_size=3).map(
        lambda es: [[e, differentiate(e, "x"), differentiate(e, "u")] for e in es]),
    _symmetric_tensors())
_points = st.tuples(st.floats(-3, 3), st.one_of(st.just(0.0), st.floats(-3, 3)))


@given(_tensors, _points)
@settings(max_examples=300, deadline=None)
def test_kernel_is_bitwise_evaluate(exprs, x):
    coords = ("x", "u")
    got, got_err = _outcome(lambda: compile_array(exprs, coords)(x))
    want, want_err = _outcome(lambda: _reference(exprs, coords, x))
    assert got_err == want_err
    if want_err is None:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros count


_FAILING = ["log(x - 5)", "sqrt(x - 5)", "1/(x - x)", "(x - 5)^0.5", "0^(x - 5)",
            "exp(1000*x)", "x*1e308*10", "sin(x*1e308*10)", "(x - 2)^(1e308*10)"]
_FINE = ["x", "sin(x)", "x^2", "exp(x)/3"]


@given(st.lists(st.sampled_from(_FAILING + _FINE), min_size=6, max_size=6)
       .filter(lambda srcs: set(srcs) & set(_FAILING)))
@settings(max_examples=100, deadline=None)
def test_kernel_raises_first_failing_entry(srcs):
    exprs = [[parse(src, ["x"]) for src in srcs[:3]], [parse(src, ["x"]) for src in srcs[3:]]]
    first = next(parse(src, ["x"]) for src in srcs if src in _FAILING)
    _, want = _outcome(lambda: evaluate(first, {"x": 1.0}))
    assert want is not None
    _, got = _outcome(lambda: compile_array(exprs, ["x"])([1.0]))
    assert got == want


def test_kernel_rejects_non_finite_result():
    e = parse("x*x", ["x"])
    kernel = compile_array([e, Const(1.0)], ["x"])
    with pytest.raises(DomainError, match=r"non-finite result inf for x\*x"):
        kernel([1e200])
    assert kernel([3.0]).tolist() == [9.0, 1.0]


@pytest.mark.parametrize("name", ["sin", "cos", "tan"])
def test_trig_of_an_infinite_argument_is_a_domain_error(name):
    # math raises ValueError here; it leaves the library as a DomainError naming the call
    message = f"{name} of inf is undefined"
    e = parse(f"{name}(x*1e400)", ["x"])
    with pytest.raises(DomainError, match=message):
        evaluate(e, {"x": 1.0})
    kernel = compile_array([[e, Var("x")]], ["x"])
    with pytest.raises(DomainError, match=message):
        kernel([1.0])
    with pytest.raises(DomainError, match=message):
        kernel([[0.5], [1.0]])
    # folding leaves the subtree as it is, so it fails only when evaluated
    unfolded = Unary(name, Const(float("inf")))
    assert simplify(parse(f"{name}(1e400)", ["x"])) is unfolded
    assert differentiate(parse(f"x*{name}(1e400)", ["x"]), "x") is unfolded


def test_kernel_finiteness_test_raises_no_numpy_warning():
    # a row of finite entries whose sum overflows, and a row holding both infinities
    big = compile_array([Const(1e308), Var("x")], ["x"])
    both = compile_array([parse("x*x", ["x"]), parse("-x*x", ["x"])], ["x"])
    # by columns: one row overflows to inf, and one computes inf/inf
    quotient = compile_array([Var("x"), parse("(x*x)/(x*x)", ["x"])], ["x"])
    batch = np.full((exprlang._COLUMN_ROWS, 1), 0.5)
    batch[3] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert big([1e308]).tolist() == [1e308, 1e308]
        with pytest.raises(DomainError, match=r"non-finite result inf for x\*x"):
            both([1e200])
        assert big(np.full((exprlang._COLUMN_ROWS, 1), 1e308)).tolist() == \
            [[1e308, 1e308]] * exprlang._COLUMN_ROWS
        with pytest.raises(DomainError, match=r"^non-finite result inf for x\*x$"):
            both(batch)
        with pytest.raises(DomainError, match=r"^non-finite result nan for x\*x/\(x\*x\)$"):
            quotient(batch)


def test_kernel_constants_stay_out_of_the_source():
    # repr(inf) and repr(nan) are not Python expressions
    kernel = compile_array([Const(float("inf")), Binary("mul", Const(float("nan")), Const(0.0))],
                           [])
    with pytest.raises(DomainError, match="non-finite result inf for inf"):
        kernel([])


def test_kernel_scalar_and_empty_shapes():
    assert compile_array(parse("x + 1", ["x"]), ["x"])([2.0]).shape == ()
    assert compile_array([[], []], ["x"])([2.0]).shape == (2, 0)
    with pytest.raises(ValueError, match="ragged"):
        compile_array([[Var("x")], []], ["x"])
    with pytest.raises(TypeError, match="got str"):
        compile_array([Var("x"), "x"], ["x"])


def test_kernel_computes_shared_subtrees_once():
    # a tree walk would visit 2^200 paths; the kernel has 201 assignments
    e = Var("x")
    for _ in range(200):
        e = Binary("add", e, e)
    assert compile_array([e], ["x"])([1.0]).tolist() == [2.0 ** 200]


@pytest.mark.parametrize("node", [
    Unary("__import__", Var("x")),
    Unary("sin)\nimport os\n(", Var("x")),
    Binary("floordiv", Var("x"), Var("x")),
    Binary("__add__", Var("x"), Var("x")),
])
def test_kernel_rejects_ops_outside_the_grammar(node):
    with pytest.raises(ValueError, match="unknown (unary|binary) op"):
        compile_array([Var("x"), node], ["x"])


def test_kernel_unbound_coordinate_matches_evaluate():
    e = parse("x + y", ["x", "y"])
    kernel = compile_array([[Var("x"), e]], ["x"])
    with pytest.raises(DomainError, match="no value bound for coordinate 'y'") as err:
        kernel([1.0])
    _, want = _outcome(lambda: evaluate(e, {"x": 1.0}))
    assert (type(err.value), str(err.value)) == want


def _deepest_parse(source_at_depth) -> int:
    """Largest nesting depth parse accepts, by bisection over RecursionError."""
    lo, hi = 1, 8000
    with pytest.raises(RecursionError):
        parse(source_at_depth(hi), ["x"])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(source_at_depth(mid), ["x"])
            lo = mid
        except RecursionError:
            hi = mid
    return lo


@pytest.mark.parametrize("source_at_depth", [
    lambda n: "1/(2 + " * n + "x" + ")" * n,
    lambda n: "sin(" * n + "x" + ")" * n,
], ids=["continued-fraction", "sin-chain"])
def test_kernel_compiles_deepest_parsed_nesting(source_at_depth):
    e = parse(source_at_depth(_deepest_parse(source_at_depth)), ["x"])
    got = compile_array([e], ["x"])([0.5])
    assert got.tobytes() == np.array([evaluate(e, {"x": 0.5})]).tobytes()


_batches = st.lists(_points, min_size=1, max_size=5)


@given(_tensors, _batches)
@settings(max_examples=200, deadline=None)
def test_kernel_batch_is_the_stack_of_its_points(exprs, xs):
    coords = ("x", "u")
    kernel = compile_array(exprs, coords)
    got, got_err = _outcome(lambda: kernel(np.array(xs)))
    want, want_err = _outcome(lambda: np.stack([_reference(exprs, coords, x) for x in xs]))
    assert got_err == want_err  # the first failing point raises its first failing entry
    if want_err is None:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_kernel_batch_of_no_points():
    kernel = compile_array([[Var("x"), Const(1.0)]], ["x"])
    assert kernel(np.empty((0, 1))).shape == (0, 1, 2)


def test_kernels_of_one_structure_share_compiled_code():
    def code_of(kernel):
        return inspect.getclosurevars(kernel).nonlocals["straight"].__code__

    shape = [["a^2 + {c}", "0"], ["0", "exp({c}*b)"]]
    M1, M2 = (ManifoldSpec.from_strings(f"m{c}", ("a", "b"), [(-1, 1), (-1, 1)],
                                        [[src.format(c=c) for src in row] for row in shape])
              for c in (1.5, 2.5))
    assert code_of(M1._jets.kernel) is code_of(M2._jets.kernel)
    x = [0.5, 0.2]
    assert M1.metric_at(x).tolist() == [[1.75, 0.0], [0.0, math.exp(1.5 * 0.2)]]
    assert M2.metric_at(x).tolist() == [[2.75, 0.0], [0.0, math.exp(2.5 * 0.2)]]


# -- the column path: a batch of _COLUMN_ROWS rows or more --------------------------

_ROWS = min(exprlang._COLUMN_ROWS, 64)  # drawn batches stay small whatever the threshold


def test_the_suite_batches_reach_the_column_path():
    # validate_metric's 32 samples and the checks' 64 are evaluated by columns
    assert 2 <= exprlang._COLUMN_ROWS <= 32


def _fresh_kernel(exprs, coords, patch):
    """A kernel of ``exprs`` compiled anew, and the counter of its one-point straight-line runs."""
    runs = count_straight_runs(patch)
    shape, flat = exprlang._flatten(exprs)
    kernel = exprlang._kernel_of.__wrapped__(tuple(flat), shape, tuple(coords))
    [count] = runs
    return kernel, count


def _assert_columns_are_the_per_point_pass(exprs, coords, x):
    """The kernel on batch x gives the per-point pass's bytes, or raises its error.

    The per-point pass is the same kernel with ``_COLUMN_ROWS`` above the
    batch; where it succeeds, the column call alone must have made the result.
    """
    with pytest.MonkeyPatch.context() as patch:
        kernel, runs = _fresh_kernel(exprs, coords, patch)
        got, got_err = _outcome(lambda: kernel(x))
        by_columns = not runs
        patch.setattr(exprlang, "_COLUMN_ROWS", math.inf)
        want, want_err = _outcome(lambda: kernel(x))
    assert got_err == want_err
    if want_err is None:
        assert by_columns
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros and every bit count


@given(_tensors, st.integers(_ROWS, _ROWS + 8).flatmap(
    lambda n: st.lists(_points, min_size=n, max_size=n)))
# finite values whose sum overflows
@example([[Binary("div", Const(1.0), Unary("neg", Const(2.2250738585072014e-308))), Const(0.0),
           Const(0.0)]], [(0.0, 0.0)] * _ROWS)
@settings(max_examples=200, deadline=None)
def test_column_path_is_bitwise_the_per_point_pass(exprs, xs):
    _assert_columns_are_the_per_point_pass(exprs, ("x", "u"), np.array(xs))


# bases and exponents of _pow, and divisors, at and around its guards
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, -0.5, -2.0, 3.0, 1e300, -1e300)
_EXPONENTS = st.sampled_from([Const(c) for c in (0.5, -1.5, -1.0, -2.0, 2.0, 3.0, 1e-300,
                                                 math.inf, -math.inf)] + [Var("u")])
_BASES = st.sampled_from([Var("x"), Unary("neg", Var("x")), Const(-0.5), Const(0.0),
                          Binary("sub", Var("x"), Var("u"))])
_QUOTIENTS = st.builds(Binary, st.just("div"), _nodes, st.sampled_from(
    [Var("u"), Binary("sub", Var("u"), Const(1e-300)), Binary("mul", Var("x"), Var("u"))]))
_EDGE_ENTRIES = st.one_of(
    st.builds(Binary, st.just("pow"), _BASES, _EXPONENTS), _QUOTIENTS,
    # a quotient by 0 that a later node would make finite again: 1/inf, tanh(inf), exp(-inf)
    st.builds(Binary, st.just("div"), st.just(Const(1.0)), _QUOTIENTS),
    st.builds(Unary, st.sampled_from(("tanh", "exp")),
              st.builds(Unary, st.just("neg"), _QUOTIENTS)))
_EDGE_POINTS = st.tuples(*[st.one_of(st.floats(-3, 3), st.sampled_from(_EDGES))] * 2)


@given(st.lists(_EDGE_ENTRIES, min_size=1, max_size=4),
       st.integers(_ROWS, _ROWS + 4).flatmap(
           lambda n: st.lists(_EDGE_POINTS, min_size=n, max_size=n)))
@settings(max_examples=300, deadline=None)
def test_column_pow_and_div_are_bitwise_the_per_point_pass(entries, xs):
    _assert_columns_are_the_per_point_pass([entries], ("x", "u"), np.array(xs))


# (source, a value inside its domain, a value outside it)
_ONE_BAD_ROW = [("log(x)", 0.5, -1.0), ("sqrt(x)", 0.5, -1e-300), ("1/(x - 1)", 0.5, 1.0),
                ("x^0.5", 0.5, -0.25), ("x^(1e308*10)", 0.5, -0.5), ("0^(x - 1.5)", 2.0, 1.0),
                ("exp(1000*x)", 0.5, 1.0), ("x*1e308*10", 1e-10, 1.0),
                ("sin(x*1e308*10)", 1e-10, 1.0), ("log(x) + 1/x", 0.5, 0.0),
                ("tanh(1/(x - 1))", 0.5, 1.0), ("exp(-(x - 1)^(-2))", 0.5, 1.0)]


@given(st.sampled_from(_ONE_BAD_ROW), st.integers(_ROWS, _ROWS + 8), st.data())
@settings(max_examples=100, deadline=None)
def test_one_row_outside_the_domain_raises_its_error_by_columns(case, rows, data):
    source, good, bad = case
    e = parse(source, ["x"])
    x = np.full((rows, 1), good)
    first = data.draw(st.integers(0, rows - 1))
    x[first] = bad
    want = _outcome(lambda: evaluate(e, {"x": bad}))[1]
    assert want is not None
    exprs = [[Var("x"), e], [parse("x^2", ["x"]), e]]
    _assert_columns_are_the_per_point_pass(exprs, ["x"], x)
    assert _outcome(lambda: compile_array(exprs, ["x"])(x))[1] == want


@given(charts(), st.integers(0, 2**16), st.sampled_from([_ROWS, _ROWS + 1, 2 * _ROWS, 64]))
@settings(max_examples=40, deadline=None)
def test_chart_jets_by_columns_are_bitwise_the_per_point_pass(M, seed, rows):
    jets = M._jets
    d = M.dim
    x = M.sample_array(max(rows, 32), seed)
    for table, shape in ((jets.exprs, jets.shape), (jets.d1, (d,) + jets.shape),
                         (jets.d2, (d, d) + jets.shape)):
        nested = np.array(table, dtype=object).reshape(shape).tolist()
        _assert_columns_are_the_per_point_pass(nested, M.coords, x[:rows])
        _assert_columns_are_the_per_point_pass(nested, M.coords, x[:32].reshape(4, 8, d))


# -- interning ---------------------------------------------------------------------

def _rebuilt(e):
    """e built again node by node through the constructors."""
    if isinstance(e, Unary):
        return Unary(e.op, _rebuilt(e.arg))
    if isinstance(e, Binary):
        return Binary(e.op, _rebuilt(e.left), _rebuilt(e.right))
    return Const(e.value) if isinstance(e, Const) else Var(e.name)


@given(_nodes, _nodes)
@settings(max_examples=60, deadline=None)
def test_trees_are_one_object_exactly_when_equal(a, b):
    assert _rebuilt(a) is a and _rebuilt(b) is b
    trees = [a, b, simplify(a), simplify(b), differentiate(a, "x"), differentiate(b, "u")]
    for e in (a, b):
        try:
            trees.append(parse(to_source(e), ("x", "u")))
        except ParseError:  # inf and nan print as identifiers
            pass
    for s, t in itertools.combinations(trees, 2):
        assert (s is t) == (tree_key(s) == tree_key(t))
        assert (s == t) == (s is t) and (hash(s) == hash(t)) >= (s is t)


class _Float(float):
    """A float type whose values print as floats do."""


def test_constants_intern_by_type_and_repr():
    assert repr(_Float(1.5)) == repr(1.5) and Const(_Float(1.5)) is not Const(1.5)
    assert Const(0.0) is not Const(-0.0)
    assert Const(1) is not Const(1.0)
    assert Const(float("nan")) is Const(float("nan"))
    assert Const(math.inf) is not Const(-math.inf)
    assert parse("x*y", ("x", "y")) is Binary("mul", Var("x"), Var("y"))
    assert parse("x*y", ("x", "y")) is not parse("y*x", ("x", "y"))
    assert parse("x + y + 1", ("x", "y")) is not parse("x + (y + 1)", ("x", "y"))


def test_copies_are_the_interned_node():
    e = parse("sin(x)^2 + 1/x - 2.5", ["x"])
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert copy.deepcopy([e, [e]])[1][0] is e
    assert pickle.loads(pickle.dumps(e)) is e
    with pytest.raises(AttributeError):
        e.op = "sub"


def test_a_dropped_node_dies(empty_tables):
    e = parse("x*1.0000001234 + sin(x)", ["x"])
    dead = weakref.ref(e)
    d = differentiate(e, "x")
    M = ManifoldSpec("lifetime", ("x",), [(0.5, 1.0)], [[e]])
    M.metric_derivatives_at([0.75])
    compile_array([e, d], ["x"])([0.5])
    del e, d, M
    empty_tables.kernels.cache_clear()  # the kernel table held the entries
    empty_tables.parses.clear()  # and the parse table the tree
    gc.collect()
    assert dead() is None


def test_the_kernel_table_stays_within_its_bound(empty_tables):
    # compile_array and a chart's jets share one kernel table
    table = empty_tables.kernels
    bound = table.cache_parameters()["maxsize"]
    for n in range(bound + 20):
        M = ManifoldSpec.from_strings(f"m{n}", ("x",), [(0.5, 1.0)], [[f"{n + 1} + x^2"]])
        assert M.metric_at([0.75]).tolist() == [[n + 1.5625]]
        assert compile_array(M.metric, ["x"]) is M._jets.kernel
        assert table.cache_info().currsize <= bound
    assert table.cache_info().currsize == bound


def test_the_parse_table_stays_within_its_bound(empty_tables):
    empty_parses = empty_tables.parses
    bound = exprlang._PARSED_KEPT
    for n in range(bound + 20):
        e = parse(f"{n + 1} + x^2", ["x"])
        assert parse(f"{n + 1} + x^2", ("x",)) is e  # a list or a tuple of names, one key
        assert evaluate(e, {"x": 0.5}) == n + 1.25
        assert len(empty_parses) <= bound
    # the oldest sources are dropped first, and a dropped source parses to the one live tree
    assert list(empty_parses) == [(f"{n + 1} + x^2", ("x",)) for n in range(20, bound + 20)]
    assert parse("1 + x^2", ["x"]) is Binary("add", Const(1.0), Binary("pow", Var("x"), Const(2.0)))
    assert len(empty_parses) == bound and next(iter(empty_parses)) == ("22 + x^2", ("x",))


@pytest.mark.parametrize("source, coords, error, message, valid_over", [
    ("x +", ("x",), ParseError, "unexpected end of input (at position 3)", None),
    ("x + y", ("x",), UnknownIdentifierError, "unknown identifier 'y' (at position 4)",
     ("x", "y")),
    ("x(2)", ("x",), ArityError, "'x' is not callable (at position 0)", None),
    ("x + pi", ("x", "pi"), ParseError,
     "coordinate names shadow built-ins: ['pi'] (at position 0)", ("x",)),
    ("2", ("sin",), ParseError, "coordinate names shadow built-ins: ['sin'] (at position 0)",
     ()),
])
def test_parse_errors_are_raised_on_every_call_and_never_kept(empty_tables, source, coords,
                                                              error, message, valid_over):
    empty_parses = empty_tables.parses
    if valid_over is not None:  # kept over other names, which the key holds
        parse(source, valid_over)
    for _ in range(3):
        with pytest.raises(error) as err:
            parse(source, coords)
        assert type(err.value) is error and str(err.value) == message
        assert list(empty_parses) == [] if valid_over is None else [(source, valid_over)]


@given(_tensors, _batches)
@settings(max_examples=40, deadline=None)
def test_kernel_on_a_table_hit_is_bitwise_evaluate(exprs, xs):
    coords = ("x", "u")
    kernel = compile_array(exprs, coords)
    assert compile_array([[_rebuilt(e) for e in row] for row in exprs], coords) is kernel
    got, got_err = _outcome(lambda: kernel(np.array(xs)))
    want, want_err = _outcome(lambda: np.stack([_reference(exprs, coords, x) for x in xs]))
    assert got_err == want_err
    if want_err is None:
        assert got.tobytes() == want.tobytes()


THREADS = 4  # more than the cores of a small host, and a fixed count


def test_threads_build_one_tree_and_equal_arrays(empty_tables, empty_draws):
    # a cold build from empty tables, with the interpreter switching threads often
    sources = [["2 + sin(x*y)^2", "x*y/(1 + y^2)"], ["x*y/(1 + y^2)", "3 + exp(x - y)"]]
    x = np.array([[0.6, 0.7], [0.8, 0.9]])
    barrier = threading.Barrier(THREADS)

    def build(_):
        barrier.wait(timeout=30)
        M = ManifoldSpec.from_strings("threads", ("x", "y"), [(0.5, 1.0)] * 2, sources)
        trees = [e for row in M.metric for e in row]
        trees += [differentiate(differentiate(e, "x"), "y") for e in trees]
        arrays = [f(x) for f in (M.metric_at, M.metric_derivatives_at,
                                 M.metric_second_derivatives_at, M.metric_third_derivatives_at)]
        return trees, arrays + [M.sample_array(n, 1) for n in (3, 9, 5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            results = list(pool.map(build, range(THREADS), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    (trees, arrays), *others = results
    for other_trees, other_arrays in others:
        assert all(s is t for s, t in zip(other_trees, trees, strict=True))
        assert [a.tobytes() for a in other_arrays] == [a.tobytes() for a in arrays]
    env = {"x": 0.8, "y": 0.9}
    assert arrays[0][1].tolist() == [[evaluate(e, env) for e in row] for row in
                                     [[parse(s, ("x", "y")) for s in r] for r in sources]]
