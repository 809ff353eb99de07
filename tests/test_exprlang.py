import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgeo.exprlang import (FUNCTIONS, ArityError, Binary, Const, DomainError, ParseError,
                              Unary, UnknownIdentifierError, Var, compile_array,
                              differentiate, evaluate, free_vars, parse, simplify,
                              substitute, to_source)

from oracles import fd1


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
# each row is an expression with its two partials, which share its subtrees
_tensors = st.lists(_nodes, min_size=1, max_size=3).map(
    lambda es: [[e, differentiate(e, "x"), differentiate(e, "u")] for e in es])
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
