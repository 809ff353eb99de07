"""compile_array generates byte for byte the source of an independent walk.

The oracle is ``oracles.kernel_source``: every entry walked from its root,
every shared sub-list walked again, every node named by its structure.
The library's one-pass walk flattens a shared sub-list once, skips a root it
has named, and names a compound node by identity when the mark below its
children comes back up; nodes are interned, so that is naming by structure.
Sources are captured where the kernel table hands them to
``exprlang._code_of``, on generated arrays, on every kernel of a
``verify_paper`` run and of each spec command on ``specs/``, whether
``compile_array`` or a chart's jets asked for it; those runs start from
empty symbolic tables, so every kernel is built and none is taken from an
earlier test.  A kernel returns each distinct entry once, so its return
line names each entry's variable once, in order of first appearance.
"""

import functools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dualgeo import exprlang
from dualgeo.cli import LoadedProduct, load_spec, main
from dualgeo.exprlang import FUNCTIONS, Binary, Const, Unary, Var, compile_array
from dualgeo.report import RunConfig
from dualgeo.verify import verify_paper
from conftest import empty_symbolic_tables
from oracles import kernel_source

COORDS = ("x", "y")
LEAVES = [Const(0.0), Const(-0.0), Const(1.0), Const(1), Const(2.5), Const(math.pi),
          Var("x"), Var("y"), Var("w")]  # w is unbound
UNARY = ("neg",) + FUNCTIONS
BINARY = ("add", "sub", "mul", "div", "pow")


class SourceCheck:
    """Compares each kernel the table builds with the oracle's source, while installed.

    It installs empty symbolic tables, so every kernel of the run is built
    in the kernel table, whether asked for by ``compile_array`` or by a
    chart's jets, and each built kernel's source must be the oracle's for
    its entries.  A kernel ``compile_array`` returns must be one built, and
    checked, for the source the oracle gives for the nested array it was
    asked for.
    """

    def __init__(self, monkeypatch):
        self.checked = 0
        self.sources = []
        self.source_of = {}  # id(kernel) -> (kernel, its source)
        tables = empty_symbolic_tables(monkeypatch)
        code_of, build = tables.codes, tables.kernels.__wrapped__
        original = exprlang.compile_array

        def recording(source):
            self.sources.append(source)
            return code_of(source)

        def building(flat, shape, coords):
            kernel = build(flat, shape, coords)
            [source] = self.sources
            self.sources.clear()
            assert source == kernel_source(flat, coords)
            self.source_of[id(kernel)] = kernel, source
            self.checked += 1
            return kernel

        def compiling(exprs, coords):
            kernel = original(exprs, coords)
            assert self.source_of[id(kernel)][1] == kernel_source(exprs, tuple(coords))
            return kernel

        monkeypatch.setattr(exprlang, "_kernel_of", functools.lru_cache(
            **tables.kernels.cache_parameters())(building))
        monkeypatch.setattr(exprlang, "_code_of", recording)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dualgeo")
                    and getattr(module, "compile_array", None) is original):
                monkeypatch.setattr(module, "compile_array", compiling)


def _copy(e):
    """e built again node by node: interning makes it e itself."""
    if isinstance(e, Unary):
        return Unary(e.op, _copy(e.arg))
    if isinstance(e, Binary):
        return Binary(e.op, _copy(e.left), _copy(e.right))
    return Const(e.value) if isinstance(e, Const) else Var(e.name)


@st.composite
def shared_arrays(draw):
    """A nested array over a pool of nodes: shared subtrees, equal copies, shared sub-lists."""
    pool = list(LEAVES)
    for _ in range(draw(st.integers(0, 12))):
        pick = st.sampled_from(range(len(pool)))
        kind = draw(st.sampled_from(("unary", "binary", "copy")))
        if kind == "unary":
            pool.append(Unary(draw(st.sampled_from(UNARY)), pool[draw(pick)]))
        elif kind == "binary":
            pool.append(Binary(draw(st.sampled_from(BINARY)), pool[draw(pick)], pool[draw(pick)]))
        else:
            pool.append(_copy(pool[draw(pick)]))
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    made = [[] for _ in shape]  # the sub-lists built at each depth, for reuse

    def build(depth):
        if depth == len(shape):
            return pool[draw(st.sampled_from(range(len(pool))))]
        if made[depth] and draw(st.booleans()):
            return draw(st.sampled_from(made[depth]))
        sub = [build(depth + 1) for _ in range(shape[depth])]
        made[depth].append(sub)
        return sub

    return build(0)


def library_source(exprs, coords=COORDS) -> str:
    """The source compile_array compiles for exprs (a hypothesis test takes no monkeypatch)."""
    sources = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        code_of = empty_symbolic_tables(monkeypatch).codes
        monkeypatch.setattr(exprlang, "_code_of",
                            lambda source: sources.append(source) or code_of(source))
        compile_array(exprs, coords)
    [source] = sources
    return source


@settings(max_examples=200, deadline=None)
@given(shared_arrays())
def test_generated_arrays_match_the_oracle(exprs):
    assert library_source(exprs) == kernel_source(exprs, COORDS)


def test_equal_subtrees_share_one_line():
    left = Binary("mul", Var("x"), Const(2.0))
    e = Binary("add", left, _copy(left))
    row = [e, _copy(e)]
    # the right child first: 2.0 is c0 and x is t1; the left copy, the second
    # root and the shared row add no line, and the four equal entries are returned once
    assert library_source([row, row]) == kernel_source([row, row], COORDS) == (
        "def kernel(x):\n    t1 = x[0]\n    t2 = t1 * c0\n    t3 = t2 + t2\n"
        "    return [t3]")


def test_warm_verify_paper_kernels_match_the_oracle(monkeypatch):
    verify_paper(RunConfig(seed=3))
    check = SourceCheck(monkeypatch)
    verify_paper(RunConfig(seed=3))
    assert check.checked > 100


def test_spec_command_kernels_match_the_oracle(monkeypatch, spec_dir, capsys):
    for spec in sorted(spec_dir.glob("*.json")):
        product = isinstance(load_spec(str(spec)), LoadedProduct)
        for command in (("twist", "flatness") if product else ("check", "conjugate", "curvature")):
            monkeypatch.undo()  # each command starts from empty tables
            check = SourceCheck(monkeypatch)
            main([command, str(spec)])
            assert check.checked > 0, (command, spec.name)
    capsys.readouterr()
