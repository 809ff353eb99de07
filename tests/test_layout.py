"""Source layout rules for src/dualgeo, checked on the syntax tree.

* No code calls ``ManifoldSpec.sample_points``: checks evaluate a sample set
  as one batch from ``sample_array`` instead of looping over points.
* Only ``connections.py`` and ``products.py`` import ``numdiff``, so finite
  differences cannot spread to new verdict paths.
* The theorem analyzers build no flatness verdict and no reduction chain:
  callers build each once per structure and pass it in.
* Only ``geometry.py`` calls ``.tobytes()``: the manifold's one-batch cache
  is the only cache keyed by point bytes, so no unbounded point cache grows
  back elsewhere.
* Only ``verify.new_report`` constructs a ``VerificationReport``, so the
  report header cannot drift between ``verify-paper`` and the CLI commands.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "dualgeo"
NUMDIFF_IMPORTERS = {"connections.py", "products.py"}
ANALYZERS = {"theorem41_analyze", "theorem42_analyze", "theorem43_analyze"}
ANALYZER_INPUTS = {"dually_flat_verdict", "verdict_from_tensors", "reduction_chain"}
TOBYTES_CALLERS = {"geometry.py"}


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _imports_numdiff(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "numdiff" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "numdiff" or any(alias.name == "numdiff" for alias in node.names)
    return False


def sample_points_calls(trees) -> list[str]:
    return [f"{name}:{node.lineno}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "sample_points"]


def numdiff_importers(trees) -> set[str]:
    return {name for name, tree in trees for node in ast.walk(tree) if _imports_numdiff(node)}


def analyzer_input_calls(trees) -> list[str]:
    return [f"{name}:{call.lineno}" for name, tree in trees for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in ANALYZERS
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and _called_name(call) in ANALYZER_INPUTS]


def tobytes_callers(trees) -> set[str]:
    return {name for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tobytes"}


def report_constructors(trees) -> set[str]:
    """``file:function`` of every ``VerificationReport(...)`` call, by innermost function."""
    found = set()

    def visit(name, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(name, child, child.name)
                continue
            if isinstance(child, ast.Call) and _called_name(child) == "VerificationReport":
                found.add(f"{name}:{where}")
            visit(name, child, where)

    for name, tree in trees:
        visit(name, tree, "<module>")
    return found


def test_scan_sees_the_package():
    names = {name for name, _ in _trees()}
    assert {"geometry.py", "curvature.py", "products.py", "verify.py"} <= names
    assert any(isinstance(node, ast.FunctionDef) and node.name == "sample_points"
               for name, tree in _trees() if name == "geometry.py" for node in ast.walk(tree))


def test_no_code_loops_over_sample_points():
    assert sample_points_calls(_trees()) == []


def test_numdiff_stays_in_its_two_modules():
    assert numdiff_importers(_trees()) <= NUMDIFF_IMPORTERS


def test_point_bytes_stay_in_geometry():
    assert tobytes_callers(_trees()) == TOBYTES_CALLERS


def test_only_new_report_builds_a_report():
    assert report_constructors(_trees()) == {"verify.py:new_report"}


def test_analyzers_receive_their_verdict_and_chain():
    trees = _trees()
    assert ANALYZERS <= {node.name for name, tree in trees if name == "dualistic.py"
                         for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert analyzer_input_calls(trees) == []


@pytest.mark.parametrize("source, calls, importers", [
    ("for pt in M.sample_points(4, 1):\n    pass\n", 1, set()),
    ("xs = [p.coords for p in sample_points(M, 3, 1)]\n", 1, set()),
    ("x = M.sample_array(4, 1)\n", 0, set()),
    ("from . import numdiff\n", 0, {"probe.py"}),
    ("from .numdiff import central_diff\n", 0, {"probe.py"}),
    ("import dualgeo.numdiff\n", 0, {"probe.py"}),
    ("from dualgeo import exprlang, numdiff\n", 0, {"probe.py"}),
    ("from . import exprlang\n", 0, set()),
])
def test_scan_flags_each_form(source, calls, importers):
    trees = [("probe.py", ast.parse(source))]
    assert len(sample_points_calls(trees)) == calls
    assert numdiff_importers(trees) == importers


@pytest.mark.parametrize("source, calls", [
    ("def theorem41_analyze(st, direct, chain):\n    return direct, chain\n", 0),
    ("def theorem42_analyze(st):\n    return dually_flat_verdict(st, 12)\n", 1),
    ("def theorem43_analyze(st):\n    return dualistic.reduction_chain(st, 12, 1e-9, 1)\n", 1),
    ("def verdicts(st):\n    return dually_flat_verdict(st, 12), reduction_chain(st)\n", 0),
])
def test_scan_flags_analyzer_rebuilds(source, calls):
    assert len(analyzer_input_calls([("probe.py", ast.parse(source))])) == calls


@pytest.mark.parametrize("source, callers", [
    ("cache[(kind, x.tobytes())] = build()\n", {"probe.py"}),
    ("key = np.asarray(p).tobytes()\n", {"probe.py"}),
    ("g = M.metric_at(x)\n", set()),
])
def test_scan_flags_point_bytes(source, callers):
    assert tobytes_callers([("probe.py", ast.parse(source))]) == callers


@pytest.mark.parametrize("source, found", [
    ("def new_report(c, i):\n    return VerificationReport('dualgeo', V, {}, i)\n",
     {"probe.py:new_report"}),
    ("def cmd(c):\n    def make():\n        return report.VerificationReport('x', V, {}, {})\n",
     {"probe.py:make"}),
    ("REP = VerificationReport('dualgeo', V, {}, {})\n", {"probe.py:<module>"}),
    ("def cmd(c):\n    return new_report(c, {'spec_digest': 'x'})\n", set()),
])
def test_scan_flags_report_constructors(source, found):
    assert report_constructors([("probe.py", ast.parse(source))]) == found
