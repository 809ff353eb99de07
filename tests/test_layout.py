"""Source layout rules for src/dualgeo, checked on the syntax tree.

* No ``for`` loop or comprehension iterates a ``ManifoldSpec.sample_array``
  call: checks evaluate a sample set as one batch instead of looping over
  its points.
* Only ``connections.py`` imports ``numdiff``, for its one deliberate
  finite-difference cross-check (``dgamma_fd_defect``), so finite
  differences cannot spread to verdict paths.
* The theorem analyzers build no flatness verdict and no reduction chain:
  callers build each once per structure and pass it in.
* ``dualistic.py`` defines exactly one dataclass named ``*Record``, and each
  theorem analyzer is annotated to return it, so the three theorems share
  one record rather than one record class each.
* Only ``geometry.py`` calls ``.tobytes()``: its one-batch cache
  (``geometry.one_batch``) is the only cache keyed by point bytes, so no
  unbounded point cache grows back elsewhere.
* Only ``geometry.one_batch`` assigns ``_last_batch`` (a class may declare it
  as ``None``), so no second cache grows beside the sample-stream cache.
* Only ``ManifoldSpec.sample_array`` calls ``default_rng`` and writes the
  draw table ``geometry._DRAWS``, so every sample set of a box and seed is a
  row-prefix of one draw and no second sampling path bypasses the stream.
* Only ``verify.Checks.__init__`` constructs a ``VerificationReport``, so
  the report header cannot drift between ``verify-paper`` and the CLI
  commands.
* Every check's statement and sample count comes from the check table
  (``verify.CHECKS``): no ``min(samples, N)`` or ``min(config.samples, N)``
  in ``verify.py`` or ``cli.py`` outside ``Check.count``, and no string
  literal passed as a statement to ``add``/``add_flag`` anywhere in ``src/``.
* Every row of the table is reported by at least one command.
* ``verify.py`` and ``cli.py`` hold no running accumulator (``x = max(x, ...)``
  or ``min``, ``x = x and ...``, ``d[k] = max(d.get(k, ...), ...)``):
  ``Checks.add`` is the one place a row's value is reduced over the
  structures it covers.
* No ``einsum`` call takes three or more operands: each such contraction is
  written as batched matmul, with its einsum formula kept beside it as a
  comment and as the oracle of ``tests/test_contractions.py``.
* The block display of an induced connection is written once: the einsum
  subscripts of its twist terms appear only in ``products.block_gamma``, so
  ``block_connection`` and ``projection_check`` cannot carry a second copy
  of the formula they are checked against.
* ``geometry.py``, ``connections.py`` and ``exprlang.py`` call
  ``differentiate`` only inside ``exprlang.derivative_table`` (and in its own
  recursion), so every metric jet and every explicit connection's dGamma
  differentiates each distinct entry once per coordinate.
* No code calls ``np.linalg.cond``: the singular-metric check compares the
  eigenvalues of the symmetric metric instead of running an SVD.
* ``ArgumentParser(...)`` is constructed only inside functions of ``cli.py``:
  no module-level code builds a parser, directly or through a function that
  does, and the one function ``cli.py`` caches (``cache``/``lru_cache``) is
  ``_command_parser``, so a command's parser is built on its first use and
  kept, and every other parser (the full one, for help and usage) is built
  by the call that prints from it.
* A command's name appears in ``cli.py`` as a string only in the command
  table (``cli.COMMANDS``), so one row holds everything about a command.
* Only ``exprlang._intern`` calls ``__new__``: every expression node is
  made by its interning constructor, so equal trees stay one object and
  every cache keyed by node identity stays exact.
* The process-wide symbolic tables (``cache``, ``lru_cache``, weak
  dictionaries) are declared only in ``exprlang.py``: the intern table and
  the parse, kernel and code tables.  Every other owner of symbolic work (a
  chart's or a connection's jets) builds its own and finds its entries'
  derivatives and kernels there.  The one table elsewhere is the kept
  command parsers, ``cli._command_parser``, which holds no symbolic work.
* Every function, class and method in ``src/dualgeo`` is named on a program
  path: by a ``Name`` or an ``Attribute`` in ``src/`` outside ``__init__.py``
  and outside its own definition, or anywhere in ``demos/`` or ``bench/``.
  Dunder methods are exempt.  A helper only tests reach is deleted, not kept
  for them.  Each module's ``__all__`` names only what the module defines.
* Every defaulted parameter of a function in ``src/dualgeo`` is passed by
  some program call: in ``src/`` outside the function's own definition, or
  in ``demos/`` or ``bench/``.  A call from ``tests/`` does not count: a
  setting with one value in program use is a constant, not a parameter.
  ``samples`` and ``seed`` are exempt, as the library's sampling interface,
  and so is ``numdiff.py``, the finite-difference module the test oracles
  are built on.
* Each operator is defined once, by its row in ``exprlang._OPS``: no other
  dict in ``exprlang.py`` is keyed by operator names (as a literal, a
  ``dict(...)`` or an ``.update(...)``), and no code compares an ``.op`` with
  a binary operator's name.  The algebraic identities of ``neg`` and ``fn``
  compare unary names, and may.
* Each row of the check table is judged against its own tolerance:
  ``RunConfig``'s fields are exactly ``samples``, ``seed``, ``report_path``
  and ``point``, and no method of ``verify.Check`` takes a ``RunConfig`` and
  reads the row's ``default``, so no run-time override of a row's tolerance
  grows back.
* Only ``exprlang._kernel_of`` calls ``take`` (``np.take`` or an array's
  ``.take``, counted by outermost function): a kernel computes each distinct
  entry once and places it at each of its entries, so no caller places a
  kernel's values again by an index of its own.
"""

import ast
import collections
import functools
import importlib
from pathlib import Path

import pytest

from dualgeo.exprlang import FUNCTIONS
from dualgeo.verify import CHECKS

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "dualgeo"
CALLER_DIRS = ("src", "tests", "demos", "bench")
PROGRAM_DIRS = ("demos", "bench")
SAMPLING_PARAMETERS = {"samples", "seed"}
NUMDIFF_IMPORTERS = {"connections.py"}
ANALYZERS = {"theorem41_analyze", "theorem42_analyze", "theorem43_analyze"}
ANALYZER_INPUTS = {"dually_flat_verdict", "reduction_chain"}
KNOB_EXEMPT_FILES = {"numdiff.py"}
TOBYTES_CALLERS = {"geometry.py"}
COMMAND_TABLE = "COMMANDS"
CACHE_DECORATORS = {"cache", "lru_cache"}
TABLE_MAKERS = CACHE_DECORATORS | {"WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}
TABLE_FILES_ALLOWED = {"exprlang.py"}
TABLE_READS = {"get", "keys", "values", "items", "copy"}
TABLE_FILES = {"geometry.py", "connections.py", "exprlang.py"}
OPERATOR_TABLE = "_OPS"
BINARY_OPS = {"add", "sub", "mul", "div", "pow"}
OPERATOR_NAMES = BINARY_OPS | {"neg", *FUNCTIONS}
RUN_CONFIG_FIELDS = ["samples", "seed", "report_path", "point"]
DISPLAY_SUBSCRIPTS = {"...a,wv->...wav", "...u,wv->...wuv", "...v,wu->...wuv",
                      "...uv,...w->...wuv", "...uv,...c->...cuv"}


@functools.cache
def _trees():
    """Each module of ``src/dualgeo`` parsed once per session; no rule edits a tree."""
    return tuple((path.name, ast.parse(path.read_text(), str(path)))
                 for path in sorted(SRC.glob("*.py")))


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


def sample_array_loops(trees) -> list[str]:
    """``file:line`` of each loop or comprehension over a ``sample_array`` call's rows.

    The iterable is the call, or an argument of a call wrapping it
    (``enumerate``, ``zip``); a list holding the batch is not iterated row by row.
    """
    return [f"{name}:{node.iter.lineno}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.comprehension))
            and any(isinstance(it, ast.Call) and _called_name(it) == "sample_array"
                    for it in [node.iter, *getattr(node.iter, "args", [])])]


def numdiff_importers(trees) -> set[str]:
    return {name for name, tree in trees for node in ast.walk(tree) if _imports_numdiff(node)}


def analyzer_input_calls(trees) -> list[str]:
    return [f"{name}:{call.lineno}" for name, tree in trees for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in ANALYZERS
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and _called_name(call) in ANALYZER_INPUTS]


def record_dataclasses(trees) -> set[str]:
    """``file:class`` of every dataclass whose name ends in ``Record``."""
    return {f"{name}:{node.name}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name.endswith("Record")
            and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)}


def analyzer_returns(trees) -> dict[str, str | None]:
    """Each theorem analyzer's return annotation, as source."""
    return {fn.name: fn.returns and ast.unparse(fn.returns) for name, tree in trees
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in ANALYZERS}


def tobytes_callers(trees) -> set[str]:
    return {name for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tobytes"}


def _assigned_targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    flat = []
    while targets:
        t = targets.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            targets.extend(t.elts)
        else:
            flat.append(t)
    return flat


def _writes_attribute(node: ast.AST, attr: str) -> bool:
    if isinstance(node, ast.Call) and _called_name(node) in {"setattr", "__setattr__"}:
        return any(isinstance(a, ast.Constant) and a.value == attr for a in node.args)
    for t in _assigned_targets(node):
        if isinstance(t, ast.Attribute) and t.attr == attr:
            return True
        if isinstance(t, ast.Name) and t.id == attr:
            value = getattr(node, "value", None)
            return not (isinstance(node, (ast.Assign, ast.AnnAssign))
                        and isinstance(value, ast.Constant) and value.value is None)
    return False


def attribute_writers(trees, attr: str) -> set[str]:
    """``file:scope`` of every write to ``attr``, by innermost function or class."""
    found = set()

    def visit(name, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(name, child, child.name)
                continue
            if _writes_attribute(child, attr):
                found.add(f"{name}:{where}")
            visit(name, child, where)

    for name, tree in trees:
        visit(name, tree, "<module>")
    return found


def table_writers(trees, table: str) -> set[str]:
    """``file:function`` of every write to the dict named ``table``, by innermost function.

    A write stores into or deletes from it, calls a method of it other than
    a read, or binds its name; its declaration, a binding at the top level
    of a module, is not a write.
    """
    def refers(node):
        return ((isinstance(node, ast.Name) and node.id == table)
                or (isinstance(node, ast.Attribute) and node.attr == table))

    def writes(node):
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, (ast.Store, ast.Del)) and refers(node.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return refers(node.func.value) and node.func.attr not in TABLE_READS
        return refers(node) and isinstance(node.ctx, (ast.Store, ast.Del))

    declared = {id(t) for _, tree in trees for stmt in tree.body
                for t in _assigned_targets(stmt) if isinstance(t, ast.Name) and refers(t)}
    return _node_scopes(trees, lambda node: id(node) not in declared and writes(node))


def _node_scopes(trees, matches, outermost: bool = False) -> set[str]:
    """``file:function`` of every node that ``matches``, by innermost function or ``outermost``."""
    found = set()

    def visit(name, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(name, child, where if outermost and where != "<module>" else child.name)
                continue
            if matches(child):
                found.add(f"{name}:{where}")
            visit(name, child, where)

    for name, tree in trees:
        visit(name, tree, "<module>")
    return found


def _call_scopes(trees, matches) -> set[str]:
    """``file:function`` of every call that ``matches``, by innermost function."""
    return _node_scopes(trees, lambda node: isinstance(node, ast.Call) and matches(node))


def take_callers(trees) -> set[str]:
    """``file:function`` of every ``take(...)`` call, by outermost function."""
    return _node_scopes(trees, lambda node: isinstance(node, ast.Call)
                        and _called_name(node) == "take", outermost=True)


def display_subscript_scopes(trees) -> set[str]:
    """``file:function`` of every string equal to a subscript of the block display's twist terms."""
    return _node_scopes(trees, lambda node: isinstance(node, ast.Constant)
                        and node.value in DISPLAY_SUBSCRIPTS)


def table_differentiate_callers(trees) -> set[str]:
    """``file:function`` of every ``differentiate(...)`` call in ``TABLE_FILES``."""
    scopes = _call_scopes(trees, lambda call: _called_name(call) == "differentiate")
    return {scope for scope in scopes if scope.split(":")[0] in TABLE_FILES}


def default_rng_callers(trees) -> set[str]:
    """``file:function`` of every ``default_rng(...)`` call."""
    return _call_scopes(trees, lambda call: _called_name(call) == "default_rng")


def report_constructors(trees) -> set[str]:
    """``file:function`` of every ``VerificationReport(...)`` call."""
    return _call_scopes(trees, lambda call: _called_name(call) == "VerificationReport")


def _is_samples(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "samples")
            or (isinstance(node, ast.Attribute) and node.attr == "samples"))


def sample_caps(trees) -> set[str]:
    """``file:function`` of every ``min(...)`` over ``samples`` or ``<obj>.samples``."""
    return _call_scopes(trees, lambda call: _called_name(call) == "min"
                        and any(_is_samples(a) for a in call.args))


def _is_literal(node: ast.AST | None) -> bool:
    if isinstance(node, ast.BinOp):
        return _is_literal(node.left) or _is_literal(node.right)
    return isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Constant)
                                               and isinstance(node.value, str))


def literal_statements(trees) -> set[str]:
    """``file:function`` of every ``add``/``add_flag`` call given a literal statement."""
    def matches(call):
        statement = next((k.value for k in call.keywords if k.arg == "statement"),
                         call.args[1] if len(call.args) > 1 else None)
        return _called_name(call) in {"add", "add_flag"} and _is_literal(statement)
    return _call_scopes(trees, matches)


def _get_of(node: ast.AST) -> str | None:
    """``d[k]`` for a call ``d.get(k, ...)``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args):
        return f"{ast.unparse(node.func.value)}[{ast.unparse(node.args[0])}]"
    return None


def running_accumulators(trees) -> list[str]:
    """``file:line`` of each assignment that folds its own target into a max, min, and or or."""
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            else:
                continue
            value = node.value
            if isinstance(value, ast.BoolOp):
                operands = value.values
            elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                  and value.func.id in {"max", "min"}):
                operands = value.args
            else:
                continue
            reads = {ast.unparse(a) for a in operands} | {_get_of(a) for a in operands}
            if ast.unparse(target) in reads:
                found.append(f"{name}:{node.lineno}")
    return found


def wide_einsums(trees) -> list[str]:
    """``file:line`` of each ``einsum`` call given three or more operands, or a starred one."""
    return [f"{name}:{node.lineno}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "einsum"
            and (len(node.args) > 3 or any(isinstance(a, ast.Starred) for a in node.args))]


def _is_linalg(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "linalg")
            or (isinstance(node, ast.Name) and node.id == "linalg"))


def cond_uses(trees) -> list[str]:
    """``file:line`` of each ``linalg.cond`` call and each import of ``cond`` from numpy.linalg."""
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "cond" and _is_linalg(node.func.value)):
                found.append(f"{name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                  and any(alias.name == "cond" for alias in node.names)):
                found.append(f"{name}:{node.lineno}")
    return found


def parser_constructions(trees) -> set[str]:
    """``file:function`` of every ``ArgumentParser(...)`` construction."""
    return _call_scopes(trees, lambda call: _called_name(call) == "ArgumentParser")


def import_time_parsers(trees) -> set[str]:
    """``file:<module>`` where module-level code builds a parser, directly or through a function."""
    makers = {scope.split(":")[1] for scope in parser_constructions(trees)} | {"ArgumentParser"}
    scopes = _call_scopes(trees, lambda call: _called_name(call) in makers)
    return {scope for scope in scopes if scope.endswith(":<module>")}


def _decorator_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def cached_functions(trees) -> set[str]:
    """``file:function`` of every function behind ``cache`` or ``lru_cache``."""
    return {f"{name}:{node.name}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_decorator_name(d) in CACHE_DECORATORS for d in node.decorator_list)}


def new_callers(trees) -> set[str]:
    """``file:function`` of every ``__new__(...)`` call."""
    return _call_scopes(trees, lambda call: _called_name(call) == "__new__")


def table_calls(trees) -> set[str]:
    """``file:function`` of each table made by a call, as ``lru_cache(...)(f)`` or a weak dict."""
    decorators = {id(d) for _, tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  for d in node.decorator_list}
    return _call_scopes(trees, lambda call: id(call) not in decorators
                        and _called_name(call) in TABLE_MAKERS)


def symbolic_table_files(trees) -> set[str]:
    """Files that declare a table: a ``cache``/``lru_cache`` decorator or call, or a weak dict."""
    return {name for name, tree in trees for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and _called_name(node) in TABLE_MAKERS)
            or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(_decorator_name(d) in TABLE_MAKERS for d in node.decorator_list))}


def command_name_strings(trees) -> list[str]:
    """``file:line`` of each string naming a command outside the module's command table.

    A spec field named by ``_require`` is not a command name, though ``twist`` is both.
    """
    found = []
    for name, tree in trees:
        table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                     and [ast.unparse(t) for t in node.targets] == [COMMAND_TABLE])
        names = {key.value for key in table.keys}
        inside = {id(node) for node in ast.walk(table)}
        inside |= {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and _called_name(node) == "_require" for arg in node.args}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in names and id(node) not in inside]
    return found


def operator_keyed_dicts(trees) -> list[str]:
    """``file:line`` of each dict keyed by an operator name outside the operator table."""
    found = []
    for name, tree in trees:
        table = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == OPERATOR_TABLE for t in node.targets)
                 for inner in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
            elif isinstance(node, ast.Call) and _called_name(node) in ("dict", "update"):
                keys = [k.arg for k in node.keywords]
            else:
                continue
            if id(node) not in table and OPERATOR_NAMES & set(keys):
                found.append(f"{name}:{node.lineno}")
    return found


def _names_binary_op(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_binary_op(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in BINARY_OPS


def binary_op_comparisons(trees) -> list[str]:
    """``file:line`` of each comparison of an ``.op`` with a binary operator's name."""
    return [f"{name}:{node.lineno}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Attribute) and side.attr == "op"
                    for side in (node.left, *node.comparators))
            and any(_names_binary_op(side) for side in (node.left, *node.comparators))]


def class_fields(trees, cls: str) -> list[str]:
    """The annotated fields of each class named ``cls``, in order."""
    return [stmt.target.id for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == cls
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _takes_config(fn: ast.FunctionDef) -> bool:
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    return any(a.arg == "config" or (a.annotation is not None
                                     and "RunConfig" in ast.unparse(a.annotation))
               for a in args)


def config_tolerances(trees) -> set[str]:
    """``file:Check.method`` of each ``Check`` method that takes a RunConfig and reads ``default``."""
    return {f"{name}:{node.name}.{fn.name}" for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Check"
            for fn in node.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _takes_config(fn)
            and any(isinstance(n, ast.Attribute) and n.attr == "default" for n in ast.walk(fn))}


def _caller_trees(folders=CALLER_DIRS):
    return [(str(path.relative_to(ROOT)), ast.parse(path.read_text(), str(path)))
            for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))]


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _reference_counts(node: ast.AST) -> collections.Counter:
    return collections.Counter(name for child in ast.walk(node)
                               if (name := _referenced_name(child)) is not None)


def unreferenced_definitions(trees, program_trees) -> set[str]:
    """``file:name`` of each function, class or method that no program path names.

    A definition in ``trees`` is named by a ``Name`` or an ``Attribute`` of
    its name in a module of ``trees`` other than ``__init__.py``, outside the
    definition itself, or anywhere in ``program_trees``.  Dunder names are
    exempt.  Names are matched alone, so the scan can miss an unused
    definition, never flag a used one.
    """
    outside = {name for _, tree in program_trees for name in _reference_counts(tree)}
    counts = sum((_reference_counts(tree) for file, tree in trees if file != "__init__.py"),
                 collections.Counter())
    return {f"{file}:{node.name}" for file, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in outside
            and counts[node.name] <= _reference_counts(node)[node.name]}


def _defaulted_parameters(tree: ast.AST):
    """(name as called, parameter, call position or None, named parameters, def) of each knob.

    A knob is a parameter with a default, or a ``**`` parameter (listed as
    ``**name``).  ``__init__`` is called by its class name; a method's call
    positions skip ``self``.  Keyword-only parameters have no position.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            skip = 1 if cls is not None and not static else 0
            name = cls if child.name == "__init__" else child.name
            named = {a.arg for a in positional + args.kwonlyargs}
            for index in range(len(positional) - len(args.defaults), len(positional)):
                found.append((name, positional[index].arg, index - skip, named, child))
            found.extend((name, a.arg, None, named, child)
                         for a, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None)
            if args.kwarg:
                found.append((name, "**" + args.kwarg.arg, None, named, child))
            visit(child, None)

    visit(tree, None)
    return found


def _passes(call: ast.Call, parameter: str, position, named) -> bool:
    if any(k.arg is None for k in call.keywords):  # **mapping may hold anything
        return True
    if parameter.startswith("**"):
        return any(k.arg not in named for k in call.keywords)
    if any(k.arg == parameter for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def unused_knobs(trees, caller_trees) -> set[str]:
    """``file:function.parameter`` of each knob in ``trees`` that no program call passes.

    A program call is in ``trees``, outside the knob's own definition, or in
    a caller tree under ``demos/`` or ``bench/``; a call from ``tests/``
    does not count.  Calls are matched by the called name alone, so a call
    of any function of that name counts: the scan can miss a knob, never
    flag a used one.  The modules of ``KNOB_EXEMPT_FILES`` are not scanned.
    """
    calls = {}
    program = [tree for file, tree in caller_trees if Path(file).parts[0] in PROGRAM_DIRS]
    for tree in [tree for _, tree in trees] + program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    return {f"{file}:{name}.{parameter}"
            for file, tree in trees if file not in KNOB_EXEMPT_FILES
            for name, parameter, position, named, definition in _defaulted_parameters(tree)
            if parameter not in SAMPLING_PARAMETERS
            and not any(_passes(call, parameter, position, named)
                        for call in calls.get(name, [])
                        if all(call is not node for node in ast.walk(definition)))}


def test_scan_sees_the_package():
    names = {name for name, _ in _trees()}
    assert {"geometry.py", "curvature.py", "products.py", "verify.py"} <= names
    assert any(isinstance(node, ast.FunctionDef) and node.name == "sample_array"
               for name, tree in _trees() if name == "geometry.py" for node in ast.walk(tree))


def test_no_code_loops_over_sample_arrays():
    assert sample_array_loops(_trees()) == []


def test_numdiff_stays_in_connections():
    assert numdiff_importers(_trees()) == NUMDIFF_IMPORTERS


def test_point_bytes_stay_in_geometry():
    assert tobytes_callers(_trees()) == TOBYTES_CALLERS


def test_only_one_batch_assigns_the_last_batch():
    assert attribute_writers(_trees(), "_last_batch") == {"geometry.py:one_batch"}


def test_only_sample_array_draws_samples():
    trees = _trees()
    assert default_rng_callers(trees) == {"geometry.py:sample_array"}
    assert table_writers(trees, "_DRAWS") == {"geometry.py:sample_array"}


def test_only_checks_builds_a_report():
    assert report_constructors(_trees()) == {"verify.py:__init__"}
    assert [node.name for name, tree in _trees() if name == "verify.py"
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                    for f in node.body)] == ["Checks"]


def test_sample_counts_come_from_the_table():
    trees = [(name, tree) for name, tree in _trees() if name in {"verify.py", "cli.py"}]
    assert sample_caps(trees) == {"verify.py:count"}


def test_rows_are_reduced_only_by_the_table():
    trees = [(name, tree) for name, tree in _trees() if name in {"verify.py", "cli.py"}]
    assert running_accumulators(trees) == []


def test_statements_come_from_the_table():
    assert literal_statements(_trees()) == set()


def test_every_table_row_is_reported(check_reports):
    """Each row of ``CHECKS`` shows in a report; a theorem-* variant is told by its statement."""
    used = set()
    for report in check_reports.values():
        for c in report["checks"]:
            prefix = c["check_id"].split(" [")[0]
            used |= {key for key, row in CHECKS.items()
                     if key.split("/")[0] == prefix and row.statement == c["statement"]}
    assert used == set(CHECKS)


def test_no_einsum_takes_three_operands():
    assert wide_einsums(_trees()) == []


def test_block_display_is_written_once():
    assert display_subscript_scopes(_trees()) == {"products.py:block_gamma"}


def test_tables_differentiate_in_one_helper():
    assert table_differentiate_callers(_trees()) == {"exprlang.py:derivative_table",
                                                     "exprlang.py:differentiate"}


def test_only_the_kernel_places_entries():
    assert take_callers(_trees()) == {"exprlang.py:_kernel_of"}


def test_no_condition_number_by_svd():
    assert cond_uses(_trees()) == []


def test_parsers_are_built_in_cli_never_at_import():
    trees = _trees()
    scopes = parser_constructions(trees)
    assert scopes and {scope.split(":")[0] for scope in scopes} == {"cli.py"}
    assert import_time_parsers(trees) == set()
    assert {f for f in cached_functions(trees) if f.startswith("cli.py:")} == {
        "cli.py:_command_parser"}


def test_only_the_intern_constructor_makes_nodes():
    assert new_callers(_trees()) == {"exprlang.py:_intern"}


def test_symbolic_tables_live_only_in_exprlang():
    # the draw table (geometry._DRAWS) holds arrays of numbers, not symbolic work, so this
    # rule does not confine it; test_only_sample_array_draws_samples does
    trees = _trees()
    outside = [(name, tree) for name, tree in trees if name not in TABLE_FILES_ALLOWED]
    assert symbolic_table_files(trees) == TABLE_FILES_ALLOWED | {"cli.py"}
    assert cached_functions(outside) == {"cli.py:_command_parser"}
    assert table_calls(outside) == set()


def test_command_names_appear_only_in_the_table():
    cli = [(name, tree) for name, tree in _trees() if name == "cli.py"]
    assert command_name_strings(cli) == []


def test_each_operator_is_defined_only_in_the_table():
    trees = [(name, tree) for name, tree in _trees() if name == "exprlang.py"]
    assert trees and operator_keyed_dicts(trees) == []
    assert binary_op_comparisons(_trees()) == []


def test_every_definition_is_named_on_a_program_path():
    assert unreferenced_definitions(_trees(), _caller_trees(PROGRAM_DIRS)) == set()


def test_all_names_only_what_exists():
    for name, tree in _trees():
        module = importlib.import_module(f"dualgeo.{name[:-3]}" if name != "__init__.py"
                                         else "dualgeo")
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert missing == [], name


def test_every_parameter_default_is_overridden_somewhere():
    assert unused_knobs(_trees(), _caller_trees()) == set()


def test_analyzers_receive_their_verdict_and_chain():
    trees = _trees()
    assert ANALYZERS <= {node.name for name, tree in trees if name == "dualistic.py"
                         for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert analyzer_input_calls(trees) == []


def test_each_row_is_judged_by_its_own_tolerance():
    trees = _trees()
    assert class_fields(trees, "RunConfig") == RUN_CONFIG_FIELDS
    assert config_tolerances(trees) == set()


def test_theorems_share_one_record():
    trees = [(name, tree) for name, tree in _trees() if name == "dualistic.py"]
    records = record_dataclasses(trees)
    assert len(records) == 1, records
    record = records.pop().split(":")[1]
    assert analyzer_returns(trees) == dict.fromkeys(ANALYZERS, record)


@pytest.mark.parametrize("source, calls, importers", [
    ("for pt in M.sample_array(4, 1):\n    pass\n", 1, set()),
    ("xs = [p for p in M.sample_array(3, 1)]\n", 1, set()),
    ("x = M.sample_array(4, 1)\n", 0, set()),
    ("from . import numdiff\n", 0, {"probe.py"}),
    ("from .numdiff import central_diff\n", 0, {"probe.py"}),
    ("import dualgeo.numdiff\n", 0, {"probe.py"}),
    ("from dualgeo import exprlang, numdiff\n", 0, {"probe.py"}),
    ("from . import exprlang\n", 0, set()),
    ("for x in [M.sample_array(n, seed)]:\n    pass\n", 0, set()),
    ("for a, b in zip(A.sample_array(4, 1), B.sample_array(4, 1)):\n    pass\n", 1, set()),
])
def test_scan_flags_each_form(source, calls, importers):
    trees = [("probe.py", ast.parse(source))]
    assert len(sample_array_loops(trees)) == calls
    assert numdiff_importers(trees) == importers


@pytest.mark.parametrize("source, calls", [
    ("def theorem41_analyze(st, direct, chain):\n    return direct, chain\n", 0),
    ("def theorem42_analyze(st):\n    return dually_flat_verdict(st, 12)\n", 1),
    ("def theorem43_analyze(st):\n    return dualistic.reduction_chain(st, 12, 1e-9, 1)\n", 1),
    ("def verdicts(st):\n    return dually_flat_verdict(st, 12), reduction_chain(st)\n", 0),
])
def test_scan_flags_analyzer_rebuilds(source, calls):
    assert len(analyzer_input_calls([("probe.py", ast.parse(source))])) == calls


@pytest.mark.parametrize("source, records, returns", [
    ("@dataclass(frozen=True)\nclass TheoremRecord:\n    pass\n"
     "def theorem41_analyze(st) -> TheoremRecord:\n    pass\n",
     {"probe.py:TheoremRecord"}, {"theorem41_analyze": "TheoremRecord"}),
    ("@dataclasses.dataclass\nclass Theorem42Record:\n    pass\nclass PlainRecord:\n    pass\n"
     "def theorem42_analyze(st) -> Theorem42Record:\n    pass\n",
     {"probe.py:Theorem42Record"}, {"theorem42_analyze": "Theorem42Record"}),
    ("@dataclass\nclass Verdict:\n    pass\ndef theorem43_analyze(st):\n    pass\n",
     set(), {"theorem43_analyze": None}),
])
def test_scan_flags_record_classes(source, records, returns):
    trees = [("probe.py", ast.parse(source))]
    assert record_dataclasses(trees) == records
    assert analyzer_returns(trees) == returns


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
    ("class Checks:\n    def __init__(self, c, i):\n"
     "        self.report = VerificationReport('dualgeo', V, {}, i)\n", {"probe.py:__init__"}),
    ("def cmd(c):\n    return Checks(c, {'spec_digest': 'x'}).report\n", set()),
])
def test_scan_flags_report_constructors(source, found):
    assert report_constructors([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def one_batch(owner, kind, x, build):\n"
     "    last = owner._last_batch = ((x.shape, x.tobytes()), {})\n",
     {"probe.py:one_batch"}),
    ("def gamma_at(self, x):\n    self._last_batch = (x, self._gamma(x))\n",
     {"probe.py:gamma_at"}),
    ("def frame(M, x):\n    M._last_batch += ((x, E),)\n", {"probe.py:frame"}),
    ("def frame(M, x):\n    key, M._last_batch = x, None\n", {"probe.py:frame"}),
    ("def reset(C):\n    setattr(C, '_last_batch', None)\n", {"probe.py:reset"}),
    ("class ConnectionField:\n    _last_batch = {}\n", {"probe.py:ConnectionField"}),
    ("class ConnectionField:\n    _last_batch = None\n", set()),
    ("def read(C):\n    last = C._last_batch\n    return last[1]\n", set()),
])
def test_scan_flags_last_batch_writes(source, found):
    assert attribute_writers([("probe.py", ast.parse(source))], "_last_batch") == found


@pytest.mark.parametrize("source, found", [
    ("def f(config):\n    return min(config.samples, 16)\n", {"probe.py:f"}),
    ("def f(samples):\n    return g(min(samples, 12))\n", {"probe.py:f"}),
    ("n = min(16, self.samples)\n", {"probe.py:<module>"}),
    ("def f(xs):\n    return min(xs, 16)\n", set()),
])
def test_scan_flags_sample_caps(source, found):
    assert sample_caps([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("worst = max(worst, r)\n", ["probe.py:1"]),
    ("lo = min(r, lo)\n", ["probe.py:1"]),
    ("ok = ok and flag\n", ["probe.py:1"]),
    ("ok: bool = flag or ok\n", ["probe.py:1"]),
    ("worst[k] = max(worst.get(k, 0.0), v)\n", ["probe.py:1"]),
    ("worst[key] = max(worst[key], v)\n", ["probe.py:1"]),
    ("def f(xs):\n    w = 0.0\n    for x in xs:\n        w = max(w, x)\n", ["probe.py:4"]),
    ("worst = max(a, b)\n", []),
    ("worst = np.max(worst, axis=0)\n", []),
    ("ok = all(flags) and done\n", []),
    ("ck.add('inverse-metric', *(defect(M) for M in charts))\n", []),
])
def test_scan_flags_running_accumulators(source, found):
    assert running_accumulators([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def f(rep):\n    rep.add('id', 'g = g', 1.0, 1e-9)\n", {"probe.py:f"}),
    ("def f(rep):\n    rep.add_flag('id', f'{x} holds', True)\n", {"probe.py:f"}),
    ("def f(rep):\n    rep.add('id', 'a' + ('' if d else ' b'), r, t)\n", {"probe.py:f"}),
    ("def f(rep):\n    rep.add('id', statement='s', residual=r, tolerance=t)\n", {"probe.py:f"}),
    ("def f(rep, row):\n    rep.add('id', row.statement, r, t)\n", set()),
    ("def f(seen):\n    seen.add('id')\n", set()),
])
def test_scan_flags_literal_statements(source, found):
    assert literal_statements([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def sample_array(self, n, seed):\n    rng = np.random.default_rng(seed)\n",
     {"probe.py:sample_array"}),
    ("def jitter(x):\n    return x + default_rng(0).normal(size=x.shape)\n", {"probe.py:jitter"}),
    ("RNG = numpy.random.default_rng(1)\n", {"probe.py:<module>"}),
    ("def f(M):\n    return M.sample_array(4, 1)\n", set()),
])
def test_scan_flags_default_rng_calls(source, found):
    assert default_rng_callers([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def sample_array(self, n, seed):\n    draw = self._draw = (seed, X)\n",
     {"probe.py:sample_array"}),
    ("def reseed(M):\n    M._draw = None\n", {"probe.py:reseed"}),
    ("class ManifoldSpec:\n    _draw = None\n", set()),
    ("def read(M):\n    return M._draw[1]\n", set()),
])
def test_scan_flags_draw_writes(source, found):
    # attribute writes, as a per-chart draw would make them; the draw table is
    # scanned by table_writers
    assert attribute_writers([("probe.py", ast.parse(source))], "_draw") == found


@pytest.mark.parametrize("source, found", [
    ("def sample_array(self, n, seed):\n    _DRAWS[key] = draw\n", {"probe.py:sample_array"}),
    ("def evict():\n    _DRAWS.popitem(last=False)\n", {"probe.py:evict"}),
    ("def drop(key):\n    del geometry._DRAWS[key]\n", {"probe.py:drop"}),
    ("def reset():\n    global _DRAWS\n    _DRAWS = {}\n", {"probe.py:reset"}),
    ("def reset(M):\n    M._DRAWS = {}\n", {"probe.py:reset"}),
    ("geometry._DRAWS.clear()\n", {"probe.py:<module>"}),
    ("_DRAWS = collections.OrderedDict()\n", set()),
    ("def read(key):\n    return _DRAWS.get(key), _DRAWS[key], len(_DRAWS)\n", set()),
])
def test_scan_flags_draw_table_writes(source, found):
    assert table_writers([("probe.py", ast.parse(source))], "_DRAWS") == found


@pytest.mark.parametrize("source, callers, found", [
    ("def f(x, tol=1e-9):\n    return x < tol\n", "f(1)\n", {"probe.py:f.tol"}),
    ("def f(x, tol=1e-9):\n    return x < tol\n", "f(1, 1e-9)\n", set()),
    ("def f(x, tol=1e-9):\n    return x < tol\n", "mod.f(1, tol=0.0)\n", set()),
    ("def f(x, tol=1e-9):\n    return x < tol\n", "f(*xs)\n", set()),
    ("def f(x, tol=1e-9):\n    return x < tol\n", "f(1, **opts)\n", set()),
    ("def f(x, tol=1e-9):\n    return x < tol\n", "g(1, tol=0.0)\n", {"probe.py:f.tol"}),
    ("def f(x, *, tol=1e-9):\n    return x < tol\n", "f(1, 2)\n", {"probe.py:f.tol"}),
    ("def f(x, samples=8, seed=1):\n    return x\n", "f(1)\n", set()),
    ("class A:\n    def f(self, x, at=None):\n        return x\n", "a.f(1)\n",
     {"probe.py:f.at"}),
    ("class A:\n    def f(self, x, at=None):\n        return x\n", "a.f(1, 2)\n", set()),
    ("class E(Exception):\n    def __init__(self, msg, where=None):\n        pass\n",
     "raise E('m')\n", {"probe.py:E.where"}),
    ("class E(Exception):\n    def __init__(self, msg, where=None):\n        pass\n",
     "raise E('m', where=p)\n", set()),
    ("def make(x, **extra):\n    return x\n", "make(1)\n", {"probe.py:make.**extra"}),
    ("def make(x, **extra):\n    return x\n", "make(x=1)\n", {"probe.py:make.**extra"}),
    ("def make(x, **extra):\n    return x\n", "make(1, product=p)\n", set()),
])
def test_scan_flags_unused_knobs(source, callers, found):
    trees = [("probe.py", ast.parse(source))]
    assert unused_knobs(trees, [("demos/caller.py", ast.parse(callers))]) == found


@pytest.mark.parametrize("source, caller, found", [
    ("def f(x, tol=1e-9):\n    return x < tol\n", ("tests/test_probe.py", "f(1, tol=0.0)\n"),
     {"probe.py:f.tol"}),
    ("def f(x, tol=1e-9):\n    return x < tol\n", ("bench/probe.py", "f(1, tol=0.0)\n"), set()),
    ("def f(x, tol=1e-9):\n    return f(x - 1, tol / 2) if x else tol\n", None,
     {"probe.py:f.tol"}),
    ("def f(x, tol=1e-9):\n    return x < tol\ndef g(x):\n    return f(x, 0.0)\n", None, set()),
])
def test_scan_counts_only_program_callers(source, caller, found):
    # a test's call and the function's own recursion override nothing; another
    # function of the package does
    trees = [("probe.py", ast.parse(source))]
    callers = [(caller[0], ast.parse(caller[1]))] if caller else []
    assert unused_knobs(trees, callers) == found


def test_scan_skips_the_oracle_module():
    source = "def central_diff(f, x, i, h=None):\n    return f(x)\n"
    assert unused_knobs([("numdiff.py", ast.parse(source))], []) == set()
    assert unused_knobs([("probe.py", ast.parse(source))], []) == {"probe.py:central_diff.h"}


@pytest.mark.parametrize("source, found", [
    ("R = np.einsum('...ia,...lajk,...lm,...im->...jk', E, R, g, E)\n", ["probe.py:1"]),
    ("x = numpy.einsum('ab,bc,cd->ad', A, B, C)\n", ["probe.py:1"]),
    ("def f(ops):\n    return einsum('ij,jk->ik', *ops)\n", ["probe.py:2"]),
    ("t = np.einsum('...mij,...mk->...ijk', gam, g)\n", []),
    ("t = np.einsum('...aajk->...jk', R)\n", []),
    ("t = A @ B @ C\n", []),
])
def test_scan_flags_wide_einsums(source, found):
    assert wide_einsums([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def block_gamma(P, x):\n    return np.einsum('...a,wv->...wav', kb, eye)\n",
     {"probe.py:block_gamma"}),
    ("def projection_check(st):\n    c = np.einsum('...uv,...c->...cuv', gF, v)\n",
     {"probe.py:projection_check"}),
    ("def block_connection(P):\n    def dgamma(x):\n"
     "        return einsum('...v,wu->...wuv', kf, eye)\n", {"probe.py:dgamma"}),
    ("TERM = '...uv,...w->...wuv'\n", {"probe.py:<module>"}),
    ("def f(k):\n    return np.einsum('...qa,wv->...qwav', k, eye)\n", set()),
    ("def f(gam, k):\n    return np.einsum('...mij,...m->...ij', gam, k)\n", set()),
])
def test_scan_flags_display_subscripts(source, found):
    assert display_subscript_scopes([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("name, source, found", [
    ("geometry.py", "def derivative_table(e, c, memo):\n    return differentiate(e, c)\n",
     {"geometry.py:derivative_table"}),
    ("geometry.py", "class ManifoldSpec:\n    def _metric_d1(self):\n"
     "        return [[differentiate(e, c) for e in row] for row in self.metric]\n",
     {"geometry.py:_metric_d1"}),
    ("connections.py", "def explicit_connection(M, entries):\n"
     "    dexprs = [exprlang.differentiate(e, c) for c in M.coords]\n",
     {"connections.py:explicit_connection"}),
    ("connections.py", "D = [differentiate(e, 'x') for e in ROW]\n", {"connections.py:<module>"}),
    ("geometry.py", "def gradient_at(self, f):\n    return derivative_table(f, 'x', {})\n",
     set()),
    ("products.py", "def _k1(self):\n    return [differentiate(self.k, c) for c in C]\n",
     set()),
])
def test_scan_flags_table_differentiations(name, source, found):
    assert table_differentiate_callers([(name, ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def _kernel_of(flat):\n    def kernel(x):\n        return rows.take(index, axis=-1)\n",
     {"probe.py:_kernel_of"}),
    ("class M:\n    def third(self, x):\n        return np.take(c, self.index, axis=-3)\n",
     {"probe.py:third"}),
    ("D3 = numpy.take(classes, index, axis=0)\n", {"probe.py:<module>"}),
    ("def third(c, index):\n    return c[index]\n", set()),
    ("def third(c, index):\n    return np.take_along_axis(c, index, axis=0)\n", set()),
    ("take = 1\n", set()),
])
def test_scan_flags_take_calls(source, found):
    assert take_callers([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("c = np.linalg.cond(g)\n", ["probe.py:1"]),
    ("c = numpy.linalg.cond(g, 2)\n", ["probe.py:1"]),
    ("from numpy import linalg\nc = linalg.cond(g)\n", ["probe.py:2"]),
    ("from numpy.linalg import cond\n", ["probe.py:1"]),
    ("w = np.linalg.eigvalsh(g)\n", []),
    ("c = config.cond(g)\n", []),
])
def test_scan_flags_condition_numbers(source, found):
    assert cond_uses([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, scopes, at_import", [
    ("def build():\n    return argparse.ArgumentParser(prog='x')\n", {"probe.py:build"}, set()),
    ("PARSER = ArgumentParser(prog='dualgeo')\n", {"probe.py:<module>"}, {"probe.py:<module>"}),
    ("def build_parser():\n    return ArgumentParser()\nPARSER = build_parser()\n",
     {"probe.py:build_parser"}, {"probe.py:<module>"}),
    ("def build_parser():\n    return ArgumentParser()\n"
     "def main(argv):\n    return build_parser().parse_args(argv)\n",
     {"probe.py:build_parser"}, set()),
    ("def main(argv):\n    return build_parser().parse_args(argv)\n", set(), set()),
])
def test_scan_flags_parser_builds(source, scopes, at_import):
    trees = [("probe.py", ast.parse(source))]
    assert parser_constructions(trees) == scopes
    assert import_time_parsers(trees) == at_import


@pytest.mark.parametrize("source, found", [
    ("@functools.cache\ndef parser():\n    pass\n", {"probe.py:parser"}),
    ("@lru_cache(maxsize=None)\ndef parser(name):\n    pass\n", {"probe.py:parser"}),
    ("@functools.lru_cache\ndef parser(name):\n    pass\n", {"probe.py:parser"}),
    ("class C:\n    @cache\n    def parser(self):\n        pass\n", {"probe.py:parser"}),
    ("@staticmethod\ndef parser():\n    pass\n", set()),
    ("def parser():\n    pass\n", set()),
])
def test_scan_flags_cached_functions(source, found):
    assert cached_functions([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("COMMANDS = {'check': 1}\nif name == 'check':\n    pass\n", ["probe.py:2"]),
    ("COMMANDS = {'check': 1, 'twist': 2}\nd = {'twist': cmd_twist}\n", ["probe.py:2"]),
    ("COMMANDS = {'check': 1}\ndef f(a):\n    return run('check', a)\n", ["probe.py:3"]),
    ("COMMANDS = {'check': (lambda a: run('check'))}\n", []),
    ("COMMANDS = {'check': 1}\nhelp = f'{name} check'\n", []),
    ("COMMANDS = {'twist': 1}\nflag = '--twist'\n", []),
    ("COMMANDS = {'twist': 1}\nt = _require(doc, 'twist', str, where)\n", []),
    ("COMMANDS = {'twist': 1}\nt = doc.get('twist')\n", ["probe.py:2"]),
])
def test_scan_flags_command_name_strings(source, found):
    assert command_name_strings([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("def _intern(cls, key):\n    return object.__new__(cls)\n", {"probe.py:_intern"}),
    ("def fast_const(v):\n    return object.__new__(Const)\n", {"probe.py:fast_const"}),
    ("class K(Expr):\n    def __new__(cls, v):\n        return super().__new__(cls)\n",
     {"probe.py:__new__"}),
    ("NODE = Const.__new__(Const)\n", {"probe.py:<module>"}),
    ("def const(v):\n    return Const(v)\n", set()),
    ("class K(Expr):\n    def __new__(cls, v):\n        return _intern(cls, (cls, v), v)\n",
     set()),
])
def test_scan_flags_node_constructions(source, found):
    assert new_callers([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("@functools.lru_cache(maxsize=8)\ndef kernel_of(flat):\n    pass\n", {"probe.py"}),
    ("@cache\ndef jets(metric):\n    pass\n", {"probe.py"}),
    ("JETS = functools.lru_cache(maxsize=8)(Jets)\n", {"probe.py"}),
    ("NODES = weakref.WeakValueDictionary()\n", {"probe.py"}),
    ("SEEN = WeakKeyDictionary()\n", {"probe.py"}),
    ("SEEN = {}\n", set()),
    ("class C:\n    @cached_property\n    def d1(self):\n        pass\n", set()),
])
def test_scan_flags_symbolic_tables(source, found):
    assert symbolic_table_files([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("@functools.lru_cache(maxsize=8)\ndef kernel_of(flat):\n    pass\n", set()),
    ("@cache\ndef jets(metric):\n    pass\n", set()),
    ("JETS = functools.lru_cache(maxsize=8)(Jets)\n", {"probe.py:<module>"}),
    ("def table():\n    return weakref.WeakValueDictionary()\n", {"probe.py:table"}),
    ("SEEN = {}\n", set()),
])
def test_scan_flags_table_calls(source, found):
    assert table_calls([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("_OPS = {Binary: {'add': 1, 'pow': 2}, Unary: {'neg': 3}}\n", []),
    ("_SRC = {'add': '{} + {}', 'sub': '{} - {}'}\n", ["probe.py:1"]),
    ("def f(e):\n    return {'add': add, 'mul': mul}[e.op]\n", ["probe.py:2"]),
    ("RULES = {'sin': cos}\n", ["probe.py:1"]),
    ("_UNARY = dict(exp=math.exp)\n", ["probe.py:1"]),
    ("_UNARY.update(log=_log, sqrt=_sqrt)\n", ["probe.py:1"]),
    ("ns = {'_div': _div, '_pow': _pow, **{op: 1 for op in _OPS[Unary]}}\n", []),
    ("_OPS = 1\nSYMBOLS = {'^': 'pow'}\n", []),
])
def test_scan_flags_operator_keyed_dicts(source, found):
    assert operator_keyed_dicts([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, found", [
    ("if e.op == 'pow':\n    pass\n", ["probe.py:1"]),
    ("right = lvl + (1 if e.op in ('sub', 'div') else 0)\n", ["probe.py:1"]),
    ("assert 'add' != node.op\n", ["probe.py:1"]),
    ("ok = e.op in {'mul'}\n", ["probe.py:1"]),
    ("if a.op == 'neg':\n    pass\n", []),
    ("if name == 'log' and a.op == 'exp':\n    pass\n", []),
    ("if op == 'add':\n    pass\n", []),
    ("level = row.level == 1\n", []),
])
def test_scan_flags_binary_op_comparisons(source, found):
    assert binary_op_comparisons([("probe.py", ast.parse(source))]) == found


@pytest.mark.parametrize("source, fields, found", [
    ("class RunConfig:\n    samples: int = 64\n    tol_exact: float = 1e-8\n",
     ["samples", "tol_exact"], set()),
    ("class Check:\n    def tolerance(self, config: RunConfig):\n"
     "        return min(self.default, config.tol_exact)\n", [], {"probe.py:Check.tolerance"}),
    ("class Check:\n    def bound(self, run: 'RunConfig'):\n"
     "        return run.scale * self.default\n", [], {"probe.py:Check.bound"}),
    ("class Check:\n    default: float\n    def count(self, config):\n"
     "        return config.samples\n", [], set()),
    ("class Other:\n    def tolerance(self, config):\n        return self.default\n", [], set()),
])
def test_scan_flags_run_config_tolerances(source, fields, found):
    trees = [("probe.py", ast.parse(source))]
    assert class_fields(trees, "RunConfig") == fields
    assert config_tolerances(trees) == found


@pytest.mark.parametrize("source, program, found", [
    ("def used(x):\n    return x\ndef unused(x):\n    return used(x)\n", "",
     {"probe.py:unused"}),
    ("def f(n):\n    return f(n - 1) if n else 0\n", "", {"probe.py:f"}),
    ("def f(n):\n    return f(n - 1) if n else 0\n", "f(3)\n", set()),
    ("class A:\n    def lift(self, v):\n        return v\n", "", {"probe.py:A", "probe.py:lift"}),
    ("class A:\n    def lift(self, v):\n        return v\nX = A().lift(1)\n", "", set()),
    ("class A:\n    def __repr__(self):\n        return 'A'\nA()\n", "", set()),
    ("def make():\n    def build(x):\n        return x\n    return build\nmake()\n", "", set()),
    ("__all__ = ['helper']\ndef helper():\n    pass\n", "", {"probe.py:helper"}),
    ("def helper():\n    pass\n", "from dualgeo.probe import helper\nhelper()\n", set()),
    ("def helper():\n    pass\n", "from dualgeo.probe import helper\n", {"probe.py:helper"}),
    ("def helper():\n    pass\n", "ok = hasattr(mod, 'helper')\n", {"probe.py:helper"}),
])
def test_scan_flags_unreferenced_definitions(source, program, found):
    trees = [("probe.py", ast.parse(source))]
    assert unreferenced_definitions(trees, [("demo.py", ast.parse(program))]) == found


def test_scan_ignores_names_in_the_package_init():
    trees = [("probe.py", ast.parse("def helper():\n    pass\n")),
             ("__init__.py", ast.parse("from .probe import helper\nX = helper\n"))]
    assert unreferenced_definitions(trees, []) == {"probe.py:helper"}
