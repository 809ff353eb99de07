import collections
import functools
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dualgeo import exprlang, geometry
from dualgeo import fixtures as fx
from dualgeo.cli import LoadedProduct, load_spec, main


def empty_symbolic_tables(monkeypatch):
    """Put empty parse, kernel and code tables in place of the process's, as at start-up.

    The new tables have the library's bounds, and every live node's
    derivative memo is dropped too, so the work that follows parses,
    differentiates and compiles afresh; ``monkeypatch`` puts the process's
    tables back.  Returns the new tables, as ``parses``, ``kernels`` and
    ``codes``.
    """
    tables = types.SimpleNamespace(
        parses=collections.OrderedDict(),
        kernels=functools.lru_cache(**exprlang._kernel_of.cache_parameters())(
            exprlang._kernel_of.__wrapped__),
        codes=functools.lru_cache(**exprlang._code_of.cache_parameters())(
            exprlang._code_of.__wrapped__))
    monkeypatch.setattr(exprlang, "_PARSED", tables.parses)
    monkeypatch.setattr(exprlang, "_kernel_of", tables.kernels)
    monkeypatch.setattr(exprlang, "_code_of", tables.codes)
    for node in list(exprlang._NODES.values()):
        object.__setattr__(node, "_derivatives", None)
    return tables


def count_straight_runs(monkeypatch) -> list[collections.Counter]:
    """One counter per straight-line function compiled from now on: its one-point runs, by point.

    It wraps ``exprlang``'s ``exec``, so a kernel found in the kernel table
    is not counted; ``monkeypatch`` puts ``exec`` back.
    """
    runs = []

    def exec_counting(code, namespace):
        exec(code, namespace)
        straight, count = namespace["kernel"], collections.Counter()
        runs.append(count)

        def counted(xs):
            count[tuple(xs)] += 1
            return straight(xs)
        namespace["kernel"] = counted

    monkeypatch.setattr(exprlang, "exec", exec_counting, raising=False)
    return runs


@pytest.fixture
def empty_tables(monkeypatch):
    """Empty symbolic tables in place of the process's, for one test (see empty_symbolic_tables)."""
    return empty_symbolic_tables(monkeypatch)


@pytest.fixture
def empty_draws(monkeypatch):
    """An empty draw table, in place of the process's for one test."""
    draws = collections.OrderedDict()
    monkeypatch.setattr(geometry, "_DRAWS", draws)
    return draws


@pytest.fixture(scope="session")
def sphere():
    return fx.sphere2()


@pytest.fixture(scope="session")
def hyperbolic():
    return fx.hyperbolic2()


@pytest.fixture(scope="session")
def fisher():
    return fx.fisher_normal()


@pytest.fixture(scope="session")
def euclid1():
    return fx.euclidean(1, ("x",))


@pytest.fixture(scope="session")
def euclid2():
    return fx.euclidean(2)


@pytest.fixture(scope="session")
def euclid3():
    return fx.euclidean(3)


@pytest.fixture(scope="session")
def euclid4():
    return fx.euclidean(4)


@pytest.fixture(scope="session")
def standard_twists():
    return dict(fx.standard_twists())


@pytest.fixture(scope="session")
def dualistic_suite():
    return fx.Fixtures().suite(16, 42)


@pytest.fixture(scope="session")
def spec_dir():
    return Path(__file__).parent.parent / "specs"


@pytest.fixture(scope="session")
def check_reports(spec_dir, tmp_path_factory):
    """Every report of the check table's commands at the default config, by (command, spec).

    ``verify-paper``; ``check`` and ``conjugate`` on each manifold spec in
    specs/; ``twist`` and ``flatness`` on each product spec, plus ``flatness``
    on a product whose base declares a pair that is not conjugate.
    """
    out = tmp_path_factory.mktemp("check_reports")
    bad_base = json.loads((spec_dir / "line_bad_pair.json").read_text())
    bad_product = out / "bad_pair_product.json"
    fiber = {"name": "lineF", "coords": ["u"], "domain": [[-1.0, 1.0]], "metric": [["1"]]}
    bad_product.write_text(json.dumps({"kind": "twisted_product", "base": bad_base,
                                       "fiber": fiber, "twist": "1"}))
    runs = [("verify-paper", None)]
    for spec in sorted(spec_dir.glob("*.json")):
        product = isinstance(load_spec(str(spec)), LoadedProduct)
        runs += [(command, spec) for command in
                 (("twist", "flatness") if product else ("check", "conjugate"))]
    runs.append(("flatness", bad_product))
    reports = {}
    for command, spec in runs:
        report = out / f"{command}-{spec.name if spec else 'suite'}.json"
        main([command] + ([str(spec)] if spec else []) + ["--report", str(report)])
        reports[command, spec.name if spec else None] = json.loads(report.read_text())
    return reports
