"""One run builds each array once, and each chart once.

The gate wraps ``geometry.one_batch`` during one warm ``verify_paper`` and
during one run of each spec command on ``specs/``.  A build of a kind on a
batch that equals, or is a row-prefix of, a batch the same owner built that
kind on earlier in the run is a repeat: the earlier array held the rows.
Charts are counted as ``ManifoldSpec``s built, against the distinct ones by
name, coordinates, domain and metric source.

The symbolic gate wraps ``exprlang.differentiate`` and records each
(node, coordinate) pair it finds missing from the node's memo, in runs that
start from empty symbolic tables, as a fresh process does: no pair is
differentiated twice, and a chart's mirror metric entries are one object
exactly when they are equal node for node.  A second run of the same work
differentiates nothing and compiles nothing, and makes exactly as many
array builds as the run before it, so no array of numbers outlives a call.

A warm ``verify_paper`` at 64 samples lowers Gamma, differentiates g^-1 and
builds conjugates within a fixed count, since each is kept on its owner.

At a fresh point the curvature path has a fixed budget: the frame is one
Cholesky factorization and one inverse, whatever the dimension; each
kernel's straight-line function runs once; and no finite point is handed
to ``exprlang.evaluate``.
"""

import collections
import itertools
import sys

import numpy as np
import pytest

from dualgeo import connections, exprlang, fixtures as fx, geometry
from dualgeo.cli import LoadedProduct, load_spec, main
from dualgeo.connections import ConnectionField, conjugate, explicit_connection, levi_civita
from dualgeo.curvature import orthonormal_frame_at, ricci_at, riemann_at, scalar_at, weyl_at
from dualgeo.exprlang import Const, evaluate, parse, to_source
from dualgeo.geometry import ManifoldSpec
from dualgeo.report import RunConfig
from dualgeo.verify import verify_paper
from conftest import count_straight_runs, empty_symbolic_tables
from oracles import tree_key


class Recorder:
    """Repeated builds of a kind, and every chart built, while installed.

    Each owner is held until ``check``, so no id is reused within a run.
    """

    def __init__(self, monkeypatch):
        self.rebuilds, self.charts = [], []
        self.built = {}  # (id(owner), kind) -> (owner, keys of the batches it was built on)
        original = geometry.one_batch

        def recording(owner, kind, x, build):
            def counted(z):
                key = (z.shape, z.tobytes())
                _, keys = self.built.setdefault((id(owner), kind), (owner, []))
                if any(geometry._begins(key, earlier) for earlier in keys):
                    self.rebuilds.append((repr(owner), kind, z.shape))
                keys.append(key)
                return build(z)
            return original(owner, kind, x, counted)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dualgeo")
                    and getattr(module, "one_batch", None) is original):
                monkeypatch.setattr(module, "one_batch", recording)
        post_init = ManifoldSpec.__post_init__

        def recorded(chart):
            post_init(chart)
            self.charts.append((chart.name, chart.coords, chart.domain,
                                tuple(to_source(e) for row in chart.metric for e in row)))
        monkeypatch.setattr(ManifoldSpec, "__post_init__", recorded)

    def check(self):
        assert self.rebuilds == []
        assert len(self.charts) == len(set(self.charts))
        self.rebuilds.clear()
        self.charts.clear()
        self.built.clear()


@pytest.mark.parametrize("seed", [42, 3])
def test_verify_paper_builds_each_array_and_chart_once(monkeypatch, seed):
    # the suite is validated at the run's seed: make_dualistic's default 42, and 3
    verify_paper(RunConfig(seed=seed))
    recorder = Recorder(monkeypatch)
    verify_paper(RunConfig(seed=seed))
    assert len(recorder.charts) > 20
    recorder.check()


def test_spec_commands_build_each_array_and_chart_once(monkeypatch, spec_dir, capsys):
    recorder = Recorder(monkeypatch)
    for spec in sorted(spec_dir.glob("*.json")):
        product = isinstance(load_spec(str(spec)), LoadedProduct)
        recorder.check()
        for command in (("twist", "flatness") if product else ("check", "conjugate", "curvature")):
            main([command, str(spec)])
            assert recorder.charts, (command, spec.name)
            recorder.check()
    capsys.readouterr()


def test_the_plain_charts_build_no_product(monkeypatch):
    built = []
    monkeypatch.setattr(fx, "twisted_product", lambda *args: built.append(args))
    assert len(fx.Fixtures().manifolds) == 5
    assert built == []


# -- symbolic work: each derivative table differentiates an entry once -------

def _compiled() -> int:
    """Misses of the kernel table so far: the kernels built."""
    return exprlang._kernel_of.cache_info().misses


class DerivativeRecorder:
    """Each (node, coordinate) pair differentiate computes, and every chart built, while installed.

    A pair is recorded when differentiate finds it missing from the node's
    memo; the recorder holds the node, so no id is reused.  A call that
    finds its pair in the memo must differentiate nothing, so a call made
    inside it is recorded as recomputed.
    """

    def __init__(self, monkeypatch):
        self.pairs, self.recomputed, self.charts = [], [], []
        differentiate = exprlang.differentiate
        hits = []  # whether each call on the stack found its pair in the memo

        def differentiating(e, coord):
            if hits and hits[-1]:
                self.recomputed.append((e, coord))
            hits.append(coord in (e._derivatives or ()))
            if not hits[-1]:
                self.pairs.append((e, coord))
            try:
                return differentiate(e, coord)
            finally:
                hits.pop()

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dualgeo")
                    and getattr(module, "differentiate", None) is differentiate):
                monkeypatch.setattr(module, "differentiate", differentiating)
        post_init = ManifoldSpec.__post_init__

        def recorded(chart):
            post_init(chart)
            self.charts.append(chart)
        monkeypatch.setattr(ManifoldSpec, "__post_init__", recorded)

    def check(self):
        assert self.recomputed == []
        assert len(self.pairs) == len({(id(e), coord) for e, coord in self.pairs})
        for chart in self.charts:
            g = chart.metric
            for j, k in itertools.combinations(range(chart.dim), 2):
                assert (g[j][k] is g[k][j]) == (tree_key(g[j][k]) == tree_key(g[k][j]))
        self.pairs.clear()
        self.charts.clear()


def test_verify_paper_differentiates_each_entry_once_per_table(monkeypatch):
    empty_symbolic_tables(monkeypatch)
    recorder = DerivativeRecorder(monkeypatch)
    verify_paper(RunConfig(seed=3))
    assert len(recorder.pairs) > 200 and len(recorder.charts) > 20
    recorder.check()


def _builds(monkeypatch) -> list:
    """The (owner, kind) of each array built through geometry.one_batch, while installed."""
    builds, original = [], geometry.one_batch

    def counting(owner, kind, x, build):
        def counted(z):
            builds.append((type(owner).__name__, kind))
            return build(z)
        return original(owner, kind, x, counted)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("dualgeo")
                and getattr(module, "one_batch", None) is original):
            monkeypatch.setattr(module, "one_batch", counting)
    return builds


def test_a_warm_verify_paper_builds_nothing_symbolic(monkeypatch):
    verify_paper(RunConfig(seed=3))
    builds = _builds(monkeypatch)
    first = verify_paper(RunConfig(seed=3)).to_json()
    first_builds = list(builds)
    builds.clear()
    recorder = DerivativeRecorder(monkeypatch)
    compiled = _compiled()
    assert verify_paper(RunConfig(seed=3)).to_json() == first
    assert recorder.pairs == [] and _compiled() == compiled
    recorder.check()
    # every array of the second warm run is built again: none is reused across calls
    assert len(first_builds) > 500 and sorted(builds) == sorted(first_builds)


def test_a_warm_verify_paper_lowers_each_connection_once_per_stream(monkeypatch):
    # a connection keeps its lowered Gamma and its conjugate, and a chart its
    # d(g^-1); without them one warm run makes 292 lowerings, 59 d(g^-1) and
    # 67 conjugates
    verify_paper(RunConfig(samples=64, seed=3))
    counts = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for name in ("_lower_first", "_dginv"):
        monkeypatch.setattr(connections, name, counting(name, getattr(connections, name)))
    init = ConnectionField.__init__

    def counted_init(self, M, provenance, *rest):
        counts[provenance] += 1
        init(self, M, provenance, *rest)

    monkeypatch.setattr(ConnectionField, "__init__", counted_init)
    verify_paper(RunConfig(samples=64, seed=3))
    assert counts["_lower_first"] <= 116
    assert counts["_dginv"] <= 30
    assert counts["conjugate-of"] <= 55


def test_spec_commands_differentiate_each_entry_once_per_table(monkeypatch, spec_dir, capsys):
    recorder = DerivativeRecorder(monkeypatch)
    for spec in sorted(spec_dir.glob("*.json")):
        product = isinstance(load_spec(str(spec)), LoadedProduct)
        for command in (("twist", "flatness") if product else ("check", "conjugate", "curvature")):
            empty_symbolic_tables(monkeypatch)
            recorder.pairs.clear()
            main([command, str(spec)])
            assert recorder.pairs, (command, spec.name)
            recorder.check()
            # the same command again differentiates nothing and compiles nothing
            compiled = _compiled()
            main([command, str(spec)])
            assert recorder.pairs == [] and _compiled() == compiled, (command, spec.name)
            recorder.check()
    capsys.readouterr()


def _entries(jets) -> list:
    """Every entry of a chart's g, dg, d2g and d3g, row-major."""
    return [*jets.exprs, *jets.d1, *jets.d2, *jets.d3]


def test_a_chart_differentiates_each_entry_once_for_all_its_jets(monkeypatch):
    # the zero entries and the mirror pair are single objects across g, dg, d2g, d3g,
    # and a second chart of the same entries builds its own jets of the same
    # entry objects, differentiating nothing
    empty_symbolic_tables(monkeypatch)
    recorder = DerivativeRecorder(monkeypatch)
    sources = [["1 + x^2", "x*y", "0"], ["x*y", "2 + sin(z)", "0"], ["0", "0", "exp(y)"]]
    M = ManifoldSpec.from_strings("probe", ("x", "y", "z"), [(0.5, 1.0)] * 3, sources)
    first = _entries(M._jets)
    assert recorder.pairs
    recorder.check()
    again = ManifoldSpec.from_strings("again", ("x", "y", "z"), [(0.25, 1.0)] * 3, sources)
    assert again._jets is not M._jets
    assert all(a is b for a, b in zip(_entries(again._jets), first, strict=True))
    assert recorder.pairs == []
    # differentiating the entries again finds every pair in the memos
    [[[exprlang.differentiate(e, c) for e in row] for row in again.metric] for c in again.coords]
    recorder.check()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("upper, lower, shared", [
    ("x*y", "x*y", True),
    ("x*y", "y*x", False),
    ("0", "-0", False),
    (Const(0.0), Const(-0.0), False),
    ("x + y + 1", "x + (y + 1)", False),
])
def test_mirror_entries_are_one_object_only_when_equal(upper, lower, shared):
    coords = ("x", "y")
    upper, lower = (parse(e, coords) if isinstance(e, str) else e for e in (upper, lower))
    M = ManifoldSpec("probe", coords, [(0.5, 1.0)] * 2,
                     [[parse("2 + x^2", coords), upper], [lower, parse("2 + y^2", coords)]])
    assert (M.metric[1][0] is M.metric[0][1]) == shared
    assert M.metric[1][0] is (upper if shared else lower)
    x = M.sample_array(4, 0)
    jets = M._jets
    tables = (np.array(M.metric, dtype=object),  # the flat jet blocks, nested by their shapes
              np.array(jets.d1, dtype=object).reshape((2,) * 3),
              np.array(jets.d2, dtype=object).reshape((2,) * 4),
              np.array(jets.d3, dtype=object).reshape((2,) * 5))
    for n in range(len(x)):
        env = dict(zip(coords, x[n]))
        for kernel, exprs in zip((M.metric_at, M.metric_derivatives_at,
                                  M.metric_second_derivatives_at,
                                  M.metric_third_derivatives_at), tables, strict=True):
            want = np.vectorize(lambda e: evaluate(e, env), otypes=[float])(exprs)
            assert _bits(kernel(x)[n]) == _bits(want)


# -- a fresh point: a fixed budget of factorizations and kernel calls ---------

def _fresh_copy(name: str) -> ManifoldSpec:
    """A new chart with the metric of a fixture."""
    fixtures = fx.Fixtures()
    M = fixtures.twists[name].manifold if name in fixtures.twists else fixtures.charts[name]
    return ManifoldSpec(f"fresh-{name}", M.coords, M.domain, M.metric)


def _counting(calls: collections.Counter, key: str, fn):
    def call(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return call


def _curvature_grid_operation(M, lc, explicit, dual, x) -> None:
    """R, Ric, S and W of Levi-Civita, and R of a pair, at a point or a batch."""
    riemann_at(lc, x)
    ricci_at(M, lc, x)
    scalar_at(M, lc, x)
    if M.dim >= 3:
        weyl_at(M, lc, x)
    riemann_at(explicit, x)
    riemann_at(dual, x)


@pytest.mark.parametrize("name", ["fisher-normal", "twisted-4d"])
def test_a_fresh_point_has_a_fixed_budget(monkeypatch, name):
    M = _fresh_copy(name)
    empty_symbolic_tables(monkeypatch)  # so its kernels are compiled anew
    runs = count_straight_runs(monkeypatch)  # one counter per straight-line function
    calls = collections.Counter()
    monkeypatch.setattr(exprlang, "evaluate", _counting(calls, "evaluate", exprlang.evaluate))
    lc = levi_civita(M)
    explicit = explicit_connection(M, {(0, 0, 0): "0.3", (1, 0, 1): f"0.2*{M.coords[0]}"})
    dual = conjugate(explicit, M)
    points = M.sample_array(2, 5)
    for x in points:
        M.metric_at(x)
        M.inverse_metric_at(x)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", _counting(calls, "cholesky", np.linalg.cholesky))
            patch.setattr(np.linalg, "inv", _counting(calls, "inv", np.linalg.inv))
            orthonormal_frame_at(M, x)
        assert calls == {"cholesky": 1, "inv": 1}
        calls.clear()
        _curvature_grid_operation(M, lc, explicit, dual, x)  # the curvature-grid operation
    assert calls == {}
    assert len(runs) >= 5
    for count in runs:
        assert count == {tuple(x): 1 for x in points.tolist()}


@pytest.mark.parametrize("name", ["fisher-normal", "twisted-4d"])
def test_a_batch_makes_no_per_point_call(monkeypatch, name):
    # a batch at the suite's 64 samples is one column call of each kernel
    M = _fresh_copy(name)
    empty_symbolic_tables(monkeypatch)
    runs = count_straight_runs(monkeypatch)
    calls = collections.Counter()
    monkeypatch.setattr(exprlang, "evaluate", _counting(calls, "evaluate", exprlang.evaluate))
    lc = levi_civita(M)
    explicit = explicit_connection(M, {(0, 0, 0): "0.3", (1, 0, 1): f"0.2*{M.coords[0]}"})
    dual = conjugate(explicit, M)
    x = M.sample_array(64, 5)
    assert len(x) >= exprlang._COLUMN_ROWS
    M.metric_at(x)
    M.inverse_metric_at(x)
    orthonormal_frame_at(M, x)
    _curvature_grid_operation(M, lc, explicit, dual, x)
    assert calls == {}
    assert len(runs) >= 5
    for count in runs:
        assert count == {}
