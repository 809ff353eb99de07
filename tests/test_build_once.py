"""One run builds each array once, and each chart once.

The gate wraps ``geometry.one_batch`` during one warm ``verify_paper`` and
during one run of each spec command on ``specs/``.  A build of a kind that
the owner's stream already holds on a shorter row-prefix is a second build
of that kind on one stream: reading the larger batch first would have made
the smaller read a slice.  Charts are counted as ``ManifoldSpec``s built,
against the distinct ones by name, coordinates, domain and metric source.

The symbolic gate wraps ``geometry.derivative_table`` and the
``differentiate`` it calls, in the same runs: no table (one memo: a chart's
metric jets, an explicit connection's dGamma) differentiates one entry
object along one coordinate twice, and a chart's mirror metric entries are
one object exactly when they are equal node for node.
"""

import itertools
import sys

import numpy as np
import pytest

from dualgeo import geometry
from dualgeo.cli import LoadedProduct, load_spec, main
from dualgeo.exprlang import Const, Unary, Var, evaluate, parse, to_source
from dualgeo.geometry import ManifoldSpec
from dualgeo.report import RunConfig
from dualgeo.verify import verify_paper


class Recorder:
    """Second builds of a held kind, and every chart built, while installed."""

    def __init__(self, monkeypatch):
        self.rebuilds, self.charts = [], []
        original = geometry.one_batch

        def recording(owner, kind, x, build):
            key, last = (x.shape, x.tobytes()), owner._last_batch
            held = last is not None and kind in last[1] and (
                geometry._begins(key, last[0]) or geometry._begins(last[0], key))

            def counted(z):
                if held:
                    self.rebuilds.append((repr(owner), kind, x.shape))
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


# -- symbolic work: each derivative table differentiates an entry once -------

def _tree_key(e):
    """The node-for-node structure of e, constants by type and repr."""
    if isinstance(e, Const):
        return ("const", type(e.value), repr(e.value))
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Unary):
        return ("unary", e.op, _tree_key(e.arg))
    return ("binary", e.op, _tree_key(e.left), _tree_key(e.right))


class DerivativeRecorder:
    """The (table, entry object, coordinate) of each differentiate a table makes, while installed.

    A table is the memo passed to ``geometry.derivative_table``; every memo
    and so every entry it holds is kept alive, so no id is reused.  It also
    keeps every chart built, to check its mirror entries.
    """

    def __init__(self, monkeypatch):
        self.pairs, self.memos, self.charts = [], {}, []
        table, differentiate = geometry.derivative_table, geometry.differentiate
        current = []

        def tabled(exprs, coord, memo):
            self.memos[id(memo)] = memo
            current.append(memo)
            try:
                return table(exprs, coord, memo)
            finally:
                current.pop()

        def differentiating(e, coord):
            self.pairs.append((id(current[-1]), id(e), coord))
            return differentiate(e, coord)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dualgeo")
                    and getattr(module, "derivative_table", None) is table):
                monkeypatch.setattr(module, "derivative_table", tabled)
        monkeypatch.setattr(geometry, "differentiate", differentiating)
        post_init = ManifoldSpec.__post_init__

        def recorded(chart):
            post_init(chart)
            self.charts.append(chart)
        monkeypatch.setattr(ManifoldSpec, "__post_init__", recorded)

    def check(self):
        assert len(self.pairs) == len(set(self.pairs))
        for chart in self.charts:
            g = chart.metric
            for j, k in itertools.combinations(range(chart.dim), 2):
                assert (g[j][k] is g[k][j]) == (_tree_key(g[j][k]) == _tree_key(g[k][j]))
        self.pairs.clear()
        self.charts.clear()


def test_verify_paper_differentiates_each_entry_once_per_table(monkeypatch):
    verify_paper(RunConfig(seed=3))
    recorder = DerivativeRecorder(monkeypatch)
    verify_paper(RunConfig(seed=3))
    assert len(recorder.pairs) > 300 and len(recorder.charts) > 20
    recorder.check()


def test_spec_commands_differentiate_each_entry_once_per_table(monkeypatch, spec_dir, capsys):
    recorder = DerivativeRecorder(monkeypatch)
    for spec in sorted(spec_dir.glob("*.json")):
        product = isinstance(load_spec(str(spec)), LoadedProduct)
        for command in (("twist", "flatness") if product else ("check", "conjugate", "curvature")):
            main([command, str(spec)])
            assert recorder.pairs, (command, spec.name)
            recorder.check()
    capsys.readouterr()


def test_a_chart_differentiates_each_entry_once_for_all_its_jets(monkeypatch):
    # the zero entries and the mirror pair are single objects across g, dg, d2g, d3g
    recorder = DerivativeRecorder(monkeypatch)
    M = ManifoldSpec.from_strings("probe", ("x", "y", "z"), [(0.5, 1.0)] * 3,
                                  [["1 + x^2", "x*y", "0"], ["x*y", "2 + sin(z)", "0"],
                                   ["0", "0", "exp(y)"]])
    M._metric_d1, M._metric_d2, M._metric_d3_classes
    assert len({table for table, _, _ in recorder.pairs}) == 1
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
    classes, index = M._metric_d3_classes
    for n in range(len(x)):
        env = dict(zip(coords, x[n]))
        for kernel, exprs in ((M.metric_at, M.metric),
                              (M.metric_derivatives_at, M._metric_d1),
                              (M.metric_second_derivatives_at, M._metric_d2),
                              (M.metric_third_derivatives_at,
                               [[[classes[index[i, j, k]] for k in range(2)] for j in range(2)]
                                for i in range(2)])):
            want = np.vectorize(lambda e: evaluate(e, env), otypes=[float])(
                np.array(exprs, dtype=object))
            assert _bits(kernel(x)[n]) == _bits(want)
