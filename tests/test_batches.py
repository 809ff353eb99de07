"""A batch of points (N, d) gives the stack of the per-point results.

The per-point calls are the reference.  Metric arrays, the inverse metric,
the orthonormal frame and the coefficients of Levi-Civita, explicit and
block-assembled connections must match bitwise.  Quantities that contract
arrays on the batch path (conjugate coefficients, curvature, Ricci, scalar,
Weyl, sectional curvature, cubic form, the Hessian of log b) must match to
1e-14 (1 + max|.|).  The product block reports must match their per-point
oracles in ``oracles.py``.

A batch of ``exprlang._COLUMN_ROWS`` rows or more is evaluated by columns;
the suite's report is byte for byte the one that one kernel call per point
gives.

Batches of one seed are row-prefixes of one draw, and each chart and
connection reads them from one sample stream: every cached array read on
a prefix must equal, bitwise, what a fresh object builds on that prefix.
"""

import collections
import contextlib
import functools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualgeo import curvature, dualistic, exprlang, fixtures as fx, geometry
from dualgeo import numdiff
from dualgeo.cli import main
from dualgeo.connections import (_lowered, conjugate, cubic_form_at,
                                 dgamma_fd_defect, explicit_connection, levi_civita, torsion_at,
                                 torsion_relation_residual)
from dualgeo.curvature import (curvature_duality_residual, curvature_report,
                               is_constant_sectional, orthonormal_frame_at, ricci_at,
                               riemann_at, riemann_derivative_at, scalar_at,
                               sectional_at, weyl_at, weyl_derivative_at)
from dualgeo.dualistic import lemma_dual_block_report
from dualgeo.exprlang import DomainError, evaluate, parse
from dualgeo.geometry import GeometryError, ManifoldSpec, SingularMetricError, validate_metric
from dualgeo.products import (ProductSpec, block_connection, hessian_at, mixed_ricci_table,
                              mixed_weyl_report, ricci_base_block_residual, riemann_block_residuals,
                              twisted_product, weyl_parallel_defect)
from dualgeo.report import RunConfig
from dualgeo.verify import verify_paper

import oracles

_MANIFOLDS = fx.Fixtures().manifolds
_TWISTS = dict(fx.standard_twists())
_SUITE = fx.Fixtures().suite(16, 42)


def _dense_charts():
    """Charts whose metric has no zero entry, so every sum in the frame is rounded."""
    def entry(i, j, names):
        a, b = names[i], names[j]
        if i == j:
            return f"2.5 + 0.4*sin({a} + 0.5*{b})" if i % 2 else f"2.5 + 0.3*{a}^2"
        return f"0.2*cos({a}*{b} + {i + j})" if (i + j) % 2 else f"0.15*{a}*{b} + 0.1"
    charts = []
    for names in (("x", "y", "z"), ("x", "y", "z", "w")):
        d = len(names)
        metric = [[entry(min(i, j), max(i, j), names) for j in range(d)] for i in range(d)]
        charts.append(ManifoldSpec.from_strings(f"dense{d}", names, [(-1, 1)] * d, metric))
    return charts


_DENSE = _dense_charts()


def _connections():
    """(manifold, connection) for every provenance on the fixtures and the dense charts."""
    out = []
    for M in _MANIFOLDS + _DENSE:
        for _, C in fx.connection_suite(M):
            out.append((M, C))
            out.append((M, conjugate(C, M)))
    for entry in _SUITE:
        st_ = entry["structure"]
        out.append((st_.manifold, st_.primal))
        out.append((st_.manifold, st_.dual))
    return out


_CONNECTIONS = _connections()
_CHARTS = _MANIFOLDS + _DENSE + [P.manifold for P in _TWISTS.values()]
_BITWISE = ("levi-civita", "explicit", "induced-product")


def _subset(M: ManifoldSpec, seed: int, picks: list[int]) -> np.ndarray:
    """Rows of a seeded sample set, in the drawn order (repeats allowed)."""
    return M.sample_array(16, seed)[picks]


def _stack(f, X: np.ndarray) -> np.ndarray:
    return np.stack([f(x) for x in X])


def _assert_close(batch: np.ndarray, stacked: np.ndarray) -> None:
    assert batch.shape == stacked.shape
    scale = 1.0 + float(np.max(np.abs(stacked)))
    assert float(np.max(np.abs(batch - stacked))) <= 1e-14 * scale


_picks = st.lists(st.integers(0, 15), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CHARTS), st.integers(0, 2**16), _picks)
def test_metric_arrays_stack_bitwise(M, seed, picks):
    X = _subset(M, seed, picks)
    for f in (M.metric_at, M.inverse_metric_at, M.metric_derivatives_at,
              M.metric_second_derivatives_at, M.metric_third_derivatives_at):
        batch = f(X)
        assert batch.shape == (len(picks),) + f(X[0]).shape
        assert batch.tobytes() == _stack(f, X).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CONNECTIONS), st.integers(0, 2**16), _picks)
def test_connection_arrays_stack(pair, seed, picks):
    M, C = pair
    X = _subset(M, seed, picks)
    if C.provenance in _BITWISE:
        for f in (C.gamma_at, C.dgamma_at, lambda x: torsion_at(C, x)):
            assert f(X).tobytes() == _stack(f, X).tobytes()
    else:
        _assert_close(C.gamma_at(X), _stack(C.gamma_at, X))
        _assert_close(C.dgamma_at(X), _stack(C.dgamma_at, X))
        _assert_close(torsion_at(C, X), _stack(lambda x: torsion_at(C, x), X))
    _assert_close(riemann_at(C, X), _stack(lambda x: riemann_at(C, x), X))
    _assert_close(cubic_form_at(M, C, X), _stack(lambda x: cubic_form_at(M, C, x), X))
    if C.provenance == "levi-civita":
        assert C.d2gamma_at(X).tobytes() == _stack(C.d2gamma_at, X).tobytes()
        _assert_close(riemann_derivative_at(C, X),
                      _stack(lambda x: riemann_derivative_at(C, x), X))
        if M.dim >= 3:
            _assert_close(weyl_derivative_at(M, C, X),
                          _stack(lambda x: weyl_derivative_at(M, C, x), X))


def test_memo_keeps_point_and_batch_apart(sphere):
    x = sphere.sample_array(1, 5)[0]
    batch = x[None, :]
    assert x.tobytes() == batch.tobytes()
    for order in ((x, batch), (batch, x)):
        M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
        for p in order:
            assert M.metric_at(p).shape == p.shape + (2,)
            assert M.inverse_metric_at(p).shape == p.shape + (2,)
            assert M.metric_derivatives_at(p).shape == p.shape + (2, 2)
            assert M.metric_second_derivatives_at(p).shape == p.shape + (2, 2, 2)


def _fresh(spec):
    """A new chart (and product) built from ``spec``, with a stream-free draw cache.

    Its connections are the chart's Levi-Civita connection, an explicit
    connection and that connection's conjugate.
    """
    if isinstance(spec, ProductSpec):
        P = twisted_product(spec.base, spec.fiber, spec.twist)
        M = P.manifold
    else:
        P, M = None, ManifoldSpec(spec.name, spec.coords, spec.domain, spec.metric)
    last = M.coords[-1]
    C = explicit_connection(M, {(0, 0, 0): "0.3", (M.dim - 1, 0, M.dim - 1): f"0.2*{last}"})
    return M, P, {"levi-civita": M.levi_civita_connection, "explicit": C,
                  "conjugate": conjugate(C, M)}


def _stream_reads(M, P, conns) -> dict:
    """One read per kind cached on a sample stream, by kind and owner."""
    reads = {"g": M.metric_at, "ginv": M.inverse_metric_at, "dg": M.metric_derivatives_at,
             "d2g": M.metric_second_derivatives_at, "d3g": M.metric_third_derivatives_at,
             "dginv": M.inverse_metric_derivatives_at,
             "frame": functools.partial(orthonormal_frame_at, M)}
    if P is not None:
        reads.update({"twist": P.twist_data_at})
    for name, C in conns.items():
        reads.update({f"{name} gamma": C.gamma_at, f"{name} dgamma": C.dgamma_at,
                      f"{name} R": functools.partial(riemann_at, C),
                      f"{name} lowered": functools.partial(_lowered, M, C)})
    lc = conns["levi-civita"]
    reads.update({"levi-civita d2gamma": lc.d2gamma_at,
                  "levi-civita dR": functools.partial(riemann_derivative_at, lc)})
    return reads


def _exact(value) -> tuple:
    """Shapes and bytes of an array or of a tuple of arrays."""
    parts = value if isinstance(value, tuple) else (value,)
    return tuple((np.shape(a), np.asarray(a).tobytes()) for a in parts)


@contextlib.contextmanager
def _counted_builds():
    """The (owner, kind) of every build made through a chart's or a connection's cache.

    ``geometry.one_batch`` is wrapped in each module namespace that holds it.
    """
    builds, original = [], geometry.one_batch

    def wrapped(owner, kind, x, build):
        def counted(z):
            builds.append((id(owner), kind))
            return build(z)
        return original(owner, kind, x, counted)

    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dualgeo")
                    and getattr(module, "one_batch", None) is original):
                mp.setattr(module, "one_batch", wrapped)
        yield builds


_STREAM_CHARTS = _MANIFOLDS + _DENSE + list(_TWISTS.values())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_STREAM_CHARTS), st.integers(0, 2**16), st.integers(1, 20),
       st.integers(1, 20), st.booleans())
@example(_TWISTS["twisted-4d"], 3, 12, 32, True)
@example(_TWISTS["twisted-4d"], 3, 12, 32, False)
def test_prefix_reads_equal_fresh_builds(spec, seed, a, b, long_first):
    # n <= N rows of one seed, asked for in both orders: every kind reads the
    # bytes a fresh object builds; a prefix read builds nothing, and a read
    # that extends the stream builds each kind once, on all its rows
    n, N = sorted((a, b))
    sizes = (N, n) if long_first else (n, N)
    objects = _fresh(spec)
    reads = _stream_reads(*objects)
    M = objects[0]
    for i, size in enumerate(sizes):
        x = M.sample_array(size, seed)
        fresh_chart = ManifoldSpec(M.name, M.coords, M.domain, M.metric)
        assert x.tobytes() == fresh_chart.sample_array(size, seed).tobytes()
        with _counted_builds() as builds:
            got = {kind: _exact(read(x)) for kind, read in reads.items()}
        prefix = i == 1 and size <= sizes[0]
        assert len(builds) == (0 if prefix else len(reads))
        assert len(set(builds)) == len(builds)
        want = {kind: _exact(read(x)) for kind, read in _stream_reads(*_fresh(spec)).items()}
        assert got == want


def test_sample_array_hands_out_copies(sphere):
    M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    x = M.sample_array(6, 4)
    want = x.copy()
    x[:] = 0.0
    fresh = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    assert M.sample_array(3, 4).tobytes() == fresh.sample_array(3, 4).tobytes()
    assert M.sample_array(6, 4).tobytes() == want.tobytes()
    assert M.sample_array(6, 5).tobytes() == fresh.sample_array(6, 5).tobytes()


def _fresh_draw(M, n, seed):
    lo, hi = np.array(M.domain).T
    margin = 0.05 * (hi - lo)
    return np.random.default_rng(seed).uniform(lo + margin, hi - margin, size=(n, M.dim))


@pytest.mark.parametrize("sizes", [(3, 8, 5), (8, 3, 8), (5, 5, 12)])
def test_a_draw_equals_a_fresh_draw_after_any_earlier_one(empty_draws, sphere, sizes):
    # the charts of one box share its draws: each size is asked by another chart
    # than the one before, after a smaller or a larger draw of the box and seed
    charts = [ManifoldSpec(f"{sphere.name}{i}", sphere.coords, sphere.domain, sphere.metric)
              for i in range(len(sizes))]
    for M, n in zip(charts, sizes):
        for seed in (4, 5):
            assert M.sample_array(n, seed).tobytes() == _fresh_draw(M, n, seed).tobytes()
    assert {key: len(draw) for key, draw in empty_draws.items()} == {
        (sphere.domain, 4): max(sizes), (sphere.domain, 5): max(sizes)}


def test_the_draw_table_stays_within_its_bound(empty_draws):
    bound = geometry._DRAWS_KEPT
    charts = [ManifoldSpec(f"m{n}", ("x",), [(0.0, n + 1.0)], [[parse("1", ("x",))]])
              for n in range(bound + 20)]
    for M in charts:
        assert M.sample_array(2, 0).tobytes() == _fresh_draw(M, 2, 0).tobytes()
        assert len(empty_draws) <= bound
    # the oldest draws are dropped first, and a dropped box draws again
    assert list(empty_draws) == [(M.domain, 0) for M in charts[20:]]
    assert charts[0].sample_array(3, 0).tobytes() == _fresh_draw(charts[0], 3, 0).tobytes()
    assert list(empty_draws) == [(M.domain, 0) for M in charts[21:] + charts[:1]]


def _key(x) -> tuple:
    return x.shape, x.tobytes()


def test_stream_key_is_the_longest_batch(sphere):
    # _last_batch holds the streams newest first, each ((shape, bytes), {kind: array});
    # a stream's key is the longest batch of a run of row-prefixes read longest
    # first, and a single point starts a new stream
    M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    X = M.sample_array(5, 9)
    for rows in (3, 5, 2, 4):
        M.metric_at(X[:rows])
    (key, arrays), (prefix_key, _) = M._last_batch
    assert key == _key(X) and prefix_key == _key(X[:3])
    assert set(arrays) == {"g"} and arrays["g"].shape == (5, 2, 2)
    assert M.metric_at(X[:2]).base is arrays["g"]
    M.metric_at(X[0])
    key, arrays = M._last_batch[0]
    assert key == _key(X[0])
    assert set(arrays) == {"g"} and arrays["g"].shape == (2, 2)
    assert [key for key, _ in M._last_batch[1:]] == [_key(X), _key(X[:3])]


def test_extension_starts_a_new_stream(sphere):
    M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    X = M.sample_array(8, 2)
    M.inverse_metric_at(X[:4])
    M.metric_derivatives_at(X[:4])
    with _counted_builds() as builds:
        M.metric_at(X)  # extends the stream: a new stream, g built on all 8 rows
        assert M._last_batch[0][0] == _key(X)
        assert set(M._last_batch[0][1]) == {"g"}
        M.inverse_metric_at(X)  # g^-1 holds 4 rows, on the prefix's stream: built on all 8
    assert [kind for _, kind in builds] == ["g", "ginv"]
    assert [(key, set(arrays)) for key, arrays in M._last_batch] == [
        (_key(X), {"g", "ginv"}), (_key(X[:4]), {"g", "ginv", "dg"})]


def test_a_prefix_read_after_an_extension_is_served_by_the_prefix_stream(sphere):
    # the extension's stream is the newest that X[:4] begins, and it holds no
    # g^-1 or dg: the older stream of the prefix holds both, and serves them
    M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    X = M.sample_array(8, 2)
    kept = M.inverse_metric_at(X[:4]), M.metric_derivatives_at(X[:4])
    M.metric_at(X)
    with _counted_builds() as builds:
        again = M.inverse_metric_at(X[:4]), M.metric_derivatives_at(X[:4])
        assert M.metric_at(X[:4]).base is M._last_batch[0][1]["g"]  # the newest holds g
    assert builds == []
    assert all(a is b for a, b in zip(again, kept, strict=True))


def test_a_new_stream_drops_the_one_with_fewest_rows(sphere):
    # a large sample set outlives the small streams and the points read after it;
    # among streams of equal rows the oldest goes, and a point has no rows
    M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    assert geometry._STREAMS_KEPT == 3
    big = M.sample_array(64, 1)
    M.metric_at(big)
    small = [M.sample_array(6, seed) for seed in range(2, 10)]
    for x in small:
        M.metric_at(x)
    assert [key for key, _ in M._last_batch] == [_key(small[-1]), _key(small[-2]), _key(big)]
    points = M.sample_array(3, 11)
    M.metric_at(points[0])
    assert [key for key, _ in M._last_batch] == [_key(points[0]), _key(small[-1]), _key(big)]
    for x in points[1:]:
        M.metric_at(x)
    assert [key for key, _ in M._last_batch] == [_key(points[2]), _key(small[-1]), _key(big)]
    with _counted_builds() as builds:
        assert M.metric_at(big[:32]).base is M._last_batch[2][1]["g"]
    assert builds == []
    # only points: the oldest goes
    M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
    points = M.sample_array(5, 12)
    for x in points:
        M.metric_at(x)
    assert [key for key, _ in M._last_batch] == [_key(x) for x in points[:1:-1]]


def test_concurrent_extensions_of_one_prefix_stay_apart():
    # four threads extend one common prefix by different tails: each must
    # read its own rows, never an array built on another thread's tail; a
    # point between rounds restarts the stream at the common prefix
    M = dict(fx.standard_twists())["twisted-4d"].manifold
    common = M.sample_array(4, 0)
    batches = [np.vstack([common, M.sample_array(4, t + 1)]) for t in range(4)]
    reads = (M.metric_at, M.inverse_metric_at, M.metric_derivatives_at)
    fresh = ManifoldSpec(M.name, M.coords, M.domain, M.metric)
    expected = [[f(X).copy() for f in (fresh.metric_at, fresh.inverse_metric_at,
                                       fresh.metric_derivatives_at)] for X in batches]

    def worker(t):
        for _ in range(300):
            M.metric_at(common[0])
            for X in (common, batches[t]):
                for f, want in zip(reads, expected[t]):
                    if f(X).tobytes() != want[:len(X)].tobytes():
                        return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(worker, range(4)))
    finally:
        sys.setswitchinterval(interval)


def test_verify_paper_builds_each_induced_gamma_once(monkeypatch):
    # the suite is validated on its largest batch (induced-duality's 32 points
    # at the run seed), and the run reads each induced pair at 32, 24, 16 and
    # 12 points: all row-prefixes of that one build
    _assert_induced_gammas_built_once(monkeypatch, RunConfig())


def test_induced_gammas_are_built_once_at_another_seed(monkeypatch):
    # the validation is drawn at the run seed, not make_dualistic's 42
    _assert_induced_gammas_built_once(monkeypatch, RunConfig(seed=3, samples=16))


def _assert_induced_gammas_built_once(monkeypatch, config):
    builds = collections.Counter()
    runs = []

    def counted(C, key):
        provider = C._gamma

        def gamma(x):
            builds[key] += 1
            return provider(x)
        C._gamma = gamma
        return C

    def primal(*args):
        D = block_connection(*args)
        return counted(D, (id(D), "primal"))

    class Recorded(fx.Fixtures):
        def suite(self, samples, seed):
            runs.append(super().suite(samples, seed))
            return runs[-1]

    monkeypatch.setattr(fx, "Fixtures", Recorded)
    monkeypatch.setattr(dualistic, "block_connection", primal)
    monkeypatch.setattr(dualistic, "conjugate", lambda C, M=None: (
        counted(conjugate(C, M), (id(C), "dual")) if C.provenance == "induced-product"
        else conjugate(C, M)))
    verify_paper(config)
    [suite] = runs
    assert len(builds) == 2 * len(suite)
    assert builds == {(id(e["structure"].primal), label): 1
                      for e in suite for label in ("primal", "dual")}


@pytest.mark.parametrize("samples", [16, 64, 200])
def test_verify_paper_report_is_the_same_without_columns(monkeypatch, samples):
    config = RunConfig(samples=samples, seed=3)
    by_columns = verify_paper(config).to_json()
    monkeypatch.setattr(exprlang, "_COLUMN_ROWS", math.inf)  # above every batch: one call a point
    assert verify_paper(config).to_json() == by_columns


def test_chart_kinds_of_another_chart_are_not_kept():
    # S and the cubic form are kept on the connection's stream only when taken
    # with the connection's own chart; with another metric they are computed
    M = fx.sphere2()
    big = ManifoldSpec.from_strings("big", M.coords, M.domain, [["4", "0"], ["0", "4*sin(th)^2"]])
    C = explicit_connection(M, {(0, 0, 0): "0.3", (1, 0, 1): "0.2*th"})
    x = M.sample_array(4, 1)
    own_S, own_cubic = scalar_at(M, C, x), cubic_form_at(M, C, x)
    np.testing.assert_allclose(scalar_at(big, C, x), own_S / 4.0, rtol=1e-12)
    np.testing.assert_allclose(cubic_form_at(big, C, x), 4.0 * own_cubic, rtol=1e-12)
    assert scalar_at(M, C, x) is own_S and cubic_form_at(M, C, x) is own_cubic


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def test_singular_row_raises_the_first_point_error():
    M = ManifoldSpec.from_strings("pinched", ("x", "y"), [(-1, 1), (-1, 1)],
                                  [["x^2", "0"], ["0", "1"]])
    X = np.array([[0.5, 0.1], [0.0, 0.2], [0.0, 0.3], [0.4, 0.4]])

    def loop():
        for x in X:
            M.inverse_metric_at(x)

    _, want = _outcome(loop)
    assert want is not None and want[0] is SingularMetricError
    fresh = ManifoldSpec.from_strings("pinched", ("x", "y"), [(-1, 1), (-1, 1)],
                                      [["x^2", "0"], ["0", "1"]])
    _, got = _outcome(lambda: fresh.inverse_metric_at(X))
    assert got == want
    assert "[0.  0.2]" in got[1]
    # the same error when the chart already holds the clean prefix of X
    fresh.inverse_metric_at(X[:1])
    assert _outcome(lambda: fresh.inverse_metric_at(X))[1] == want


def test_singular_check_divides_by_nothing():
    # the condition test compares max|lambda| with 1e12 min|lambda|, so an exactly
    # singular row raises without a divide-by-zero warning, at a point or in a batch
    M = ManifoldSpec.from_strings("pinched", ("x", "y"), [(-1, 1), (-1, 1)],
                                  [["x^2", "0"], ["0", "1"]])
    X = np.array([[0.5, 0.1], [0.0, 0.2], [0.0, 0.3], [0.4, 0.4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, where in ((X[1], "[0.  0.2]"), (X, "[0.  0.2]"), (X[2:], "[0.  0.3]")):
            with pytest.raises(SingularMetricError) as caught:
                M.inverse_metric_at(x)
            assert str(caught.value) == f"metric of 'pinched' is near-singular at {where}"
        assert M.inverse_metric_at(X[[0, 3]]).shape == (2, 2, 2)
        # a metric that is zero at a point has every |lambda| = 0 there
        for zero in (ManifoldSpec.from_strings("pinched1", ("x",), [(-1, 1)], [["x^2"]]),
                     ManifoldSpec.from_strings("pinched1", ("x", "y"), [(-1, 1), (-1, 1)],
                                               [["x^2", "0"], ["0", "y^2"]])):
            origin = np.zeros(zero.dim)
            for x in (zero.center(), np.stack([origin + 0.5, origin, origin + 0.25])):
                with pytest.raises(SingularMetricError) as caught:
                    zero.inverse_metric_at(x)
                assert str(caught.value) == f"metric of 'pinched1' is near-singular at {origin}"


def test_domain_error_past_a_held_prefix_names_the_first_point():
    # the chart holds a prefix that builds cleanly; the batch that extends it
    # fails first at its third row (0.35 - y = -0.05), inside the nested
    # build of g, and must fail as on a fresh chart
    X = np.array([[0.5, 0.1], [0.3, 0.2], [0.0, 0.4], [0.0, 0.5], [0.4, 0.6]])

    def chart():
        return ManifoldSpec.from_strings("rooted", ("x", "y"), [(-1, 1), (-1, 1)],
                                         [["1 + sqrt(0.35 - y)", "0"], ["0", "1"]])

    M = chart()
    held = M.inverse_metric_at(X[:2]).copy()
    _, got = _outcome(lambda: M.inverse_metric_at(X))
    _, want = _outcome(lambda: chart().inverse_metric_at(X))
    assert want is not None and want[0] is DomainError
    assert got == want
    assert "-0.05" in got[1]
    assert M.inverse_metric_at(X[:2]).tobytes() == held.tobytes()


def test_nonfinite_bound_escapes_from_sample_array():
    # a known defect (bench/defects/ledger.json): a NaN box bound reaches the
    # generator, which raises; the ledger entry stays until the loader rejects it
    spec = Path(__file__).parent.parent / "bench" / "defects" / "nonfinite-bound.json"
    with pytest.raises(OverflowError) as err:
        main(["check", str(spec)])
    assert "sample_array" in [entry.name for entry in err.traceback]


def test_batch_residuals_are_the_worst_point(euclid2):
    # a torsionful connection against a perturbed dual: every point has a
    # nonzero l1 residual, so a norm summed over the batch would read larger
    C = explicit_connection(euclid2, {(0, 0, 1): "0.5 + 0.1*x", (1, 1, 1): "0.2*y"})
    Cs = explicit_connection(euclid2, {(0, 1, 0): "0.3", (1, 0, 0): "0.1*x*y"})
    X = euclid2.sample_array(6, 11)

    def residuals(x):
        g = euclid2.metric_at(x)
        return (curvature_duality_residual(g, riemann_at(C, x), riemann_at(Cs, x)),
                torsion_relation_residual(g, torsion_at(C, x), torsion_at(Cs, x),
                                          cubic_form_at(euclid2, Cs, x)))

    per_point = np.array([residuals(x) for x in X])
    assert np.all(per_point > 0.0)
    assert residuals(X) == tuple(per_point.max(axis=0))


def _assert_near_the_textbook_loop(frame: np.ndarray, oracle: np.ndarray) -> None:
    # The inverse Cholesky factor and the Gram-Schmidt loop round differently:
    # at most 1 ulp of max|E| apart over 2,048 samples of each chart here.
    assert frame.shape == oracle.shape
    bound = 4 * np.spacing(np.max(np.abs(oracle), axis=(-2, -1)))
    assert np.all(np.max(np.abs(frame - oracle), axis=(-2, -1)) <= bound)


# N == d == 3: a contraction over the wrong axis would still broadcast
_N_EQ_D = next(pair for pair in _CONNECTIONS
               if pair[0].dim == 3 and pair[1].provenance == "conjugate-of")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CONNECTIONS), st.integers(0, 2**16), _picks)
@example(_N_EQ_D, 1, [0, 1, 2])
def test_frame_layer_stacks(pair, seed, picks):
    M, C = pair
    X = _subset(M, seed, picks)

    def point(f):
        return _stack(lambda x: np.asarray(f(x)), X)

    frame = orthonormal_frame_at(M, X)
    assert frame.tobytes() == point(lambda x: orthonormal_frame_at(M, x)).tobytes()
    textbook = point(lambda x: oracles.gram_schmidt_frame(M.metric_at(x)))
    _assert_near_the_textbook_loop(frame, textbook)
    _assert_close(ricci_at(M, C, X), point(lambda x: ricci_at(M, C, x)))
    _assert_close(scalar_at(M, C, X), point(lambda x: scalar_at(M, C, x)))
    if M.dim >= 2:
        def sectional(x):
            return sectional_at(M, x, frame[0, 0], frame[0, 1])
        _assert_close(sectional(X), point(sectional))
    if M.dim >= 3:
        _assert_close(weyl_at(M, C, X), point(lambda x: weyl_at(M, C, x)))
    # a tolerance inside the range of per-point |R| makes the flat flags differ
    tol = float(np.median(np.max(np.abs(riemann_at(C, X)), axis=(-4, -3, -2, -1))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curvature, "FLAT_AT_POINT_TOL", tol)
        report = curvature_report(M, C, X)
        singles = [curvature_report(M, C, x) for x in X]
    assert report.point.tobytes() == X.tobytes() and report.tolerance == tol
    for field in ("riemann", "ricci", "scalar", "weyl"):
        if getattr(report, field) is not None:
            _assert_close(np.asarray(getattr(report, field)),
                          np.array([getattr(one, field) for one in singles]))
    assert np.asarray(report.flat_at_point).tolist() == [one.flat_at_point for one in singles]


@pytest.mark.parametrize("M", _DENSE, ids=lambda M: M.name)
def test_frame_rounds_like_the_textbook_loop(M):
    # every entry of a dense metric is rounded into each dot product, so the
    # two routes differ here, at round-off only
    X = M.sample_array(32, 0)
    oracle = _stack(lambda x: oracles.gram_schmidt_frame(M.metric_at(x)), X)
    _assert_near_the_textbook_loop(orthonormal_frame_at(M, X), oracle)
    _assert_near_the_textbook_loop(orthonormal_frame_at(M, X[5]), oracle[5])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_TWISTS)), st.integers(0, 2**16), _picks)
def test_hessian_stacks(name, seed, picks):
    P = _TWISTS[name]
    X = _subset(P.manifold, seed, picks)
    batch = hessian_at(P, X)
    singles = [hessian_at(P, x) for x in X]
    for field in ("base_block", "mixed_block", "full", "operator"):
        _assert_close(getattr(batch, field), np.array([getattr(h, field) for h in singles]))


def _probe_twists():
    """Twisted products with a fiber-dependent k outside the standard fixtures.

    The first three are the probes whose fiber-fiber block fails; the last
    has r = s = 2 and a point-dependent XV(k), so the mixed Weyl displays
    are not identically zero.
    """
    line = fx.euclidean(1, ("x",), "line")
    space = fx.euclidean(3, ("u", "v", "w"), "space")
    plane = fx.euclidean(2, ("u", "v"), "plane")
    return {"exp(x*u) over R^3": twisted_product(line, space, "exp(x*u)"),
            "cosh(0.8*x*u) over R^2": twisted_product(line, plane, "cosh(0.8*x*u)"),
            "exp(0.3*u^2+x) over R^2": twisted_product(line, plane, "exp(0.3*u^2+x)"),
            "exp(0.3*x*u+0.2*y*v^2) on R^2 x R^2": twisted_product(
                fx.euclidean(2), plane, "exp(0.3*x*u + 0.2*y*v^2)")}


_REPORT_TWISTS = {**_TWISTS, **_probe_twists()}


def _assert_values_close(batch, per_point):
    assert len(batch) == len(per_point)
    for got, want in zip(batch, per_point):
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want))


@pytest.mark.parametrize("name", sorted(_REPORT_TWISTS))
def test_block_reports_match_per_point_oracles(name):
    # the fiber-fiber residuals of the probe twists are large (a missing term
    # of the block formula); batching must reproduce them, not repair them
    P = _REPORT_TWISTS[name]
    conns = (P.chart_levi_civita, P.base_levi_civita, P.fiber_levi_civita)
    blocks = riemann_block_residuals(P, *conns, samples=7, seed=3)
    oracle = oracles.riemann_block_residuals_per_point(P, *conns, samples=7, seed=3)
    assert list(blocks) == list(oracle)
    _assert_values_close(list(blocks.values()), list(oracle.values()))
    _assert_values_close(list(mixed_ricci_table(P, 7, 3).values()),
                         oracles.mixed_ricci_table_per_point(P, 7, 3))
    _assert_values_close([ricci_base_block_residual(P, 7, 3)],
                         [oracles.ricci_base_block_residual_per_point(P, 7, 3)])
    if P.n >= 3:
        mw = mixed_weyl_report(P, samples=7, seed=3)
        _assert_values_close([mw.display_xyv_residual, mw.display_vwx_residual, mw.cond_xyv_max,
                              mw.cond_vwx_max, mw.mixed_block_max],
                             oracles.mixed_weyl_report_per_point(P, 7, 3))


@pytest.mark.parametrize("entry", _SUITE, ids=[e["name"] for e in _SUITE])
def test_dual_block_report_matches_per_point_oracle(entry):
    induced = entry["structure"]
    report = lemma_dual_block_report(induced, samples=5, seed=8)
    for label, conns in (("primal", (induced.primal, induced.base_structure.primal,
                                     induced.fiber_structure.primal)),
                         ("dual", (induced.dual, induced.base_structure.dual,
                                   induced.fiber_structure.dual))):
        oracle = oracles.riemann_block_residuals_per_point(induced.product, *conns, 5, 8)
        _assert_values_close(list(report[label].values()), list(oracle.values()))


def test_central_diff_takes_a_step_per_point():
    C = levi_civita(fx.sphere2())
    X = C.manifold.sample_array(5, 4)
    h = numdiff.step_for(X[:, 1])
    assert len(set(h.tolist())) > 1  # the steps differ from point to point
    for order in (2, 4):
        batch = numdiff.central_diff(C.gamma_at, X, 1, h, order)
        stacked = _stack(lambda x: numdiff.central_diff(C.gamma_at, x, 1, order=order), X)
        assert batch.tobytes() == stacked.tobytes()


def test_fd_checks_match_their_point_loops():
    # the loops are the checks as they were written one point at a time;
    # weyl_loop is the finite-difference form of the parallel-Weyl check, kept
    # as an independent oracle of the exact one
    def dgamma_loop(C, samples, seed):
        worst = 0.0
        for x in C.manifold.sample_array(samples, seed):
            exact = C.dgamma_at(x)
            for l in range(C.manifold.dim):
                fd = numdiff.central_diff(C.gamma_at, x, l, order=4)
                worst = max(worst, float(np.max(np.abs(exact[l] - fd))))
        return worst

    def weyl_loop(P, samples, seed):
        M, conn = P.manifold, P.chart_levi_civita
        worst = 0.0
        for x in M.sample_array(samples, seed):
            W, gam = weyl_at(M, conn, x), conn.gamma_at(x)
            for q in range(M.dim):
                dW = numdiff.central_diff(lambda z: weyl_at(M, conn, z), x, q, order=4)
                nabla = (dW + np.einsum("lm,mijk->lijk", gam[:, q, :], W)
                         - np.einsum("mi,lmjk->lijk", gam[:, q, :], W)
                         - np.einsum("mj,limk->lijk", gam[:, q, :], W)
                         - np.einsum("mk,lijm->lijk", gam[:, q, :], W))
                worst = max(worst, float(np.max(np.abs(nabla))))
        return worst

    for M in (fx.sphere2(), fx.fisher_normal()):
        C = conjugate(explicit_connection(M, {(0, 0, 1): "0.3"}), M)
        assert dgamma_fd_defect(C, 4, 6) == dgamma_loop(C, 4, 6)
    for name in ("hyperbolic-4d", "twisted-4d"):
        # a 4th-order difference with step 1e-4 is good to about 1e-11 here
        fd = weyl_loop(_TWISTS[name], 2, 6)
        assert abs(weyl_parallel_defect(_TWISTS[name], 2, 6) - fd) <= 1e-9 * (1.0 + fd)


def test_weyl_parallel_defect_matches_its_point_loop():
    def exact_loop(P, samples, seed):
        M, conn = P.manifold, P.chart_levi_civita
        worst = 0.0
        for x in M.sample_array(samples, seed):
            W, gam, dW = weyl_at(M, conn, x), conn.gamma_at(x), weyl_derivative_at(M, conn, x)
            for q in range(M.dim):
                nabla = (dW[q] + np.einsum("lm,mijk->lijk", gam[:, q, :], W)
                         - np.einsum("mi,lmjk->lijk", gam[:, q, :], W)
                         - np.einsum("mj,limk->lijk", gam[:, q, :], W)
                         - np.einsum("mk,lijm->lijk", gam[:, q, :], W))
                worst = max(worst, float(np.max(np.abs(nabla))))
        return worst

    for name in ("direct-4d", "hyperbolic-4d", "twisted-4d"):
        assert weyl_parallel_defect(_TWISTS[name], 4, 6) == exact_loop(_TWISTS[name], 4, 6)


def test_constant_sectional_matches_its_point_loop():
    M = fx.bumpy_sphere2()
    eye = np.eye(2)
    model = np.einsum("ab,cd->abcd", eye, eye) - np.einsum("ac,bd->abcd", eye, eye)
    kappas, tensor_dev = [], 0.0
    for x in M.sample_array(6, 2):
        E = orthonormal_frame_at(M, x)
        lowered = np.einsum("lm,lijk->mijk", M.metric_at(x), riemann_at(levi_civita(M), x))
        framed = np.einsum("mijk,am,bi,cj,dk->abcd", lowered, E, E, E, E)
        kappas.append(scalar_at(M, levi_civita(M), x) / 2.0)
        tensor_dev = max(tensor_dev, float(np.sum(np.abs(framed - kappas[-1] * model))))
    result = is_constant_sectional(M, samples=6, seed=2)
    assert result.kappa == pytest.approx(np.mean(kappas), abs=1e-14)
    spread = float(np.max(np.abs(np.array(kappas) - np.mean(kappas))))
    assert result.max_deviation == pytest.approx(max(spread, tensor_dev), rel=1e-12)


def _error_of(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_validate_metric_names_the_first_failing_sample():
    # asymmetric where y > 0.3, and there also indefinite once the asymmetry
    # is large; not positive definite where x < -0.2
    M = ManifoldSpec.from_strings("patchy", ("x", "y"), [(-1, 1), (-1, 1)],
                                  [["x + 0.2", "2*(y - 0.3 + sqrt((y - 0.3)^2))"], ["0", "1"]])

    def point_loop(samples, seed):
        for x in M.sample_array(samples, seed):
            g = M.metric_at(x)
            asym = float(np.max(np.abs(g - g.T)))
            if asym >= 1e-12:
                raise GeometryError(f"metric of 'patchy' asymmetric by {asym:.3e} at {x.tolist()}")
            smallest = float(np.min(np.linalg.eigvalsh(0.5 * (g + g.T))))
            if smallest <= 1e-10:
                raise GeometryError(f"metric of 'patchy' not positive definite at {x.tolist()} "
                                    f"(smallest eigenvalue {smallest:.3e})")

    kinds = set()
    for seed in range(8):
        want = _error_of(lambda: point_loop(16, seed))
        assert want is not None
        assert _error_of(lambda: validate_metric(M, samples=16, seed=seed)) == want
        kinds.add("asymmetric" in want[1])
    assert kinds == {True, False}  # each check decides some sample set


def test_twist_positivity_names_the_first_failing_sample():
    base, fiber = fx.euclidean(1, ("x",), "line"), fx.euclidean(1, ("u",), "fiber")
    X = twisted_product(base, fiber, "1").manifold.sample_array(32, 7)
    for twist in ("x + 0.3", "0.3 - x*u", "u - x"):
        values = [evaluate(parse(twist, ("x", "u")), {"x": x, "u": u}) for x, u in X]
        first = next(i for i, value in enumerate(values) if value <= 0.0)
        assert first > 0
        with pytest.raises(GeometryError) as err:
            twisted_product(base, fiber, twist)
        assert str(err.value).endswith(f" is not positive at {X[first].tolist()}")
