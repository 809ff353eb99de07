import functools
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dualgeo.connections import _lowered, conjugate, explicit_connection, levi_civita
from dualgeo import curvature
from dualgeo.curvature import (_frame, orthonormal_frame_at, riemann_at, riemann_derivative_at,
                               sectional_at)
from dualgeo.exprlang import DomainError, differentiate, evaluate, parse
from dualgeo.geometry import GeometryError, ManifoldSpec, SingularMetricError, validate_metric
from dualgeo import exprlang, fixtures as fx

from oracles import fd1


class TestMetricAt:
    def test_euclidean_identity(self, euclid2):
        for pt in euclid2.sample_array(5, 1):
            assert np.allclose(euclid2.metric_at(pt), np.eye(2))

    def test_sphere_equator(self, sphere):
        g = sphere.metric_at([math.pi / 2, 1.0])
        assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-15)

    def test_hyperbolic(self, hyperbolic):
        g = hyperbolic.metric_at([0.3, 2.0])
        assert np.allclose(g, np.diag([0.25, 0.25]))


class TestInverseMetric:
    def test_identity(self, euclid2):
        assert np.allclose(euclid2.inverse_metric_at([0.1, 0.2]), np.eye(2))

    def test_diagonal(self):
        M = ManifoldSpec.from_strings("halfdiag", ("a", "b"), [(-1, 1), (-1, 1)],
                                      [["1", "0"], ["0", "0.5"]])
        assert np.allclose(M.inverse_metric_at([0, 0]), np.diag([1.0, 2.0]))

    def test_sphere(self, sphere):
        ginv = sphere.inverse_metric_at([math.pi / 4, 1.0])
        assert np.allclose(ginv, np.diag([1.0, 2.0]), atol=1e-14)

    def test_product_is_identity_on_fixtures(self, sphere, hyperbolic, fisher):
        for M in (sphere, hyperbolic, fisher):
            for pt in M.sample_array(64, 42):
                g, ginv = M.metric_at(pt), M.inverse_metric_at(pt)
                assert np.max(np.abs(g @ ginv - np.eye(M.dim))) < 1e-12

    def test_near_singular_rejected(self):
        M = ManifoldSpec.from_strings("thin", ("a", "b"), [(-1, 1), (-1, 1)],
                                      [["1", "0"], ["0", "1e-14"]])
        with pytest.raises(SingularMetricError):
            M.inverse_metric_at([0.0, 0.0])


class TestMetricDerivatives:
    def test_euclidean_zero(self, euclid3):
        assert np.allclose(euclid3.metric_derivatives_at([0.1, 0.2, 0.3]), 0.0)

    def test_sphere_value_and_fd(self, sphere):
        x = [math.pi / 4, 1.0]
        dg = sphere.metric_derivatives_at(x)
        assert dg[0, 1, 1] == pytest.approx(1.0, abs=1e-12)  # 2 sin cos at pi/4
        fd = fd1(sphere.metric_at, x, 0)
        assert np.allclose(dg[0], fd, atol=1e-8)

    def test_hyperbolic_value_and_fd(self, hyperbolic):
        x = [0.0, 2.0]
        dg = hyperbolic.metric_derivatives_at(x)
        assert dg[1, 0, 0] == pytest.approx(-0.25, abs=1e-14)  # -2/y^3 at y=2
        fd = fd1(hyperbolic.metric_at, x, 1)
        assert np.allclose(dg[1], fd, atol=1e-8)

    def test_symmetry_in_last_two(self, fisher):
        dg = fisher.metric_derivatives_at([0.2, 1.1])
        assert np.allclose(dg, np.transpose(dg, (0, 2, 1)))

    def test_second_derivatives_fd(self, sphere):
        x = np.array([1.1, 0.7])
        d2 = sphere.metric_second_derivatives_at(x)
        fd = fd1(sphere.metric_derivatives_at, x, 0)
        assert np.allclose(d2[0], fd, atol=1e-7)

    def test_kernels_compile_on_first_evaluation(self, empty_tables):
        # a chart whose metric the process has not seen: an empty kernel table
        table = empty_tables.kernels
        M = ManifoldSpec.from_strings("lazy", ("a", "b"), [(-1, 1), (-1, 1)],
                                      [["2 + a*b", "0"], ["0", "exp(a)"]])
        kernels = ("kernel", "d1_kernel", "d2_kernel", "d3_kernel")
        assert not any(k in vars(M._jets) for k in kernels)
        assert table.cache_info().currsize == 0
        x = [0.3, -0.4]
        M.metric_second_derivatives_at(x)
        assert [k in vars(M._jets) for k in kernels] == [False, False, True, False]
        assert table.cache_info().currsize == 1
        env = {"a": 0.3, "b": -0.4}
        expected = [evaluate(e, env) for e in M._jets.d2]  # row-major over (i, j, k, l)
        assert M.metric_second_derivatives_at(x).tobytes() == np.array(expected).tobytes()

    def test_higher_derivatives_are_built_per_index_class(self, monkeypatch):
        M = dict(fx.standard_twists())["twisted-4d"].manifold
        d = M.dim
        tables = []  # the coordinate of each derivative table built
        build = exprlang.derivative_table
        monkeypatch.setattr(exprlang, "derivative_table",
                            lambda exprs, c: tables.append(c) or build(exprs, c))
        jets = exprlang._Jets(M._jets.exprs, M._jets.shape, M.coords)
        assert len(jets.d1) == d * d * d and len(tables) == d
        # at each order, one derivative table is built per sorted index tuple, and every
        # permutation's block is, object for object, the block of its sorted tuple
        for order in (2, 3):
            tables.clear()
            table = getattr(jets, f"d{order}")
            assert len(tables) == math.comb(d + order - 1, order)
            assert len(table) == d ** order * d * d
            tuples = list(itertools.product(range(d), repeat=order))
            blocks = {t: jets.block(table, n) for n, t in enumerate(tuples)}
            assert all(a is b for t in tuples
                       for a, b in zip(blocks[t], blocks[tuple(sorted(t))], strict=True))
            distinct = {tuple(map(id, block)) for block in blocks.values()}
            assert len(distinct) <= math.comb(d + order - 1, order)
        # block (j, i) of d2 holds the entry objects of block (i, j): each class is
        # differentiated once
        assert all(a is b for i in range(d) for j in range(d)
                   for a, b in zip(jets.block(jets.d2, i * d + j), jets.block(jets.d2, j * d + i),
                                   strict=True))
        x = M.sample_array(3, 2)
        d3g = M.metric_third_derivatives_at(x)
        assert d3g.shape == (3,) + (d,) * 5
        for perm in itertools.permutations(range(1, 4)):
            assert d3g.tobytes() == d3g.transpose((0,) + perm + (4, 5)).tobytes()
        env = dict(zip(M.coords, x[1].tolist()))
        for i, j, k in itertools.product(range(d), repeat=3):
            expected = [evaluate(differentiate(e, M.coords[k]), env)
                        for e in jets.block(jets.d2, i * d + j)]
            assert np.allclose(d3g[1, i, j, k].ravel(), expected, rtol=1e-13, atol=1e-13)


def _accessors(M):
    return (M.metric_at, M.inverse_metric_at, M.metric_derivatives_at,
            M.metric_second_derivatives_at, M.metric_third_derivatives_at)


def _kernel_values(M, x):
    """The five accessors' arrays at x, evaluated without the manifold's cache."""
    jets = M._jets
    g = jets.kernel(x)
    return g, np.linalg.inv(g), jets.d1_kernel(x), jets.d2_kernel(x), jets.d3_kernel(x)


def _connections(M):
    """Levi-Civita, an explicit connection and its conjugate, built afresh on M."""
    C = explicit_connection(M, {(0, 0, 0): "0.3", (1, 0, 1): "0.2*x", (2, 3, 1): "x*u"})
    return levi_civita(M), C, conjugate(C, M)


def _connection_accessors(conns):
    """gamma_at, dgamma_at and riemann_at of each connection, as one-argument calls."""
    return [f for C in conns for f in (C.gamma_at, C.dgamma_at, functools.partial(riemann_at, C))]


class TestLastBatchCache:
    @pytest.fixture
    def twisted4(self):
        return dict(fx.standard_twists())["twisted-4d"].manifold

    def test_memory_stays_bounded(self, twisted4):
        X = twisted4.sample_array(2001, 11)
        calls = _accessors(twisted4) + tuple(_connection_accessors(_connections(twisted4)))
        for f in calls:
            f(X[0])  # compiles the kernels
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for x in X[1:]:
                for f in calls:
                    f(x)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20

    def test_sectional_calls_leave_a_fixed_set_of_kinds(self, twisted4, monkeypatch):
        # every call uses the chart's one Levi-Civita connection, whose arrays
        # are cached on it, not on the chart, so R is built once per point
        builds = []
        build = curvature._riemann
        monkeypatch.setattr(curvature, "_riemann", lambda *a: builds.append(1) or build(*a))
        x = twisted4.sample_array(1, 7)[0]
        X, Y = np.eye(4)[0], np.eye(4)[2]
        for _ in range(1000):
            sectional_at(twisted4, x, X, Y)
        [(key, arrays)] = twisted4._last_batch  # one stream: the point
        assert key == (x.shape, x.tobytes())
        assert set(arrays) == {"g", "ginv", "dg", "d2g", "dginv"}
        assert len(builds) == 1

    def test_cached_arrays_are_read_only(self):
        P = dict(fx.standard_twists())["twisted-4d"]
        M = P.manifold
        conns = _connections(M)
        reads = {
            "g": M.metric_at, "ginv": M.inverse_metric_at, "dg": M.metric_derivatives_at,
            "d2g": M.metric_second_derivatives_at, "d3g": M.metric_third_derivatives_at,
            "dginv": M.inverse_metric_derivatives_at,
            "frame": functools.partial(orthonormal_frame_at, M),
            "twist": lambda z: P.twist_data_at(z)[1],
        }
        for C in conns:
            reads.update({f"{C.provenance} {f.__name__}": f for f in (C.gamma_at, C.dgamma_at)})
            reads[f"{C.provenance} R"] = functools.partial(riemann_at, C)
            reads[f"{C.provenance} lowered"] = functools.partial(_lowered, M, C)
        lc = conns[0]
        reads.update({"levi-civita d2gamma_at": lc.d2gamma_at,
                      "levi-civita dR": functools.partial(riemann_derivative_at, lc)})
        X = M.sample_array(3, 5)
        for x in (X, X[0]):
            for kind, read in reads.items():
                before = read(x).copy()
                got = read(x)
                with pytest.raises(ValueError, match="read-only"):
                    got *= 2
                with pytest.raises(ValueError, match="read-only"):
                    got[(0,) * got.ndim] = 5.0
                assert read(x).tobytes() == before.tobytes(), kind
            # every kind cached by the chart and the connections was read, on the newest stream
            assert set(M._last_batch[0][1]) == {"g", "ginv", "dg", "d2g", "d3g", "dginv", "frame",
                                                "twist"}
            assert set(lc._last_batch[0][1]) == {"gamma", "dgamma", "R", "lowered", "d2gamma", "dR"}
            assert all(set(C._last_batch[0][1]) == {"gamma", "dgamma", "R", "lowered"}
                       for C in conns[1:])

    def test_interleaved_points_and_batches(self):
        P = dict(fx.standard_twists())["twisted-4d"]
        M = P.manifold
        conns = _connection_accessors(_connections(M))
        X = M.sample_array(6, 3)
        inputs = [X[0], X[:4], X[1], X[2:], X[0], X[:4], X[:1], X[0]]
        for x in inputs + inputs[::-1]:
            for f, want in zip(_accessors(M), _kernel_values(M, x)):
                assert f(x).tobytes() == want.tobytes()
            assert orthonormal_frame_at(M, x).tobytes() == _frame(M._jets.kernel(x)).tobytes()
            for f, fresh in zip(conns, _connection_accessors(_connections(M))):
                assert f(x).tobytes() == fresh(x).tobytes()
            # the twist kind shares the product chart's cache
            b, k1, k2 = P.twist_data_at(x)
            got = np.concatenate([np.asarray(b)[..., None], k1, k2.reshape(x.shape[:-1] + (-1,))],
                                 axis=-1)
            assert got.tobytes() == P._twist_data_kernel(x).tobytes()

    def test_concurrent_callers_get_their_own_batch(self, twisted4):
        batches = [twisted4.sample_array(n, seed) for seed, n in enumerate((3, 3, 5, 8))]
        expected = [_kernel_values(twisted4, X) for X in batches]
        shared = _connections(twisted4)[2]
        expected_R = [riemann_at(_connections(twisted4)[2], X) for X in batches]

        def worker(t):
            mine, other = batches[t], batches[(t + 1) % len(batches)]
            for i in range(500):
                twisted4.metric_at(other)
                for f, want in zip(_accessors(twisted4), expected[t]):
                    if f(mine).tobytes() != want.tobytes():
                        return False
                if i % 5 == 0:  # R of the shared connection, on every fifth round
                    riemann_at(shared, other)
                    if riemann_at(shared, mine).tobytes() != expected_R[t].tobytes():
                        return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert all(pool.map(worker, range(4)))
        finally:
            sys.setswitchinterval(interval)


class TestGradient:
    def test_coordinate_function_euclidean(self, euclid2):
        grad = euclid2.gradient_at(parse("x", euclid2.coords), [0.3, 0.4])
        assert np.allclose(grad, [1.0, 0.0])

    def test_sphere_azimuth(self, sphere):
        grad = sphere.gradient_at(parse("ph", sphere.coords), [math.pi / 4, 1.0])
        assert np.allclose(grad, [0.0, 2.0], atol=1e-13)

    def test_constant(self, hyperbolic):
        grad = hyperbolic.gradient_at(parse("3.5", hyperbolic.coords), [0.1, 1.0])
        assert np.allclose(grad, 0.0)

    def test_point_is_checked(self, fisher):
        f = parse("m^2*s", fisher.coords)
        with pytest.raises(GeometryError, match=r"point has \(3, 2\) coordinates, expected 2"):
            fisher.gradient_at(f, fisher.sample_array(3, 1))
        with pytest.raises(GeometryError, match="outside domain of 'fisher-normal'"):
            fisher.gradient_at(f, [0.0, -1.0])

    def test_duality_with_directional_derivative(self, fisher):
        # g(grad f, e_i) = d_i f for every coordinate direction
        from dualgeo.exprlang import differentiate
        f = parse("m^2*s + sin(s)", fisher.coords)
        def env(z):
            return dict(zip(fisher.coords, np.asarray(z).tolist()))

        for pt in fisher.sample_array(10, 3):
            g = fisher.metric_at(pt)
            grad = fisher.gradient_at(f, pt)
            for i, coord in enumerate(fisher.coords):
                exact = evaluate(differentiate(f, coord), env(pt))
                assert float(np.eye(fisher.dim)[i] @ g @ grad) == pytest.approx(
                    exact, abs=1e-10)
                fd = fd1(lambda z: evaluate(f, env(z)), pt, i)
                assert float(fd) == pytest.approx(exact, abs=1e-8)


class TestSamplePoints:
    def test_deterministic(self, euclid2):
        a = euclid2.sample_array(3, 42)
        b = euclid2.sample_array(3, 42)
        assert all(np.array_equal(p, q) for p, q in zip(a, b))

    def test_different_seeds_differ(self, euclid2):
        a = euclid2.sample_array(3, 1)
        b = euclid2.sample_array(3, 2)
        assert not all(np.array_equal(p, q) for p, q in zip(a, b))

    def test_interior_margin(self, sphere):
        for pt in sphere.sample_array(200, 9):
            for x, (lo, hi) in zip(pt, sphere.domain):
                margin = 0.05 * (hi - lo)
                assert lo + margin <= x <= hi - margin

    def test_single_point(self, hyperbolic):
        (pt,) = hyperbolic.sample_array(1, 5)
        assert np.array_equal(hyperbolic.point(pt), pt)  # inside the box

    def test_zero_points_rejected(self, euclid2):
        with pytest.raises(GeometryError):
            euclid2.sample_array(0, 1)


class TestContains:
    """``ManifoldSpec.point`` takes the points of the closed box and refuses every other."""

    def test_point_in_the_closed_box(self, euclid2):
        assert euclid2.point([1.0, -1.0]).tolist() == [1.0, -1.0]
        with pytest.raises(GeometryError, match="outside domain of 'euclidean2'"):
            euclid2.point(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 99.0], [[0.5], [0.5]], 0.5])
    def test_wrong_dimension_is_outside(self, euclid2, x):
        with pytest.raises(GeometryError, match="coordinates, expected 2"):
            euclid2.point(x)

    def test_nan_is_outside(self, euclid2):
        with pytest.raises(GeometryError, match="outside domain"):
            euclid2.point([np.nan, 0.0])


class TestValidation:
    def test_fixtures_spd(self):
        for M in fx.Fixtures().manifolds:
            validate_metric(M, samples=64, seed=42)

    def test_asymmetric_rejected(self):
        M = ManifoldSpec.from_strings("bad", ("a", "b"), [(-1, 1), (-1, 1)],
                                      [["1", "0.1"], ["0", "1"]])
        with pytest.raises(GeometryError, match="asymmetric"):
            validate_metric(M)

    def test_indefinite_rejected(self):
        M = ManifoldSpec.from_strings("lorentz", ("a", "b"), [(-1, 1), (-1, 1)],
                                      [["-1", "0"], ["0", "1"]])
        with pytest.raises(GeometryError, match="positive definite"):
            validate_metric(M)

    def test_point_outside_domain(self, sphere):
        with pytest.raises(GeometryError):
            sphere.point(np.array([0.0, 1.0]))

    def test_point_is_a_checked_float_array(self, sphere):
        x = sphere.point([1, 2])
        assert x.dtype == float and x.tolist() == [1.0, 2.0]
        assert sphere.center().tolist() == [(0.3 + 2.8) / 2, 1.5]
        with pytest.raises(GeometryError, match=r"point has \(3,\) coordinates, expected 2"):
            sphere.point([1.0, 1.0, 1.0])
        with pytest.raises(GeometryError, match=r"point \[nan, 1.0\] outside domain of 'sphere2'"):
            sphere.point([np.nan, 1.0])

    def test_metric_shape_checked(self):
        with pytest.raises(GeometryError):
            ManifoldSpec.from_strings("short", ("a", "b"), [(-1, 1), (-1, 1)], [["1"]])

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(GeometryError):
            ManifoldSpec.from_strings("dup", ("a", "a"), [(-1, 1), (-1, 1)],
                                      [["1", "0"], ["0", "1"]])

    def test_expression_domain_error_surfaces(self):
        M = ManifoldSpec.from_strings("logm", ("a",), [(-2.0, -1.0)], [["log(a)"]])
        with pytest.raises(DomainError):
            M.metric_at([-1.5])
