import math
from collections import Counter

import numpy as np
import pytest

from dualgeo.connections import conjugate, explicit_connection, levi_civita
from dualgeo.curvature import (FLAT_TOL, DegeneratePlaneError, DimensionError,
                               curvature_duality_residual, curvature_report,
                               first_bianchi_defect, is_constant_sectional,
                               orthonormal_frame_at, ricci_at, ricci_contraction,
                               riemann_at, scalar_at, sectional_at, weyl_at, weyl_trace_defect)
from dualgeo import curvature, fixtures as fx
from dualgeo.geometry import ManifoldSpec
from dualgeo.report import jsonable

from oracles import gram_schmidt_frame, ricci_frame_oracle, riemann_fd, scalar_frame_oracle


def _max_abs_riemann(M, C):
    """max |R^l_ijk| of C over 16 samples of M; C is flat where this is below FLAT_TOL."""
    return float(np.abs(riemann_at(C, M.sample_array(16, 42))).max())


def _ricci_operator(M, C, p):
    """Q = g^-1 Ric, so that g(QX, Y) = Ric(X, Y)."""
    return M.inverse_metric_at(p) @ ricci_at(M, C, p)


class TestRiemann:
    def test_euclidean_flat(self, euclid2):
        assert np.allclose(riemann_at(levi_civita(euclid2), [0.1, 0.2]), 0.0)

    def test_sphere_sectional_contraction(self, sphere):
        x = [math.pi / 3, 1.0]
        lc = levi_civita(sphere)
        R = riemann_at(lc, x)
        g = sphere.metric_at(x)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0 / math.sin(math.pi / 3)])
        val = np.einsum("lijk,i,j,k,lm,m->", R, e1, e2, e2, g, e1)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(R, riemann_fd(lc, x), atol=1e-6)

    def test_hyperbolic_contraction(self, hyperbolic):
        x = [0.0, 1.5]
        lc = levi_civita(hyperbolic)
        R = riemann_at(lc, x)
        g = hyperbolic.metric_at(x)
        e1 = np.array([1.5, 0.0])
        e2 = np.array([0.0, 1.5])
        val = np.einsum("lijk,i,j,k,lm,m->", R, e1, e2, e2, g, e1)
        assert val == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(R, riemann_fd(lc, x), atol=1e-6)

    def test_antisymmetry_exact(self, fisher):
        C = explicit_connection(fisher, {(0, 0, 1): "m", (1, 1, 1): "s"})
        R = riemann_at(C, [0.3, 1.2])
        assert np.array_equal(R, -np.einsum("ljik->lijk", R))

    def test_first_bianchi_levi_civita(self):
        for M in fx.Fixtures().manifolds:
            lc = levi_civita(M)
            for pt in M.sample_array(8, 2):
                assert first_bianchi_defect(riemann_at(lc, pt)) < 1e-9

    def test_first_bianchi_defect_of_violating_tensor(self):
        R = np.zeros((3, 3, 3, 3))
        R[0, 0, 1, 2] = 1.0  # the cyclic sum at (X, Y, Z) = (d0, d1, d2) is d0
        assert first_bianchi_defect(R) == 1.0
        R[0, 1, 2, 0] = R[0, 2, 0, 1] = 1.0  # all three cyclic terms add up
        assert first_bianchi_defect(R) == 3.0


class TestCurvatureDuality:
    def test_metric_pair_on_sphere(self, sphere):
        lc = levi_civita(sphere)
        for pt in sphere.sample_array(8, 0):
            R = riemann_at(lc, pt)
            assert curvature_duality_residual(sphere.metric_at(pt), R, R) < 1e-8

    def test_explicit_pair_on_fisher(self, fisher):
        C = explicit_connection(fisher, {(0, 0, 0): "0.5*m", (1, 0, 1): "s"})
        Cstar = conjugate(C, fisher)
        for pt in fisher.sample_array(16, 1):
            assert curvature_duality_residual(fisher.metric_at(pt), riemann_at(C, pt),
                                              riemann_at(Cstar, pt)) < 1e-8

    def test_flat_iff_dual_flat(self, euclid2, sphere):
        flat = explicit_connection(euclid2, {})
        assert _max_abs_riemann(euclid2, flat) < FLAT_TOL
        assert _max_abs_riemann(euclid2, conjugate(flat, euclid2)) < FLAT_TOL
        lc = levi_civita(sphere)
        assert not _max_abs_riemann(sphere, lc) < FLAT_TOL
        assert not _max_abs_riemann(sphere, conjugate(lc, sphere)) < FLAT_TOL


class TestRicci:
    def test_euclidean_zero(self, euclid3):
        assert np.allclose(ricci_at(euclid3, levi_civita(euclid3), [0, 0, 0]), 0.0)

    def test_sphere_einstein(self, sphere):
        lc = levi_civita(sphere)
        for pt in sphere.sample_array(6, 3):
            ric = ricci_at(sphere, lc, pt)
            assert np.max(np.abs(ric - sphere.metric_at(pt))) < 1e-8
            assert np.allclose(ric, ricci_frame_oracle(sphere, lc, pt), atol=1e-5)

    def test_hyperbolic_einstein(self, hyperbolic):
        lc = levi_civita(hyperbolic)
        for pt in hyperbolic.sample_array(6, 3):
            ric = ricci_at(hyperbolic, lc, pt)
            assert np.max(np.abs(ric + hyperbolic.metric_at(pt))) < 1e-8

    def test_frame_equals_contraction_for_any_connection(self, fisher):
        C = explicit_connection(fisher, {(0, 1, 0): "m*s", (1, 0, 0): "1"})
        for pt in fisher.sample_array(6, 5):
            assert np.allclose(ricci_at(fisher, C, pt), ricci_contraction(riemann_at(C, pt)),
                               atol=1e-10)

    def test_orthonormal_frame(self, fisher):
        for pt in fisher.sample_array(6, 6):
            g = fisher.metric_at(pt)
            E = orthonormal_frame_at(fisher, pt)
            assert np.allclose(E @ g @ E.T, np.eye(2), atol=1e-13)
            assert np.allclose(E, gram_schmidt_frame(g), atol=1e-13)

    @pytest.mark.parametrize("metric, points", [
        ([["1", "2"], ["2", "1"]], [0.5, 0.5]),  # indefinite
        ([["0", "0"], ["0", "1"]], [0.5, 0.5]),  # semidefinite
        ([["1", "x"], ["x", "1"]], [[0.5, 0.5], [2.0, 0.5], [0.25, 0.5]]),  # one point indefinite
    ], ids=["indefinite", "semidefinite", "batch"])
    def test_frame_of_a_metric_not_positive_definite_raises(self, metric, points):
        M = ManifoldSpec.from_strings("not-spd", ("x", "y"), [(0.0, 3.0)] * 2, metric)
        message = "metric not positive definite while orthonormalizing"
        with pytest.raises(ArithmeticError, match=message):
            orthonormal_frame_at(M, points)
        with pytest.raises(ArithmeticError, match=message):
            curvature._frame(M.metric_at(points))


class TestScalar:
    def test_classical_values(self, sphere, hyperbolic, euclid3):
        assert scalar_at(sphere, levi_civita(sphere), [1.1, 0.4]) == pytest.approx(2.0, abs=1e-10)
        assert scalar_at(hyperbolic, levi_civita(hyperbolic), [0.2, 1.0]) == pytest.approx(-2.0, abs=1e-10)
        assert scalar_at(euclid3, levi_civita(euclid3), [0, 0, 0]) == 0.0

    def test_matches_frame_oracle(self, sphere):
        lc = levi_civita(sphere)
        x = np.array([0.9, 1.2])
        assert scalar_at(sphere, lc, x) == pytest.approx(scalar_frame_oracle(sphere, lc, x),
                                                         abs=1e-5)

    def test_matches_metric_contraction(self):
        for M in fx.Fixtures().manifolds:
            lc = levi_civita(M)
            for pt in M.sample_array(4, 7):
                ric = ricci_at(M, lc, pt)
                via_trace = float(np.einsum("jk,jk->", M.inverse_metric_at(pt), ric))
                assert scalar_at(M, lc, pt) == pytest.approx(via_trace, abs=1e-10)


class TestRicciOperator:
    """Ric = lambda g on the space forms, read through Q = g^-1 Ric."""

    def test_euclidean(self, euclid2):
        assert np.allclose(_ricci_operator(euclid2, levi_civita(euclid2), [0, 0]), 0.0)

    def test_sphere_identity(self, sphere):
        Q = _ricci_operator(sphere, levi_civita(sphere), [1.0, 0.5])
        assert np.allclose(Q, np.eye(2), atol=1e-10)

    def test_hyperbolic_negative_identity(self, hyperbolic):
        Q = _ricci_operator(hyperbolic, levi_civita(hyperbolic), [0.0, 2.0])
        assert np.allclose(Q, -np.eye(2), atol=1e-10)


class TestWeyl:
    def test_flat_four_space(self, euclid4):
        W = weyl_at(euclid4, levi_civita(euclid4), [0, 0, 0, 0])
        assert np.allclose(W, 0.0)

    def test_three_dimensions_vanish(self, standard_twists):
        P = standard_twists["warped-sphere-fiber"]
        M = P.manifold
        for pt in M.sample_array(4, 2):
            assert np.max(np.abs(weyl_at(M, P.chart_levi_civita, pt))) < 1e-8

    def test_dimension_error(self, sphere):
        with pytest.raises(DimensionError):
            weyl_at(sphere, levi_civita(sphere), [1.0, 1.0])

    def test_trace_free(self, euclid3, standard_twists):
        P = standard_twists["hyperbolic-4d"]
        M = P.manifold
        for pt in M.sample_array(3, 4):
            assert weyl_trace_defect(M.metric_at(pt), M.inverse_metric_at(pt),
                                     weyl_at(M, P.chart_levi_civita, pt)) < 1e-8
        origin = [0, 0, 0]
        assert weyl_trace_defect(euclid3.metric_at(origin), euclid3.inverse_metric_at(origin),
                                 weyl_at(euclid3, levi_civita(euclid3), origin)) < 1e-12

    def test_trace_defect_of_violating_tensors(self):
        g = np.diag([4.0, 2.0, 1.0])
        ginv = np.diag([0.25, 0.5, 1.0])
        W = np.zeros((3, 3, 3, 3))
        W[0, 0, 1, 0] = 1.0  # plain trace over (l, i)
        assert weyl_trace_defect(g, ginv, W) == 1.0
        W = np.zeros((3, 3, 3, 3))
        W[1, 0, 0, 2] = 1.0  # no plain trace; g^{ij} W_lijk = 0.25 * 2 = 0.5
        assert weyl_trace_defect(g, ginv, W) == 0.5

    def test_variant_differs_when_ricci_nonzero(self, standard_twists):
        P = standard_twists["hyperbolic-4d"]
        pt = P.manifold.sample_array(1, 5)[0]
        std = weyl_at(P.manifold, P.chart_levi_civita, pt, "standard")
        printed = weyl_at(P.manifold, P.chart_levi_civita, pt, "as-printed")
        assert np.max(np.abs(std - printed)) > 0.1

    def test_unknown_variant_rejected(self, euclid3):
        with pytest.raises(ValueError):
            weyl_at(euclid3, levi_civita(euclid3), [0, 0, 0], variant="other")


class TestSectional:
    def test_classical_values(self, sphere, hyperbolic, fisher):
        assert sectional_at(sphere, [1.0, 1.0], [1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-10)
        assert sectional_at(hyperbolic, [0.1, 1.5], [1, 0], [0, 1]) == pytest.approx(-1.0, abs=1e-10)
        assert sectional_at(fisher, [0.0, 1.0], [1, 0], [0, 1]) == pytest.approx(-0.5, abs=1e-10)

    def test_plane_dependence_only(self, fisher):
        rng = np.random.default_rng(12)
        x = [0.2, 1.3]
        base = sectional_at(fisher, x, [1, 0], [0, 1])
        for _ in range(10):
            A = rng.uniform(-1, 1, (2, 2))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            X = A[0, 0] * np.array([1.0, 0.0]) + A[0, 1] * np.array([0.0, 1.0])
            Y = A[1, 0] * np.array([1.0, 0.0]) + A[1, 1] * np.array([0.0, 1.0])
            assert sectional_at(fisher, x, X, Y) == pytest.approx(base, abs=1e-9)

    def test_plane_per_point(self):
        # two points of a 2-D chart, each with its own plane: K at each point
        # equals the point's own value
        M = fx.bumpy_sphere2()
        x = M.sample_array(2, 5)
        X, Y = np.array([[1.0, 0.3], [0.2, 1.0]]), np.array([[-0.4, 1.0], [1.0, 0.5]])
        got = sectional_at(M, x, X, Y)
        assert got.shape == (2,)
        for i in range(2):
            assert got[i] == pytest.approx(sectional_at(M, x[i], X[i], Y[i]), abs=1e-12)

    def test_degenerate_plane(self, sphere):
        with pytest.raises(DegeneratePlaneError):
            sectional_at(sphere, [1.0, 1.0], [1, 0], [2, 0])


class TestBatchOfPoints:
    """Frame-based quantities over a batch are the stack of their per-point values."""

    @pytest.mark.parametrize("call", [
        lambda M, C, p: orthonormal_frame_at(M, p),
        lambda M, C, p: ricci_at(M, C, p),
        lambda M, C, p: scalar_at(M, C, p),
        lambda M, C, p: weyl_at(M, C, p),
        lambda M, C, p: curvature_report(M, C, p).weyl,
        lambda M, C, p: sectional_at(M, p, [1, 0, 0], [0, 1, 0]),
    ], ids=["frame", "ricci", "scalar", "weyl", "report", "sectional"])
    def test_batch_is_the_stack(self, call, standard_twists):
        M = standard_twists["warped-sphere-fiber"].manifold
        C = conjugate(levi_civita(M), M)
        X = M.sample_array(3, 1)  # N == d: a broadcast over the wrong axis would not fail
        batch = np.asarray(call(M, C, X))
        stacked = np.array([call(M, C, x) for x in X])
        assert batch.shape == stacked.shape
        assert np.max(np.abs(batch - stacked)) <= 1e-14 * (1.0 + np.max(np.abs(stacked)))


class TestOneBuildPerBatch:
    """Gamma, dGamma, R and the frame of a point or batch are each built once."""

    @pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
    def test_each_provider_runs_once(self, monkeypatch, batch):
        M = dict(fx.standard_twists())["twisted-4d"].manifold
        X = M.sample_array(5, 13)
        x = X if batch else X[0]
        builds = Counter()

        def counted(name, fn):
            def call(*args):
                builds[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(curvature, "_frame", counted("frame", curvature._frame))
        monkeypatch.setattr(curvature, "_riemann", counted("R", curvature._riemann))
        E = explicit_connection(M, {(0, 0, 0): "0.3", (1, 0, 1): "0.2*x", (2, 3, 1): "x*u"})
        conns = {"levi-civita": levi_civita(M), "explicit": E, "conjugate": conjugate(E, M)}
        for name, C in conns.items():
            C._gamma = counted(f"{name} gamma", C._gamma)
            C._dgamma = counted(f"{name} dgamma", C._dgamma)
        for C in conns.values():
            riemann_at(C, x)
            ricci_at(M, C, x)
            scalar_at(M, C, x)
            weyl_at(M, C, x)
            curvature_report(M, C, x)
        assert builds == Counter({"frame": 1, "R": len(conns),
                                  **{f"{name} {kind}": 1 for name in conns
                                     for kind in ("gamma", "dgamma")}})


class TestFlatness:
    def test_euclidean_flat(self, euclid3):
        assert _max_abs_riemann(euclid3, levi_civita(euclid3)) < 1e-15

    def test_sphere_not_flat(self, sphere):
        worst = _max_abs_riemann(sphere, levi_civita(sphere))
        assert not worst < FLAT_TOL
        assert worst == pytest.approx(1.0, rel=0.1)

    def test_one_dimensional_always_flat(self, euclid1):
        C = explicit_connection(euclid1, {(0, 0, 0): "sin(x)"})
        assert _max_abs_riemann(euclid1, C) < FLAT_TOL


class TestNoSilentNan:
    """A NaN in any part a residual reduces over, not only the first, makes it NaN."""

    def test_weyl_trace_defect(self):
        W = np.zeros((3, 3, 3, 3))
        W[0, 1, 2, 0] = np.nan  # in the third contraction, not the first two
        assert math.isnan(weyl_trace_defect(np.eye(3), np.eye(3), W))

    def test_constant_sectional_deviation(self, monkeypatch):
        # the tensor deviation is NaN while the spread of kappa stays finite
        monkeypatch.setattr(curvature, "riemann_at",
                            lambda C, x: np.full(np.shape(x)[:-1] + (2,) * 4, np.nan))
        result = is_constant_sectional(fx.sphere2(), samples=4)
        assert math.isnan(result.max_deviation) and not result.constant


class TestConstantSectional:
    def test_sphere(self, sphere):
        result = is_constant_sectional(sphere, samples=16)
        assert result.constant and result.kappa == pytest.approx(1.0, abs=1e-9)

    def test_fisher(self, fisher):
        result = is_constant_sectional(fisher, samples=16)
        assert result.constant and result.kappa == pytest.approx(-0.5, abs=1e-9)

    def test_bumpy_sphere_not_constant(self):
        result = is_constant_sectional(fx.bumpy_sphere2(), samples=16)
        assert not result.constant
        assert result.max_deviation > 1e-3

    def test_dimension_guard(self, euclid1):
        with pytest.raises(DimensionError):
            is_constant_sectional(euclid1)


class TestReport:
    def test_sphere_report(self, sphere):
        rep = curvature_report(sphere, levi_civita(sphere), [math.pi / 3, 1.0])
        assert rep.scalar == pytest.approx(2.0, abs=1e-10)
        assert rep.weyl is None
        assert not rep.flat_at_point
        payload = jsonable(rep)
        assert payload["scalar"] == rep.scalar
        assert payload["weyl"] is None

    def test_flat_report_with_weyl(self, euclid3):
        rep = curvature_report(euclid3, levi_civita(euclid3), [0, 0, 0])
        assert rep.flat_at_point
        assert rep.weyl is not None
