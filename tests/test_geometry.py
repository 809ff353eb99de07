import math

import numpy as np
import pytest

from dualgeo.exprlang import DomainError, evaluate, parse
from dualgeo.geometry import (GeometryError, ManifoldSpec, Point, SingularMetricError,
                              TangentVector, validate_metric)
from dualgeo import fixtures as fx

from oracles import fd1


class TestMetricAt:
    def test_euclidean_identity(self, euclid2):
        for pt in euclid2.sample_points(5, 1):
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
            for pt in M.sample_points(64, 42):
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

    def test_kernels_compile_on_first_evaluation(self):
        M = ManifoldSpec.from_strings("lazy", ("a", "b"), [(-1, 1), (-1, 1)],
                                      [["2 + a*b", "0"], ["0", "exp(a)"]])
        kernels = ("_metric_kernel", "_metric_d1_kernel", "_metric_d2_kernel")
        assert not any(k in vars(M) for k in kernels)
        x = [0.3, -0.4]
        M.metric_second_derivatives_at(x)
        assert [k in vars(M) for k in kernels] == [False, False, True]
        env = {"a": 0.3, "b": -0.4}
        expected = [[[[evaluate(M._metric_d2[i][j][k][l], env) for l in range(2)]
                      for k in range(2)] for j in range(2)] for i in range(2)]
        assert M.metric_second_derivatives_at(x).tobytes() == np.array(expected).tobytes()


class TestGradient:
    def test_coordinate_function_euclidean(self, euclid2):
        grad = euclid2.gradient_at(parse("x", euclid2.coords), [0.3, 0.4])
        assert np.allclose(grad.components, [1.0, 0.0])

    def test_sphere_azimuth(self, sphere):
        grad = sphere.gradient_at(parse("ph", sphere.coords), [math.pi / 4, 1.0])
        assert np.allclose(grad.components, [0.0, 2.0], atol=1e-13)

    def test_constant(self, hyperbolic):
        grad = hyperbolic.gradient_at(parse("3.5", hyperbolic.coords), [0.1, 1.0])
        assert np.allclose(grad.components, 0.0)

    def test_duality_with_directional_derivative(self, fisher):
        # g(grad f, e_i) = d_i f for every coordinate direction
        from dualgeo.exprlang import differentiate
        f = parse("m^2*s + sin(s)", fisher.coords)
        for pt in fisher.sample_points(10, 3):
            g = fisher.metric_at(pt)
            grad = fisher.gradient_at(f, pt).components
            for i, coord in enumerate(fisher.coords):
                exact = evaluate(differentiate(f, coord), fisher.env(pt.coords))
                assert float(np.eye(fisher.dim)[i] @ g @ grad) == pytest.approx(
                    exact, abs=1e-10)
                fd = fd1(lambda z: evaluate(f, fisher.env(z)), pt.coords, i)
                assert float(fd) == pytest.approx(exact, abs=1e-8)


class TestSamplePoints:
    def test_deterministic(self, euclid2):
        a = euclid2.sample_points(3, 42)
        b = euclid2.sample_points(3, 42)
        assert all(np.array_equal(p.coords, q.coords) for p, q in zip(a, b))

    def test_different_seeds_differ(self, euclid2):
        a = euclid2.sample_points(3, 1)
        b = euclid2.sample_points(3, 2)
        assert not all(np.array_equal(p.coords, q.coords) for p, q in zip(a, b))

    def test_interior_margin(self, sphere):
        for pt in sphere.sample_points(200, 9):
            for x, (lo, hi) in zip(pt.coords, sphere.domain):
                margin = 0.05 * (hi - lo)
                assert lo + margin <= x <= hi - margin

    def test_single_point(self, hyperbolic):
        (pt,) = hyperbolic.sample_points(1, 5)
        assert hyperbolic.contains(pt.coords)

    def test_zero_points_rejected(self, euclid2):
        with pytest.raises(GeometryError):
            euclid2.sample_points(0, 1)


class TestValidation:
    def test_fixtures_spd(self):
        for M in fx.standard_manifolds():
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
            Point(sphere, np.array([0.0, 1.0]))

    def test_vector_shape_checked(self, sphere):
        pt = sphere.point([1.0, 1.0])
        with pytest.raises(GeometryError):
            TangentVector(pt, np.array([1.0, 2.0, 3.0]))

    def test_vector_finite_checked(self, sphere):
        pt = sphere.point([1.0, 1.0])
        with pytest.raises(GeometryError):
            TangentVector(pt, np.array([np.nan, 0.0]))

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
