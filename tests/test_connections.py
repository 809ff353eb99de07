import gc
import math
import weakref

import numpy as np
import pytest

from dualgeo.connections import (ConnectionField, conjugate, cubic_form_at, dgamma_fd_defect,
                                 duality_residual, explicit_connection, involution_defect,
                                 is_statistical, levi_civita, torsion_at,
                                 torsion_relation_residual)
from dualgeo import fixtures as fx
from dualgeo.geometry import ManifoldSpec
from dualgeo.products import _max_abs

from oracles import koszul_fd_christoffel


@pytest.fixture(scope="module")
def pair_c(euclid1):
    c = explicit_connection(euclid1, {(0, 0, 0): "0.7"})
    return c, conjugate(c, euclid1)


class TestLeviCivita:
    def test_euclidean_vanishes(self, euclid2):
        lc = levi_civita(euclid2)
        assert np.allclose(lc.gamma_at([0.3, -0.2]), 0.0)

    def test_sphere_value(self, sphere):
        x = [math.pi / 4, 1.0]
        gam = levi_civita(sphere).gamma_at(x)
        assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-14)
        assert np.allclose(gam, koszul_fd_christoffel(sphere, x), atol=1e-8)

    def test_hyperbolic_value(self, hyperbolic):
        x = [0.1, 2.0]
        gam = levi_civita(hyperbolic).gamma_at(x)
        assert gam[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(gam, koszul_fd_christoffel(hyperbolic, x), atol=1e-8)

    def test_symmetric_lower_indices(self, fisher):
        gam = levi_civita(fisher).gamma_at([0.2, 1.4])
        assert np.allclose(gam, np.transpose(gam, (0, 2, 1)))

    def test_metric_compatibility(self, sphere):
        lc = levi_civita(sphere)
        for pt in sphere.sample_array(16, 3):
            assert np.max(np.abs(cubic_form_at(sphere, lc, pt))) < 1e-12

    def test_dgamma_matches_fd(self):
        for M in fx.Fixtures().manifolds:
            assert dgamma_fd_defect(levi_civita(M), samples=6, seed=11) < 1e-5

    def test_connection_suite_uses_the_charts_own(self):
        for M in fx.Fixtures().manifolds:
            assert fx.connection_suite(M)[0][1] is M.levi_civita_connection


class TestConjugate:
    def test_levi_civita_self_conjugate(self):
        for M in fx.Fixtures().manifolds:
            lc = levi_civita(M)
            lc_star = conjugate(lc, M)
            for pt in M.sample_array(16, 5):
                assert np.max(np.abs(lc.gamma_at(pt) - lc_star.gamma_at(pt))) < 1e-12

    def test_constant_negates_on_line(self, euclid1, pair_c):
        c, cstar = pair_c
        assert cstar.gamma_at([0.2])[0, 0, 0] == pytest.approx(-0.7)

    def test_involution(self):
        for M in fx.Fixtures().manifolds:
            for _, C in fx.connection_suite(M):
                double = conjugate(conjugate(C, M), M)
                for pt in M.sample_array(64, 42):
                    assert np.max(np.abs(double.gamma_at(pt) - C.gamma_at(pt))) < 1e-10

    def test_conjugate_satisfies_duality(self):
        for M in fx.Fixtures().manifolds:
            for _, C in fx.connection_suite(M):
                Cstar = conjugate(C, M)
                for pt in M.sample_array(64, 42):
                    assert duality_residual(M, C, Cstar, pt) < 1e-10

    def test_dgamma_of_conjugate_matches_fd(self, fisher):
        C = explicit_connection(fisher, {(0, 0, 0): "m", (1, 1, 1): "s^2"})
        assert dgamma_fd_defect(conjugate(C, fisher), samples=6, seed=2) < 1e-5

    def test_dgamma_of_explicit_matches_fd(self, fisher):
        C = explicit_connection(fisher, {(0, 0, 0): "sin(m)*s", (1, 1, 0): "m^2"})
        assert dgamma_fd_defect(C, samples=6, seed=4) < 1e-5


class TestKeptConjugate:
    def test_the_conjugate_is_kept_while_it_lives(self, euclid2):
        C = explicit_connection(euclid2, {(0, 0, 0): "0.3", (1, 0, 1): "0.2*y"})
        Cstar = conjugate(C)
        assert conjugate(C) is Cstar and conjugate(C, euclid2) is Cstar
        first = weakref.ref(Cstar)
        del Cstar
        assert first() is None  # C holds its conjugate weakly
        again = conjugate(C)
        assert conjugate(C) is again and again.provenance == "conjugate-of"

    def test_a_conjugate_on_another_chart_is_new_on_every_call(self, euclid2):
        C = explicit_connection(euclid2, {(0, 0, 0): "0.3", (1, 0, 1): "0.2*y"})
        kept = conjugate(C)
        other = ManifoldSpec(euclid2.name, euclid2.coords, euclid2.domain, euclid2.metric)
        first, second = conjugate(C, other), conjugate(C, other)
        assert first is not second and kept is not first and kept is not second
        assert first.manifold is other and conjugate(C) is kept
        x = euclid2.sample_array(4, 3)
        assert first.gamma_at(x).tobytes() == kept.gamma_at(x).tobytes()
        assert first.dgamma_at(x).tobytes() == kept.dgamma_at(x).tobytes()

    def test_keeping_adds_no_reference_cycle(self, euclid2):
        gc.disable()
        try:
            C = explicit_connection(euclid2, {(0, 0, 0): "0.3", (1, 0, 1): "0.2*y"})
            Cstar = conjugate(C)
            x = euclid2.sample_array(4, 3)
            Cstar.dgamma_at(x)
            cubic_form_at(euclid2, Cstar, x)  # fills both connections' streams
            refs = weakref.ref(C), weakref.ref(Cstar)
            del C, Cstar
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestNoSilentNan:
    def _nan_at_one_entry(self, M):
        def gamma(x):
            out = np.zeros(np.shape(x)[:-1] + (M.dim,) * 3)
            out[..., 1, 0, 1] = np.nan
            return out
        return ConnectionField(M, "explicit", gamma, lambda x: np.zeros(np.shape(x)[:-1]
                                                                         + (M.dim,) * 4))

    def test_max_abs(self):
        a = np.zeros((3, 2, 2))
        a[1, 0, 1] = np.nan
        assert math.isnan(_max_abs(a))

    def test_dgamma_fd_defect(self, euclid2):
        # the supplied dGamma is NaN along the second coordinate only
        def dgamma(x):
            out = np.zeros(np.shape(x)[:-1] + (2,) * 4)
            out[..., 1, 0, 0, 0] = np.nan
            return out
        C = ConnectionField(euclid2, "explicit", lambda x: np.zeros(np.shape(x)[:-1] + (2,) * 3),
                            dgamma)
        assert math.isnan(dgamma_fd_defect(C, samples=4, seed=1))

    def test_duality_residual_and_involution_defect(self, euclid2):
        C, flat = self._nan_at_one_entry(euclid2), levi_civita(euclid2)
        x = euclid2.sample_array(5, 1)
        assert math.isnan(duality_residual(euclid2, C, flat, x))
        assert math.isnan(duality_residual(euclid2, flat, C, x))
        assert math.isnan(involution_defect(euclid2, C, flat, x))
        assert math.isnan(involution_defect(euclid2, flat, C, x))


class TestDualityResidual:
    def test_metric_pair_on_sphere(self, sphere):
        lc = levi_civita(sphere)
        for pt in sphere.sample_array(8, 7):
            assert duality_residual(sphere, lc, lc, pt) < 1e-10

    def test_hand_constructed_pair(self, euclid1, pair_c):
        c, cstar = pair_c
        assert duality_residual(euclid1, c, cstar, [0.5]) < 1e-12

    def test_non_conjugate_pair_measured(self, euclid1):
        c = explicit_connection(euclid1, {(0, 0, 0): "0.7"})
        assert duality_residual(euclid1, c, c, [0.5]) == pytest.approx(1.4)


class TestTorsion:
    def test_levi_civita_torsion_free(self, sphere, hyperbolic):
        for M in (sphere, hyperbolic):
            lc = levi_civita(M)
            for pt in M.sample_array(8, 1):
                assert np.allclose(torsion_at(lc, pt), 0.0)

    def test_definition(self, euclid2):
        C = explicit_connection(euclid2, {(0, 0, 1): "1"})
        T = torsion_at(C, [0.0, 0.0])
        assert T[0, 0, 1] == 1.0
        assert T[0, 1, 0] == -1.0

    def test_symmetric_connection_torsion_free(self, euclid2):
        C = explicit_connection(euclid2, {(0, 0, 1): "0.3", (0, 1, 0): "0.3"})
        assert np.allclose(torsion_at(C, [0.1, 0.1]), 0.0)


class TestCubicForm:
    def test_constant_gamma_on_line(self, euclid1):
        C = explicit_connection(euclid1, {(0, 0, 0): "0.7"})
        cub = cubic_form_at(euclid1, C, [0.0])
        assert cub[0, 0, 0] == pytest.approx(-1.4)

    def test_sign_flip_under_conjugation(self):
        for M in fx.Fixtures().manifolds:
            for _, C in fx.connection_suite(M):
                Cstar = conjugate(C, M)
                for pt in M.sample_array(64, 42):
                    total = cubic_form_at(M, C, pt) + cubic_form_at(M, Cstar, pt)
                    assert np.max(np.abs(total)) < 1e-10

    def test_symmetric_in_last_pair(self, fisher):
        C = explicit_connection(fisher, {(0, 0, 1): "m*s"})
        cub = cubic_form_at(fisher, C, [0.4, 1.2])
        assert np.allclose(cub, np.transpose(cub, (0, 2, 1)))


class TestTorsionRelation:
    def test_metric_pair_random_vectors(self, sphere):
        lc = levi_civita(sphere)
        for pt in sphere.sample_array(8, 4):
            assert torsion_relation_residual(sphere.metric_at(pt), torsion_at(lc, pt),
                                             torsion_at(lc, pt),
                                             cubic_form_at(sphere, lc, pt)) < 1e-10

    def test_torsionful_pair(self, euclid2):
        C = explicit_connection(euclid2, {(0, 0, 1): "1", (1, 0, 0): "x"})
        Cstar = conjugate(C, euclid2)
        for pt in euclid2.sample_array(16, 8):
            assert torsion_relation_residual(euclid2.metric_at(pt), torsion_at(C, pt),
                                             torsion_at(Cstar, pt),
                                             cubic_form_at(euclid2, Cstar, pt)) < 1e-10

    def test_non_conjugate_pair_fails(self, euclid1):
        C = explicit_connection(euclid1, {(0, 0, 0): "0.7"})
        # needs a torsion mismatch to show: use a 2d example with torsion
        M = fx.euclidean(2)
        C = explicit_connection(M, {(0, 0, 1): "1"})
        pt = [0.0, 0.0]
        res = torsion_relation_residual(M.metric_at(pt), torsion_at(C, pt), torsion_at(C, pt),
                                        cubic_form_at(M, C, pt))
        assert res > 0.1


class TestStatistical:
    def test_sphere_metric_pair(self, sphere):
        verdict = is_statistical(sphere, levi_civita(sphere), samples=32)
        assert verdict.is_statistical

    def test_torsionful_rejected(self, euclid2):
        C = explicit_connection(euclid2, {(0, 0, 1): "1"})
        verdict = is_statistical(euclid2, C, samples=8)
        assert not verdict.is_statistical
        assert verdict.max_torsion > 0.5

    def test_asymmetric_cubic_rejected(self, euclid2):
        C = explicit_connection(euclid2, {(1, 0, 1): "0.2", (1, 1, 0): "0.2"})
        verdict = is_statistical(euclid2, C, samples=8)
        assert not verdict.is_statistical
        assert verdict.max_torsion < 1e-15
        assert verdict.max_cubic_asymmetry > 0.1

    def test_conjugate_of_statistical_is_statistical(self, euclid2):
        C = explicit_connection(
            euclid2, {(0, 0, 0): "0.3", (0, 1, 1): "0.2", (1, 0, 1): "0.2",
                      (1, 1, 0): "0.2"})
        assert is_statistical(euclid2, C, samples=16).is_statistical
        assert is_statistical(euclid2, conjugate(C, euclid2), samples=16).is_statistical


def test_explicit_connection_index_validation(euclid2):
    with pytest.raises(ValueError):
        explicit_connection(euclid2, {(2, 0, 0): "1"})
