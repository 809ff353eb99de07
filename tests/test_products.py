import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings

from dualgeo.exprlang import evaluate, free_vars, parse
from dualgeo.geometry import GeometryError
from dualgeo.connections import dgamma_fd_defect, explicit_connection, torsion_at
from dualgeo.curvature import DimensionError, ricci_at, riemann_at
from dualgeo.products import (MIXED_RICCI_SIGN, block_connection, block_gamma, block_levi_civita,
                              block_levi_civita_defect, curvature_block_report,
                              hessian_at, hessian_condition_defect,
                              lift_lemma_residual, mixed_ricci_at, mixed_ricci_table,
                              mixed_weyl_report, product_metric_residual,
                              ricci_base_block_residual,
                              separability_test, to_warped, twisted_product,
                              weyl_parallel_defect)
from dualgeo.report import RunConfig
from dualgeo.verify import CHECKS, CURVATURE_BLOCK_IDS
from dualgeo import fixtures as fx

import oracles
from oracles import riemann_fd
from strategies import twisted_products


def line(name, coord):
    return fx.euclidean(1, (coord,), name)


class TestTwistedProduct:
    def test_direct_tag_and_metric(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "1")
        assert P.classification == "direct"
        assert np.allclose(P.manifold.metric_at([0.2, -0.1]), np.eye(2))

    def test_warped_tag_and_metric(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x)")
        assert P.classification == "warped"
        g = P.manifold.metric_at([0.5, 0.0])
        assert np.allclose(g, np.diag([1.0, math.exp(1.0)]))

    def test_proper_twisted_tag_and_metric(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x*u)")
        assert P.classification == "proper-twisted"
        g = P.manifold.metric_at([0.5, 0.5])
        assert g[1, 1] == pytest.approx(math.exp(0.5))

    def test_constant_twist_is_warped(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "2")
        assert P.classification == "warped"

    def test_name_clash_rejected(self):
        with pytest.raises(GeometryError, match="clash"):
            twisted_product(line("b", "x"), line("f", "x"), "1")

    def test_non_positive_twist_rejected(self):
        with pytest.raises(GeometryError, match="not positive"):
            twisted_product(line("b", "x"), line("f", "u"), "x")

    def test_off_diagonal_blocks_zero(self, standard_twists):
        P = standard_twists["twisted-4d"]
        for pt in P.manifold.sample_array(4, 0):
            g = P.manifold.metric_at(pt)
            assert np.allclose(g[: P.r, P.r:], 0.0)
            assert np.allclose(g[P.r:, : P.r], 0.0)

    def test_fiber_block_scaling(self, standard_twists):
        P = standard_twists["warped-sphere-fiber"]
        x = np.array([0.4, 1.2, 0.9])
        g = P.manifold.metric_at(x)
        gF = P.fiber.metric_at(x[1:])
        assert np.allclose(g[1:, 1:], math.exp(0.8) * gF, atol=1e-13)


class TestLifts:
    """The block oracles' lifts, and ``ProductSpec.split``, which takes them apart."""

    def test_base_lift_padding(self):
        B = fx.euclidean(2, ("x", "y"), "B2")
        P = twisted_product(B, line("f", "u"), "1")
        v = np.array([1.0, 0.0])
        lifted = oracles.pad_base(P, v)
        assert np.allclose(lifted, [1.0, 0.0, 0.0])
        assert np.allclose(P.split(lifted)[0], v)

    def test_fiber_lift_padding(self):
        B = fx.euclidean(2, ("x", "y"), "B2")
        F = line("f", "u")
        P = twisted_product(B, F, "1")
        lifted = oracles.pad_fiber(P, [2.0])
        assert np.allclose(lifted, [0.0, 0.0, 2.0])
        assert np.allclose(P.split(lifted)[1], [2.0])

    @pytest.mark.parametrize("lift, part, width", [("pad_base", 0, 2), ("pad_fiber", 1, 1)])
    def test_a_batch_lift_is_the_stack_of_its_rows(self, lift, part, width):
        P = twisted_product(fx.euclidean(2, ("x", "y"), "B2"), line("f", "u"), "1")
        V = np.arange(4.0 * width).reshape(4, width) - 1.5
        lifted = getattr(oracles, lift)(P, V)
        assert lifted.shape == (4, 3)
        assert lifted.tobytes() == np.stack([getattr(oracles, lift)(P, v) for v in V]).tobytes()
        assert P.split(lifted)[part].tobytes() == V.tobytes()
        assert not P.split(lifted)[1 - part].any()

    def test_lift_lemma(self, standard_twists):
        for P in standard_twists.values():
            assert lift_lemma_residual(P, samples=8, seed=1) < 1e-10


class TestBlockLeviCivita:
    def test_direct_product_blocks(self, standard_twists):
        P = standard_twists["direct"]
        x = np.array([0.3, -0.4])
        gam = block_levi_civita(P, x)
        assert np.allclose(gam, 0.0)

    def test_warped_mixed_entry(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x)")
        gam = block_levi_civita(P, [0.2, 0.1])
        assert gam[1, 0, 1] == pytest.approx(1.0)  # X(k) with k = x
        assert gam[1, 1, 0] == pytest.approx(1.0)

    def test_proper_twisted_entry(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x*u)")
        x = np.array([0.5, 0.3])
        gam = block_levi_civita(P, x)
        assert gam[1, 0, 1] == pytest.approx(0.3)  # d_x(xu) = u

    def test_matches_chart_on_all_fixtures(self, standard_twists):
        for name in ("direct", "warped-exp", "twisted-exp", "twisted-poly",
                     "warped-sphere-fiber", "twisted-4d"):
            assert block_levi_civita_defect(standard_twists[name], 16, 42) < 1e-8

    def test_connection_follows_the_display(self, standard_twists):
        # D is the chart Levi-Civita connection plus lifted factor differences;
        # its Gamma must be the display of its factor connections, and its
        # dGamma the derivative of that Gamma
        products = {**standard_twists,
                    "curved-2d-base": twisted_product(fx.fisher_normal(), fx.sphere2(),
                                                      "exp(0.5*m*th + 0.2*s*ph)"),
                    "sphere-base": twisted_product(fx.sphere2(), line("lineF", "u"),
                                                   "exp(th*u)")}
        torsionful = 0
        for name, P in products.items():
            B, F = P.base, P.fiber
            C_B = explicit_connection(B, {(0, 0, 0): f"0.3*{B.coords[0]}",
                                          (B.dim - 1, B.dim - 1, 0): "0.2"})
            # Gamma^{s-1}_{0,s-1} != Gamma^{s-1}_{s-1,0}: torsion when s >= 2
            C_F = explicit_connection(F, {(0, 0, 0): f"0.25*{F.coords[0]}",
                                          (F.dim - 1, 0, F.dim - 1):
                                              f"0.2 + 0.1*sin({F.coords[-1]})"})
            D = block_connection(P, C_B, C_F)
            X = P.manifold.sample_array(12, 5)
            xb, xf = P.split(X)
            display = block_gamma(P, X, C_B.gamma_at(xb), C_F.gamma_at(xf))
            bound = 1e-13 * (1 + np.max(np.abs(display)))
            assert np.max(np.abs(D.gamma_at(X) - display)) <= bound, name
            assert dgamma_fd_defect(D, samples=4, seed=3) < 1e-8, name
            torsionful += np.max(np.abs(torsion_at(C_F, xf))) > 0.05
        assert torsionful >= 2

    def test_block_dgamma_matches_fd(self, dualistic_suite):
        # D and D* assemble non-Levi-Civita factor connections
        for entry in dualistic_suite:
            st = entry["structure"]
            for C in (st.primal, st.dual):
                assert dgamma_fd_defect(C, samples=4, seed=3) < 1e-8, entry["name"]


class TestHessian:
    def test_additive_twist(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x + u)")
        h = hessian_at(P, [0.0, 0.0])
        assert h.mixed_block[0, 0] == pytest.approx(-1.0)

    def test_multiplicative_twist(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x*u)")
        h = hessian_at(P, [0.5, 0.3])
        # oracle: XV(k) - X(k)V(k) from the expression derivatives directly
        k = parse("x*u", ("x", "u"))
        env = {"x": 0.5, "u": 0.3}
        from dualgeo.exprlang import differentiate
        oracle = (evaluate(differentiate(differentiate(k, "x"), "u"), env)
                  - evaluate(differentiate(k, "x"), env)
                  * evaluate(differentiate(k, "u"), env))
        assert h.mixed_block[0, 0] == pytest.approx(0.85)
        assert h.mixed_block[0, 0] == pytest.approx(oracle)

    def test_constant_twist_all_zero(self, standard_twists):
        h = hessian_at(standard_twists["direct"], [0.1, 0.1])
        assert np.allclose(h.full, 0.0)
        assert np.allclose(h.operator, 0.0)

    def test_full_restricts_to_blocks(self, standard_twists):
        for name in ("warped-exp", "twisted-exp", "twisted-poly", "twisted-4d"):
            P = standard_twists[name]
            for pt in P.manifold.sample_array(5, 8):
                h = hessian_at(P, pt)
                assert np.allclose(h.full[: P.r, : P.r], h.base_block, atol=1e-12)
                assert np.allclose(h.full[: P.r, P.r:], h.mixed_block, atol=1e-12)

    def test_operator_is_metric_dual(self, standard_twists):
        P = standard_twists["twisted-poly"]
        for pt in P.manifold.sample_array(4, 9):
            h = hessian_at(P, pt)
            g = P.manifold.metric_at(pt)
            for a in range(P.r):
                assert np.allclose(g @ h.operator[a], h.full[a], atol=1e-12)


class TestCurvatureBlocks:
    def test_direct_product_splits(self, standard_twists):
        P = standard_twists["direct"]
        report = curvature_block_report(P, samples=6, seed=4)
        assert max(report.residuals.values()) < 1e-7, report.residuals

    def test_direct_product_block_structure(self):
        B = fx.sphere2()
        F = fx.euclidean(2, ("u", "v"), "F2")
        P = twisted_product(B, F, "1")
        x = np.array([1.1, 0.8, 0.2, 0.3])
        R = riemann_at(P.chart_levi_civita, x)
        RB = riemann_at(P.base_levi_civita, x[:2])
        assert np.allclose(R[:2, :2, :2, :2], RB, atol=1e-12)
        assert np.allclose(R[2:, :2, :2, :2], 0.0, atol=1e-12)  # R(X,Y)Z fiber part
        assert np.allclose(R[:, :2, :2, 2:], 0.0, atol=1e-12)   # R(X,Y)U block

    def test_warped_blocks_match(self, standard_twists):
        for name in ("warped-exp", "warped-sphere-fiber", "hyperbolic-4d"):
            report = curvature_block_report(standard_twists[name], samples=6, seed=5)
            assert max(report.residuals.values()) < 1e-8, report.residuals
            # for base-only twists both fiber-block pairings coincide
            assert report.ruvw_printed < 1e-8

    def test_proper_twisted_blocks_match(self, standard_twists):
        report = curvature_block_report(standard_twists["twisted-wide-fiber"],
                                        samples=6, seed=6)
        assert max(report.residuals.values()) < 1e-7, report.residuals
        assert report.ruvw_adopted == "index-consistent"
        assert report.ruvw_printed > 0.01
        assert report.ruvw_index_consistent < 1e-10

    def test_against_fd_oracle(self, standard_twists):
        P = standard_twists["twisted-exp"]
        x = np.array([0.4, -0.2])
        assert np.allclose(riemann_at(P.chart_levi_civita, x),
                           riemann_fd(P.chart_levi_civita, x), atol=1e-6)


class TestMixedRicci:
    def test_separable_twist_vanishes(self):
        P = twisted_product(line("b", "x"), fx.euclidean(2, ("u", "v"), "F2"),
                            "exp(x)*(1 + u^2)")
        direct, closed = mixed_ricci_at(P, P.manifold.center(), [1.0], [1.0, 0.0])
        assert abs(direct) < 1e-9
        assert abs(closed) < 1e-9

    def test_coupled_twist_value_and_sign(self, standard_twists):
        P = standard_twists["twisted-wide-fiber"]  # s = 2, b = exp(x*u)
        direct, closed = mixed_ricci_at(P, P.manifold.center(), [1.0], [1.0, 0.0])
        assert closed == pytest.approx(1.0, abs=1e-12)      # (s-1) XV(k) = 1
        assert abs(direct) == pytest.approx(1.0, abs=1e-9)
        assert direct == pytest.approx(MIXED_RICCI_SIGN * closed, abs=1e-9)

    def test_one_dimensional_fiber_closed_form_zero(self, standard_twists):
        P = standard_twists["twisted-exp"]  # s = 1
        _, closed = mixed_ricci_at(P, P.manifold.center(), [1.0], [1.0])
        assert closed == 0.0

    def test_table_consistency(self, standard_twists):
        tbl = mixed_ricci_table(standard_twists["twisted-wide-fiber"], samples=6, seed=3)
        assert tbl["max_residual_with_adopted_sign"] < 1e-9
        assert tbl["max_direct"] == pytest.approx(tbl["max_closed_form"], abs=1e-9)


class TestRicciBaseBlock:
    def test_direct_product_reduces(self):
        P = twisted_product(fx.sphere2(), fx.euclidean(2, ("u", "v"), "F2"), "1")
        assert ricci_base_block_residual(P, samples=5, seed=2) < 1e-8
        pt = P.manifold.sample_array(1, 2)[0]
        ric = ricci_at(P.manifold, P.chart_levi_civita, pt)
        ric_b = ricci_at(P.base, P.base_levi_civita, pt[:2])
        assert np.allclose(ric[:2, :2], ric_b, atol=1e-10)

    def test_warped_over_sphere(self, standard_twists):
        assert ricci_base_block_residual(standard_twists["warped-sphere-fiber"],
                                         samples=6, seed=4) < 1e-7

    def test_proper_twisted(self, standard_twists):
        assert ricci_base_block_residual(standard_twists["twisted-wide-fiber"],
                                         samples=6, seed=4) < 1e-7


class TestMixedWeyl:
    def test_separable_conditions_hold(self, standard_twists):
        rep = mixed_weyl_report(standard_twists["hyperbolic-4d"], samples=4, seed=1)
        assert rep.xyv_flat and rep.vwx_flat and rep.mixed_weyl_flat
        assert rep.display_xyv_residual < 1e-7

    def test_coupled_twist_displays(self, standard_twists):
        P = standard_twists["twisted-4d"]  # r = s = 2, b = exp(x*u)
        rep = mixed_weyl_report(P, samples=4, seed=2)
        assert rep.display_xyv_residual < 1e-6
        assert rep.display_vwx_residual < 1e-6
        assert not rep.xyv_flat and not rep.vwx_flat

    def test_coupled_twist_spot_value(self, standard_twists):
        from dualgeo.curvature import weyl_at
        P = standard_twists["twisted-4d"]
        x = P.manifold.center()
        W = weyl_at(P.manifold, P.chart_levi_civita, x)
        _, _, k2 = P.twist_data_at(x)
        # C(d_x, d_y) d_u = ((1-s)/(n-2)) [XV(k) d_y - YV(k) d_x]; XV(k)=1, YV(k)=0
        assert W[1, 0, 1, 2] == pytest.approx(-0.5 * k2[0, 2], abs=1e-12)
        assert k2[0, 2] == pytest.approx(1.0)

    def test_direct_product_mixed_blocks_zero(self, standard_twists):
        rep = mixed_weyl_report(standard_twists["direct-4d"], samples=4, seed=3)
        assert rep.mixed_block_max < 1e-12

    def test_dimension_guard(self, standard_twists):
        with pytest.raises(DimensionError):
            mixed_weyl_report(standard_twists["direct"], samples=2)


class TestSeparability:
    def test_additive_twist(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x + u)")
        sep = separability_test(P, samples=8)
        assert sep.separable and sep.max_cross_derivative < 1e-12

    def test_coupled_twist(self, standard_twists):
        sep = separability_test(standard_twists["twisted-exp"], samples=8)
        assert not sep.separable
        assert sep.max_cross_derivative == pytest.approx(1.0, abs=1e-10)

    def test_polynomial_twist(self, standard_twists):
        sep = separability_test(standard_twists["twisted-poly"], samples=16)
        assert sep.separable
        assert sep.reconstruction_residual < 1e-10
        assert free_vars(sep.alpha) <= {"x"}
        assert free_vars(sep.beta) <= {"u"}


class TestToWarped:
    def test_exponential_split(self):
        P = twisted_product(line("b", "x"), line("f", "u"), "exp(x)*exp(u)")
        W = to_warped(P, samples=8)
        assert W.classification == "warped"
        # delta = e^x (anchored at the centered box, so the constant vanishes)
        for x in (-0.5, 0.0, 0.4):
            assert evaluate(W.twist, {"x": x}) == pytest.approx(math.exp(x), rel=1e-12)
        # fiber metric rescaled by e^{2u}
        assert W.fiber.metric_at([0.3])[0, 0] == pytest.approx(math.exp(0.6), rel=1e-12)

    def test_direct_product_unchanged(self, standard_twists):
        W = to_warped(standard_twists["direct"], samples=8)
        assert W.classification == "direct"
        assert product_metric_residual(standard_twists["direct"], W, samples=8) < 1e-14

    def test_polynomial_reconstruction(self, standard_twists):
        P = standard_twists["twisted-poly"]
        W = to_warped(P, samples=16)
        assert product_metric_residual(P, W, samples=16) < 1e-10
        again = separability_test(W, samples=8)
        assert again.separable and again.max_cross_derivative < 1e-12
        assert W.classification == "warped"

    def test_non_separable_rejected(self, standard_twists):
        with pytest.raises(GeometryError, match="not separable"):
            to_warped(standard_twists["twisted-exp"])


class TestHessianCondition:
    def test_constant_twist_holds(self, standard_twists):
        assert hessian_condition_defect(standard_twists["direct"], samples=4) == 0.0

    def test_warped_line_defect_one(self, standard_twists):
        defect = hessian_condition_defect(standard_twists["warped-exp"], samples=4)
        assert defect == pytest.approx(1.0, abs=1e-12)

    def test_separable_fixture_reported(self, standard_twists):
        assert np.isfinite(hessian_condition_defect(standard_twists["twisted-poly"], samples=4))


class TestWeylParallel:
    def test_flat_product(self, standard_twists):
        assert weyl_parallel_defect(standard_twists["direct-4d"], samples=2) < 1e-12

    def test_constant_curvature_product(self, standard_twists):
        assert weyl_parallel_defect(standard_twists["hyperbolic-4d"], samples=2) < 1e-12

    def test_proper_twist_not_parallel(self, standard_twists):
        assert weyl_parallel_defect(standard_twists["twisted-4d"], samples=2) > 1e-3

    def test_dimension_guard(self, standard_twists):
        with pytest.raises(DimensionError):
            weyl_parallel_defect(standard_twists["twisted-exp"])


def test_fixture_factors_of_one_name_are_one_chart():
    """Products and induced structures over a factor of one name share its chart."""
    for factors in ([(P.base, P.fiber) for _, P in fx.standard_twists()],
                    [(e["structure"].base_structure.manifold,
                      e["structure"].fiber_structure.manifold) for e in fx.Fixtures().suite(16, 42)]):
        charts = {}
        for pair in factors:
            for M in pair:
                assert charts.setdefault(M.name, M) is M, M.name
        assert {"lineB", "lineF", "planeF"} <= set(charts)


# -- generated products: each block formula below its check's default --------

FIBER_BLOCK = "curvature-block R(U,V)W"


def _block_residuals(P) -> dict[str, float]:
    """The curvature block rows of ``P``, on the batch ``dualgeo twist`` reads by default."""
    report = curvature_block_report(P, samples=CHECKS[FIBER_BLOCK].count(RunConfig()))
    return {f"curvature-block {name}": value for name, value in report.residuals.items()}


@settings(max_examples=40, deadline=None)
@given(twisted_products())
def test_block_formulas_hold_on_generated_products(draw):
    P = draw.product
    assert block_levi_civita_defect(P, CHECKS["block-levi-civita"].count(RunConfig())) \
        < CHECKS["block-levi-civita"].default
    residuals = _block_residuals(P)
    for key in CURVATURE_BLOCK_IDS:
        if key != FIBER_BLOCK:
            assert residuals[key] < CHECKS[key].default, key


@settings(max_examples=30, deadline=None)
@given(twisted_products().filter(lambda draw: draw.exact_fiber_display))
def test_fiber_block_holds_where_its_display_is_exact(draw):
    assert _block_residuals(draw.product)[FIBER_BLOCK] < CHECKS[FIBER_BLOCK].default


# The fiber block uses the curvature of g_F where it needs that of the leaf
# metric e^{2k} g_F, so it is wrong on a flat plane fiber whenever k has a
# second derivative along the fiber.  Every such draw fails; no shrinking.
@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1")
@settings(max_examples=5, deadline=None, phases=(Phase.generate,), database=None)
@given(twisted_products().filter(lambda draw: not draw.exact_fiber_display))
def test_fiber_block_holds_where_k_has_a_fiber_hessian(draw):
    assert _block_residuals(draw.product)[FIBER_BLOCK] < CHECKS[FIBER_BLOCK].default
