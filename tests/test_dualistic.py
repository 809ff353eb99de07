import numpy as np
import pytest

from dualgeo.connections import ConnectionField, explicit_connection, levi_civita
from dualgeo.dualistic import (ConjugacyError, dually_flat_verdict, induce_on_product,
                               lemma_dual_block_report, make_dualistic, projection_check,
                               reduction_chain, theorem41_analyze, theorem42_analyze,
                               theorem43_analyze, torsion_inheritance_check)
from dualgeo.curvature import FLAT_TOL, DimensionError
from dualgeo.products import WEYL_FLAT_TOL, twisted_product
from dualgeo.report import jsonable
from dualgeo import dualistic, fixtures as fx


def induce(dB, dF, twist):
    """The induced structure on the twisted product of dB's and dF's charts."""
    return induce_on_product(twisted_product(dB.manifold, dF.manifold, twist), dB, dF, 16)


def flat_structure(name, coord):
    M = fx.euclidean(1, (coord,), name)
    return make_dualistic(M, explicit_connection(M, {}), samples=16)


def constant_pair(name, coord, c):
    M = fx.euclidean(1, (coord,), name)
    return make_dualistic(M, explicit_connection(M, {(0, 0, 0): repr(c)}), samples=16)


def verdict_and_chain(st, samples, seed=42):
    """The direct verdict and the reduction chain an analyzer receives."""
    return dually_flat_verdict(st, samples, seed), reduction_chain(st, samples, seed)


class TestMakeDualistic:
    def test_sphere_metric_pair(self, sphere):
        st = make_dualistic(sphere, levi_civita(sphere), samples=32)
        assert st.residual < 1e-10
        for pt in sphere.sample_array(4, 1):
            assert np.allclose(st.primal.gamma_at(pt), st.dual.gamma_at(pt), atol=1e-12)

    def test_explicit_pair_accepted(self, euclid1):
        c = explicit_connection(euclid1, {(0, 0, 0): "0.7"})
        cstar = explicit_connection(euclid1, {(0, 0, 0): "-0.7"})
        st = make_dualistic(euclid1, c, cstar, samples=16)
        assert st.residual < 1e-12
        assert st.involution_defect < 1e-12

    def test_wrong_pair_rejected(self, euclid1):
        c = explicit_connection(euclid1, {(0, 0, 0): "0.7"})
        with pytest.raises(ConjugacyError) as err:
            make_dualistic(euclid1, c, c, samples=16)
        assert err.value.residual == pytest.approx(1.4)

    def test_zero_tolerance_names_the_first_sample_point(self, euclid2, monkeypatch):
        # every residual of the exact pair is 0.0, which is not below a tolerance of 0.0
        monkeypatch.setattr(dualistic, "DUALITY_TOL", 0.0)
        with pytest.raises(ConjugacyError) as err:
            make_dualistic(euclid2, levi_civita(euclid2), samples=8, seed=3)
        first = euclid2.sample_array(8, 3)[0].tolist()
        assert err.value.residual == 0.0
        assert err.value.worst_point.tolist() == first
        assert str(err.value).endswith(f"at {first}")

    def test_nan_residual_rejected(self, euclid1):
        def gamma(x):  # NaN coefficients wherever x > 0
            return np.where(x[..., :, None, None] > 0, np.nan, 0.0)

        def dgamma(x):
            return np.zeros(x.shape[:-1] + (1, 1, 1, 1))

        C = ConnectionField(euclid1, "explicit", gamma, dgamma)
        X = euclid1.sample_array(16, 42)
        first_nan = X[np.argmax(X[:, 0] > 0)].tolist()
        with pytest.raises(ConjugacyError) as err:
            make_dualistic(euclid1, C, explicit_connection(euclid1, {}), samples=16)
        assert np.isnan(err.value.residual)
        assert err.value.worst_point.tolist() == first_nan

    def test_hessian_metric_flat_pair(self):
        M = fx.hessian_exp2()
        st = make_dualistic(M, explicit_connection(M, {}), samples=16)
        verdict = dually_flat_verdict(st, samples=24)
        assert verdict.dually_flat
        # the dual is genuinely different from the primal here
        pt = st.manifold.sample_array(1, 3)[0]
        assert np.max(np.abs(st.dual.gamma_at(pt))) > 0.1


class TestInduce:
    def test_trivial_direct_product(self):
        dB = flat_structure("b", "x")
        dF = flat_structure("f", "u")
        st = induce(dB, dF, "1")
        pt = st.product.manifold.center()
        assert np.allclose(st.primal.gamma_at(pt), 0.0)
        assert np.allclose(st.dual.gamma_at(pt), 0.0)

    def test_metric_factors_give_metric_connection(self, sphere):
        dB = make_dualistic(fx.euclidean(1, ("x",), "b"),
                            levi_civita(fx.euclidean(1, ("x",), "b")), samples=8)
        # rebuild with shared manifold instance
        B = fx.euclidean(1, ("x",), "b")
        dB = make_dualistic(B, levi_civita(B), samples=8)
        dF = make_dualistic(sphere, levi_civita(sphere), samples=8)
        st = induce(dB, dF, "exp(x)")
        P = st.product
        for pt in P.manifold.sample_array(6, 2):
            chart = P.chart_levi_civita.gamma_at(pt)
            assert np.max(np.abs(st.primal.gamma_at(pt) - chart)) < 1e-10
            assert np.max(np.abs(st.dual.gamma_at(pt) - chart)) < 1e-10

    def test_constant_pair_base_blocks(self):
        dB = constant_pair("b", "x", 0.4)
        dF = flat_structure("f", "u")
        st = induce(dB, dF, "1")
        pt = st.product.manifold.center()
        assert st.primal.gamma_at(pt)[0, 0, 0] == pytest.approx(0.4)
        assert st.dual.gamma_at(pt)[0, 0, 0] == pytest.approx(-0.4)

    def test_induced_pair_validates(self, dualistic_suite):
        for entry in dualistic_suite:
            assert entry["structure"].residual < 1e-9
            assert entry["structure"].involution_defect < 1e-10


class TestProjection:
    def test_direct_product_exact(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "flat-pair-direct")
        rep = projection_check(entry["structure"], samples=8)
        assert rep.max_residual() < 1e-12

    def test_warped_recovery(self):
        B = fx.euclidean(1, ("x",), "b")
        F = fx.euclidean(1, ("u",), "f")
        dB = make_dualistic(B, explicit_connection(B, {(0, 0, 0): "0.4"}), samples=8)
        dF = make_dualistic(F, explicit_connection(F, {(0, 0, 0): "-0.2"}), samples=8)
        st = induce(dB, dF, "exp(x)")
        rep = projection_check(st, samples=8)
        assert rep.max_residual() < 1e-9

    def test_proper_twisted_recovery(self, dualistic_suite):
        entry = next(e for e in dualistic_suite
                     if e["name"] == "proper-twisted-wide-fiber")
        rep = projection_check(entry["structure"], samples=8)
        assert rep.max_residual() < 1e-9


class TestTorsionInheritance:
    def test_metric_factors(self, dualistic_suite):
        for entry in dualistic_suite:
            rep = torsion_inheritance_check(entry["structure"], samples=8)
            assert rep.inherited
            assert rep.induced_primal_torsion_max < 1e-10
            assert rep.induced_dual_torsion_max < 1e-10

    def test_statistical_factor_pair(self):
        dB = constant_pair("b", "x", 0.5)
        dF = flat_structure("f", "u")
        st = induce(dB, dF, "exp(u)")
        rep = torsion_inheritance_check(st, samples=8)
        assert rep.inherited

    def test_torsionful_factor_reported(self):
        B = fx.euclidean(2, ("x", "y"), "b2")
        F = fx.euclidean(1, ("u",), "f")
        torsionful = explicit_connection(B, {(0, 0, 1): "1"})
        dB = make_dualistic(B, torsionful, samples=8)
        dF = flat_structure("f2", "u")
        F2 = dF.manifold
        st = induce(dB, dF, "1")
        rep = torsion_inheritance_check(st, samples=8)
        assert rep.factor_torsion_max > 0.5
        assert rep.induced_primal_torsion_max > 0.5  # failure is visible, not hidden


class TestDuallyFlatVerdict:
    def test_flat_pair_on_plane(self, euclid2):
        st = make_dualistic(euclid2, explicit_connection(euclid2, {}), samples=16)
        verdict = dually_flat_verdict(st, samples=16)
        assert verdict.dually_flat
        assert verdict.riemann_primal_max < 1e-9
        assert verdict.riemann_dual_max < 1e-9

    def test_constant_pair_on_line(self):
        st = constant_pair("b", "x", 0.7)
        verdict = dually_flat_verdict(st, samples=16)
        assert verdict.dually_flat  # 1d curvature vanishes identically

    def test_sphere_not_dually_flat(self, sphere):
        st = make_dualistic(sphere, levi_civita(sphere), samples=16)
        verdict = dually_flat_verdict(st, samples=24)
        assert not verdict.dually_flat
        assert verdict.riemann_primal_max == pytest.approx(1.0, rel=0.1)
        assert verdict.flat_flags_agree


class TestTheorem41:
    def test_fiber_twist_agrees(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "flat-fiber-twist")
        st = entry["structure"]
        rec = theorem41_analyze(st, *verdict_and_chain(st, 16), samples=16)
        assert rec.applies
        assert rec.chain.separable
        assert rec.chain.cross_derivative_max < 1e-10
        assert rec.chain.reconstruction_residual < 1e-10
        assert rec.predicted_dually_flat is True
        assert rec.direct.dually_flat is True
        assert rec.agreement is True
        assert rec.chain.fiber_dim_warning is not None  # 1-dimensional fiber

    def test_coupled_twist_precondition_fails(self, dualistic_suite):
        entry = next(e for e in dualistic_suite
                     if e["name"] == "proper-twisted-wide-fiber")
        st = entry["structure"]
        rec = theorem41_analyze(st, *verdict_and_chain(st, 16), samples=16)
        assert not rec.applies
        assert rec.hypothesis["mixed_ricci_max"] == pytest.approx(1.0, abs=1e-6)
        assert rec.predicted_dually_flat is None
        assert any("precondition" in note for note in rec.notes)
        assert rec.direct.dually_flat is False

    def test_curved_base_fails_via_base(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "sphere-base-direct")
        st = entry["structure"]
        rec = theorem41_analyze(st, *verdict_and_chain(st, 16), samples=16)
        assert rec.applies
        assert rec.predicted_dually_flat is False
        assert not rec.chain.base_verdict.dually_flat
        assert rec.agreement is True

    def test_curved_fiber_documents_gap(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "curved-fiber-direct")
        st = entry["structure"]
        rec = theorem41_analyze(st, *verdict_and_chain(st, 16), samples=16)
        # fiber has constant curvature but a non-flat connection: the printed
        # biconditional predicts flat while the direct verdict says otherwise
        assert rec.predicted_dually_flat is True
        assert rec.direct.dually_flat is False
        assert rec.agreement is False
        assert any("DISAGREEMENT" in note for note in rec.notes)


class TestTheorem42:
    def test_separable_conditions_hold(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "hessian-base-direct")
        st = entry["structure"]
        rec = theorem42_analyze(st, *verdict_and_chain(st, 12), samples=12)
        assert rec.applies
        assert rec.agreement is True

    def test_coupled_twist_four_dimensional(self):
        B = fx.euclidean(2, ("x", "y"), "B2")
        F = fx.euclidean(2, ("u", "v"), "F2")
        dB = make_dualistic(B, explicit_connection(B, {}), samples=8)
        dF = make_dualistic(F, explicit_connection(F, {}), samples=8)
        st = induce(dB, dF, "exp(x*u)")
        rec = theorem42_analyze(st, *verdict_and_chain(st, 8), samples=8)
        assert not rec.applies
        assert rec.hypothesis["weyl_xyv_max"] == pytest.approx(0.5, abs=1e-6)
        assert rec.predicted_dually_flat is None and rec.agreement is None

    def test_direct_flat_product(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "hessian-base-direct")
        st = entry["structure"]
        rec = theorem42_analyze(st, *verdict_and_chain(st, 12), samples=12)
        assert rec.predicted_dually_flat is True
        assert rec.direct.dually_flat is True

    def test_two_dimensional_product_raises(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "flat-pair-direct")
        st = entry["structure"]
        assert st.product.n == 2
        with pytest.raises(DimensionError, match="dimension >= 3"):
            theorem42_analyze(st, *verdict_and_chain(st, 8), samples=8)


class TestTheorem43:
    def test_constant_twist_branch_two(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "flat-pair-direct")
        st = entry["structure"]
        rec = theorem43_analyze(st, *verdict_and_chain(st, 8), samples=8)
        assert rec.branch == 2
        assert rec.hypothesis["hessian_defect"] < 1e-12
        assert rec.agreement is True

    def test_warped_line_inapplicable(self):
        dB = flat_structure("b", "x")
        dF = flat_structure("f", "u")
        st = induce(dB, dF, "exp(x)")
        rec = theorem43_analyze(st, *verdict_and_chain(st, 8), samples=8)
        assert rec.branch is None
        assert rec.hypothesis["hessian_defect"] == pytest.approx(1.0, abs=1e-9)
        assert any("inapplicable" in note for note in rec.notes)

    def test_four_dimensional_direct_product(self):
        B = fx.euclidean(1, ("x",), "b")
        F = fx.euclidean(3, ("u", "v", "w"), "f3")
        dB = make_dualistic(B, explicit_connection(B, {}), samples=8)
        dF = make_dualistic(F, explicit_connection(F, {}), samples=8)
        st = induce(dB, dF, "1")
        rec = theorem43_analyze(st, *verdict_and_chain(st, 8), samples=8)
        # k = 0 satisfies the Hessian condition, so the chain proceeds
        assert rec.branch == 2
        assert rec.hypothesis["weyl_parallel"] is True
        assert rec.hypothesis["weyl_parallel_defect"] < 1e-12
        assert rec.agreement is True


class TestSharedVerdictAndChain:
    """verify-paper builds one verdict (24 samples) and one chain (16) per structure."""

    @staticmethod
    def records(st, verdicts, seed):
        """Each applicable analyzer's record; ``verdicts[n]`` is the pair an analyzer
        checking its hypothesis on n samples receives."""
        recs = [theorem41_analyze(st, *verdicts[16], samples=16, seed=seed)]
        if st.product.n >= 3:
            recs.append(theorem42_analyze(st, *verdicts[12], samples=12, seed=seed))
        recs.append(theorem43_analyze(st, *verdicts[12], samples=12, seed=seed))
        return recs

    @pytest.mark.parametrize("seed", [42, 3])
    def test_shared_inputs_give_the_per_analyzer_outcomes(self, dualistic_suite, seed):
        for entry in dualistic_suite:
            st = entry["structure"]
            shared = (dually_flat_verdict(st, 24, seed), reduction_chain(st, 16, seed))
            own = {n: verdict_and_chain(st, n, seed) for n in (16, 12)}
            pairs = zip(self.records(st, {16: shared, 12: shared}, seed),
                        self.records(st, own, seed))
            for rec, oracle in pairs:
                for field in ("applies", "predicted_dually_flat", "agreement", "branch",
                              "notes"):
                    assert getattr(rec, field) == getattr(oracle, field), \
                        (entry["name"], rec.theorem, field)

    def test_records_keep_what_they_receive(self, dualistic_suite):
        applied, inapplicable = set(), set()
        for entry in dualistic_suite:
            st = entry["structure"]
            direct, chain = verdict_and_chain(st, 12)
            recs = self.records(st, {16: (direct, chain), 12: (direct, chain)}, 42)
            assert [rec.theorem for rec in recs] == (["4.1", "4.2", "4.3"] if st.product.n >= 3
                                                      else ["4.1", "4.3"])
            for rec in recs:
                assert rec.direct is direct and rec.chain is chain
                hyp = rec.hypothesis
                if rec.theorem == "4.1":
                    applies = hyp["mixed_ricci_max"] < FLAT_TOL
                elif rec.theorem == "4.2":
                    applies = min(hyp["weyl_xyv_max"], hyp["weyl_vwx_max"]) < WEYL_FLAT_TOL
                else:
                    applies = rec.branch is not None
                assert rec.applies == applies, (entry["name"], rec.theorem)
                assert (rec.predicted_dually_flat is None) == (not rec.applies)
                (applied if rec.applies else inapplicable).add(rec.theorem)
        # every 4.2 hypothesis of the suite holds; test_coupled_twist_four_dimensional
        # covers an inapplicable 4.2 record
        assert applied == {"4.1", "4.2", "4.3"} and inapplicable == {"4.1", "4.3"}


class TestLemmaBlocks:
    def test_metric_factor_blocks_hold(self, dualistic_suite):
        entry = next(e for e in dualistic_suite if e["name"] == "flat-fiber-twist")
        blocks = lemma_dual_block_report(entry["structure"], samples=4)
        for label in ("primal", "dual"):
            for name, value in blocks[label].items():
                if "as-printed" not in name:
                    assert value < 1e-9, (label, name, value)

    def test_non_metric_factor_blocks_reported(self):
        B = fx.euclidean(1, ("x",), "b")
        F = fx.euclidean(1, ("u",), "f")
        dB = make_dualistic(B, explicit_connection(B, {(0, 0, 0): "0.4"}), samples=8)
        dF = make_dualistic(F, explicit_connection(F, {}), samples=8)
        st = induce(dB, dF, "exp(x)")
        blocks = lemma_dual_block_report(st, samples=4)
        assert set(blocks) == {"primal", "dual"}
        for label in blocks:
            assert all(np.isfinite(v) for v in blocks[label].values())


def test_records_are_json_serializable(dualistic_suite):
    import json
    entry = next(e for e in dualistic_suite if e["name"] == "flat-fiber-twist")
    st = entry["structure"]
    rec = theorem41_analyze(st, *verdict_and_chain(st, 8), samples=8)
    text = json.dumps(jsonable(rec), sort_keys=True)
    assert "reconstruction_residual" in text
