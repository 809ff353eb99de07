"""The built-in verification suite.

Every structural identity of the dualistic/twisted-product theory is
checked numerically over the fixture library, each against an independent
direct computation.  Known ambiguities in the classical displayed formulas
(the fiber-fiber curvature pairing, the mixed-Ricci sign, the
conformal-tensor variant, the biconditional's missing warping
compatibility) are reported informationally rather than hidden.
"""

from __future__ import annotations

import numpy as np

from .report import RunConfig, VerificationReport, sha256_of
from .exprlang import to_source
from .geometry import validate_metric
from .connections import (conjugate, cubic_form_at, dgamma_fd_defect, duality_residual,
                          explicit_connection, is_statistical, torsion_at,
                          torsion_relation_residual)
from .curvature import (curvature_duality_residual, curvature_report, first_bianchi_defect,
                        is_constant_sectional, ricci_contraction, riemann_at, scalar_at,
                        sectional_at, weyl_at, weyl_trace_defect)
from .products import (MIXED_RICCI_SIGN, _max_abs, _warped_reduction,
                       block_levi_civita_defect, curvature_block_report, hessian_at,
                       hessian_condition_defect, lift_lemma_residual, mixed_ricci_table,
                       mixed_weyl_report, ricci_base_block_residual, separability_test,
                       weyl_parallel_defect)
from .dualistic import (dually_flat_verdict, lemma_dual_block_report, make_dualistic,
                        projection_check, reduction_chain, theorem41_analyze,
                        theorem42_analyze, theorem43_analyze, torsion_inheritance_check,
                        verdict_from_tensors)
from . import fixtures

VERSION = "0.1.0"


def new_report(config: RunConfig, inputs: dict) -> VerificationReport:
    """An empty report with the header every command writes: tool, version, config, inputs."""
    return VerificationReport(
        tool="dualgeo", version=VERSION,
        config={"samples": config.samples, "seed": config.seed,
                "tol_exact": config.tol_exact, "tol_fd": config.tol_fd},
        inputs=inputs)


_SEPARABLE_TWISTS = ("direct", "warped-exp", "twisted-poly", "warped-sphere-fiber",
                     "hyperbolic-4d", "direct-4d")
_CRITERION4_TWISTS = ("direct", "warped-exp", "twisted-exp", "twisted-poly")


def fixture_digest(manifolds: list, twists: dict, suite: list) -> str:
    """Deterministic digest of the built-in fixtures, as ``verify_paper`` builds them."""
    parts = []
    for M in manifolds + [fixtures.hessian_exp2(), fixtures.bumpy_sphere2()]:
        parts.append(M.name)
        parts.append(",".join(M.coords))
        parts.append(";".join(f"{lo}:{hi}" for lo, hi in M.domain))
        parts.extend(to_source(e) for row in M.metric for e in row)
    for name, P in twists.items():
        parts.append(name)
        parts.append(to_source(P.twist))
    parts.extend(entry["name"] for entry in suite)
    return sha256_of("|".join(parts).encode())


def verify_paper(config: RunConfig) -> VerificationReport:
    manifolds = fixtures.standard_manifolds()
    e2, _, sphere, hyp, fisher = manifolds
    twists = dict(fixtures.standard_twists())
    suite = fixtures.dualistic_suite()
    rep = new_report(config, {"fixture_suite_digest": fixture_digest(manifolds, twists, suite)})
    samples = config.samples
    seed = config.seed

    # ---------------------------------------------------------------- charts
    spd_ok = True
    inv_worst = 0.0
    for M in manifolds:
        try:
            validate_metric(M, samples=min(samples, 64), seed=seed)
        except Exception:  # pragma: no cover - fixtures are valid by construction
            spd_ok = False
        x = M.sample_array(min(samples, 16), seed)
        inv_worst = max(inv_worst, _max_abs(M.metric_at(x) @ M.inverse_metric_at(x)
                                            - np.eye(M.dim)))
    rep.add_flag("metric-spd", "g symmetric and positive definite on all fixtures", spd_ok)
    rep.add("inverse-metric", "g . g^{-1} = id", inv_worst, config.exact_tol(1e-12))

    # ------------------------------------------------- conjugation identities
    pairs = []
    for M in manifolds:
        for cname, C in fixtures.connection_suite(M):
            pairs.append((M, cname, C, conjugate(C, M)))

    worst = {key: 0.0 for key in ("duality", "involution", "cubic-sign",
                                  "torsion-relation", "curvature-duality",
                                  "antisymmetry")}
    flags_agree = True
    for M, cname, C, Cs in pairs:
        x = M.sample_array(samples, seed)
        g = M.metric_at(x)
        cubic_star = cubic_form_at(M, Cs, x)
        R = riemann_at(C, x)
        Rs = riemann_at(Cs, x)
        pair_worst = {
            "duality": duality_residual(M, C, Cs, x),
            "involution": _max_abs(conjugate(Cs, M).gamma_at(x) - C.gamma_at(x)),
            "cubic-sign": _max_abs(cubic_form_at(M, C, x) + cubic_star),
            "antisymmetry": _max_abs(R + R.swapaxes(-3, -2)),
            "curvature-duality": curvature_duality_residual(g, R, Rs),
            "torsion-relation": torsion_relation_residual(
                g, torsion_at(C, x), torsion_at(Cs, x), cubic_star),
        }
        for key, value in pair_worst.items():
            worst[key] = max(worst[key], value)
        flags_agree = flags_agree and ((_max_abs(R) < 1e-9) == (_max_abs(Rs) < 1e-9))

    rep.add("conjugation-duality",
            "X.g(Y,Z) = g(conj_X Y, Z) + g(Y, conj*_X Z) for conjugate(.)",
            worst["duality"], config.exact_tol(1e-10))
    rep.add("conjugation-involution", "conjugate(conjugate(C)) = C",
            worst["involution"], config.exact_tol(1e-10))
    rep.add("cubic-form-sign", "(nabla* g) = -(nabla g) for conjugate pairs",
            worst["cubic-sign"], config.exact_tol(1e-10))
    rep.add("torsion-relation",
            "g(T(X,Y),Z) = g(T*(X,Y),Z) + (nabla* g)(X,Y,Z) - (nabla* g)(Y,X,Z)",
            worst["torsion-relation"], config.exact_tol(1e-10))
    rep.add("curvature-duality", "g(R(X,Y)Z,W) = -g(R*(X,Y)W,Z)",
            worst["curvature-duality"], config.exact_tol(1e-7))
    rep.add("riemann-antisymmetry", "R^l_ijk = -R^l_jik",
            worst["antisymmetry"], config.exact_tol(1e-12))
    rep.add_flag("flat-iff-dual-flat", "R = 0 exactly when R* = 0", flags_agree)

    lc_self = 0.0
    for M in manifolds:
        lc = M.levi_civita_connection
        x = M.sample_array(min(samples, 16), seed)
        lc_self = max(lc_self, _max_abs(conjugate(lc, M).gamma_at(x) - lc.gamma_at(x)))
    rep.add("levi-civita-self-conjugate", "conjugate(levi_civita) = levi_civita",
            lc_self, config.exact_tol(1e-10))

    # ------------------------------------------------------------ statistical
    # the 16-sample conjugates first, while each chart still holds that batch
    inherit_ok = all(is_statistical(M, conjugate(M.levi_civita_connection, M), min(samples, 16),
                                    seed).is_statistical for M in manifolds)
    statistical = explicit_connection(
        e2, {(0, 0, 0): "0.3", (0, 1, 1): "0.2", (1, 0, 1): "0.2", (1, 1, 0): "0.2"})
    torsionful = explicit_connection(e2, {(0, 0, 1): "1"})
    verdicts_ok = (is_statistical(sphere, sphere.levi_civita_connection, min(samples, 32),
                                  seed).is_statistical
                   and is_statistical(e2, statistical, min(samples, 32), seed).is_statistical
                   and not is_statistical(e2, torsionful, min(samples, 32), seed).is_statistical)
    rep.add_flag("statistical-verdicts",
                 "torsion-free + symmetric cubic form classifies statistical structures",
                 verdicts_ok)
    inherit_ok = inherit_ok and is_statistical(e2, conjugate(statistical, e2),
                                               min(samples, 32), seed).is_statistical
    rep.add_flag("statistical-conjugate",
                 "the conjugate of a statistical connection is statistical", inherit_ok)

    # ------------------------------------------------------ classical values
    plane = ([1.0, 0.0], [0.0, 1.0])
    xs, xh, xf = (M.sample_array(10, seed) for M in (sphere, hyp, fisher))
    dev = max(_max_abs(scalar_at(sphere, sphere.levi_civita_connection, xs) - 2.0),
              _max_abs(sectional_at(sphere, xs, *plane) - 1.0),
              _max_abs(scalar_at(hyp, hyp.levi_civita_connection, xh) + 2.0),
              _max_abs(sectional_at(fisher, xf, *plane) + 0.5))
    rep.add("classical-curvature",
            "sphere: S=2, K=1; half-plane: S=-2; normal-family Fisher: K=-1/2",
            dev, config.exact_tol(1e-6))

    cs_sphere = is_constant_sectional(sphere, min(samples, 16), 1e-8, seed)
    cs_fisher = is_constant_sectional(fisher, min(samples, 16), 1e-8, seed)
    cs_bumpy = is_constant_sectional(fixtures.bumpy_sphere2(), min(samples, 16), 1e-8, seed)
    rep.add_flag("constant-sectional",
                 "sphere and Fisher fixtures have constant K; the bumpy sphere does not",
                 cs_sphere.constant and cs_fisher.constant and not cs_bumpy.constant,
                 notes=f"kappa(sphere)={cs_sphere.kappa:.6f}, "
                       f"kappa(fisher)={cs_fisher.kappa:.6f}")

    bianchi = trace_free = scalar_routes = ricci_routes = 0.0
    for M in manifolds:
        x = M.sample_array(min(samples, 12), seed)
        cr = curvature_report(M, M.levi_civita_connection, x)
        ginv = M.inverse_metric_at(x)
        bianchi = max(bianchi, first_bianchi_defect(cr.riemann))
        scalar_routes = max(scalar_routes, _max_abs(
            cr.scalar - np.einsum("...jk,...jk->...", ginv, cr.ricci)))
        if cr.weyl is not None:
            trace_free = max(trace_free, weyl_trace_defect(M.metric_at(x), ginv, cr.weyl))
    for M, cname, C, _ in pairs:
        cr = curvature_report(M, C, M.sample_array(4, seed))
        ricci_routes = max(ricci_routes, _max_abs(cr.ricci - ricci_contraction(cr.riemann)))
    rep.add("first-bianchi", "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0 for the metric connection",
            bianchi, config.exact_tol(1e-9))
    rep.add("weyl-trace-free", "all traces of the conformal tensor vanish (metric connection)",
            trace_free, config.exact_tol(1e-8))
    rep.add("scalar-two-routes", "orthonormal-frame scalar equals g^{jk} Ric_jk",
            scalar_routes, config.exact_tol(1e-10))
    rep.add("ricci-two-routes",
            "orthonormal-frame Ricci equals the first-slot contraction of R",
            ricci_routes, config.exact_tol(1e-10),
            notes="holds for arbitrary connections by frame completeness")

    fd_defect = max(dgamma_fd_defect(M.levi_civita_connection, samples=6, seed=seed)
                    for M in (sphere, hyp))
    rep.add("dgamma-fd-crosscheck",
            "symbolic connection derivatives match 4th-order finite differences",
            fd_defect, config.fd_tol(1e-5))

    # ---------------------------------------------------------------- products
    lemma_lift = max(lift_lemma_residual(P, min(samples, 12), seed)
                     for P in twists.values())
    rep.add("lift-lemma", "derivatives of factor metrics commute with lifts",
            lemma_lift, config.exact_tol(1e-10))

    block_defect = max(block_levi_civita_defect(P, min(samples, 16), seed)
                       for name, P in twists.items() if name in _CRITERION4_TWISTS)
    rep.add("block-levi-civita",
            "block assembly of the product metric connection matches the chart computation",
            block_defect, config.exact_tol(1e-8))

    block_worst: dict[str, float] = {}
    printed_worst = 0.0
    warped_worst = 0.0
    for name in _CRITERION4_TWISTS + ("twisted-wide-fiber",):
        report = curvature_block_report(twists[name], samples=min(samples, 10), seed=seed)
        for block, value in report.residuals.items():
            block_worst[block] = max(block_worst.get(block, 0.0), value)
        printed_worst = max(printed_worst, report.ruvw_printed)
        if twists[name].classification in ("direct", "warped"):
            warped_worst = max(warped_worst, max(report.residuals.values()))
    statements = {
        "R(X,Y)Z": "curvature of base lifts equals the lifted base curvature",
        "R(X,Y)U": "base-pair curvature has no fiber output",
        "R(X,U)Y": "mixed block equals (Hess_B b (X,Y) / b) U",
        "R(U,V)X": "fiber-pair-on-base block equals UX(k)V - VX(k)U",
        "R(X,U)V": "mixed block matches the Hessian/gradient combination of k",
        "R(U,V)W": "fiber block matches the fiber curvature plus gradient terms",
    }
    for block in ("R(X,Y)Z", "R(X,Y)U", "R(X,U)Y", "R(U,V)X", "R(X,U)V", "R(U,V)W"):
        rep.add(f"curvature-block {block}", statements[block], block_worst[block],
                config.exact_tol(1e-7))
    rep.add("curvature-block R(U,V)W as-printed",
            "the printed pairing g(V,U) grad_B(U(k)) deviates on proper twists",
            printed_worst, None, informational=True,
            notes="index-consistent pairing adopted")
    rep.add("curvature-blocks-warped", "all block formulas reduce to the warped identities",
            warped_worst, config.exact_tol(1e-8))

    mixed_sep = max(mixed_ricci_table(twists[name], min(samples, 10), seed)["max_direct"]
                    for name in _SEPARABLE_TWISTS)
    rep.add("mixed-ricci-separable", "Ric(X,V) = 0 when k has no mixed cross-derivatives",
            mixed_sep, config.exact_tol(1e-9))

    tbl = mixed_ricci_table(twists["twisted-wide-fiber"], min(samples, 10), seed)
    rep.add("mixed-ricci-closed-form", "|Ric(X,V)| = |(s-1) XV(k)|",
            abs(tbl["max_direct"] - tbl["max_closed_form"]), config.exact_tol(1e-6))
    rep.add("mixed-ricci-sign", "direct mixed Ricci equals (1-s)XV(k), not (s-1)XV(k)",
            tbl["max_residual_with_adopted_sign"], None, informational=True,
            notes=f"adopted sign {MIXED_RICCI_SIGN:+.0f}; the two displayed signs disagree "
                  "and the direct computation fixes the proof's variant")

    ricci_block = max(ricci_base_block_residual(twists[name], min(samples, 10), seed)
                      for name in _CRITERION4_TWISTS + ("twisted-wide-fiber",
                                                        "warped-sphere-fiber"))
    rep.add("ricci-base-block", "Ric(X,Y) = Ric_B(X,Y) - s[Hess_B k (X,Y) + X(k)Y(k)]",
            ricci_block, config.exact_tol(1e-7))

    mw = mixed_weyl_report(twists["twisted-4d"], samples=min(samples, 8), seed=seed)
    rep.add("mixed-weyl-display C(X,Y)V", "C(X,Y)V = ((1-s)/(n-2))[XV(k)Y - YV(k)X]",
            mw.display_xyv_residual, config.exact_tol(1e-6))
    rep.add("mixed-weyl-display C(V,W)X", "C(V,W)X = ((r-1)/(n-2))[XV(k)W - XW(k)V]",
            mw.display_vwx_residual, config.exact_tol(1e-6))
    mw_sep = mixed_weyl_report(twists["hyperbolic-4d"], samples=min(samples, 8), seed=seed)
    rep.add("mixed-weyl-separable", "separable twists satisfy both Weyl-flat-along conditions",
            max(mw_sep.cond_xyv_max, mw_sep.cond_vwx_max), config.exact_tol(1e-7))

    P4 = twists["hyperbolic-4d"]
    x = P4.manifold.sample_array(4, seed)
    weyl_variant_diff = _max_abs(weyl_at(P4.manifold, P4.chart_levi_civita, x, "standard")
                                 - weyl_at(P4.manifold, P4.chart_levi_civita, x, "as-printed"))
    rep.add("weyl-variant-difference",
            "standard conformal tensor vs the printed variant with a curvature term",
            weyl_variant_diff, None, informational=True,
            notes="nonzero difference documents the display; standard form used throughout")

    sep_bad = separability_test(twists["twisted-exp"], min(samples, 16), seed)
    rep.add("separability-detects-coupling", "d2 k / dx du = 1 for k = x u",
            abs(sep_bad.max_cross_derivative - 1.0), config.exact_tol(1e-10))
    sep_good = separability_test(twists["twisted-poly"], min(samples, 16), seed)
    warped, recon = _warped_reduction(twists["twisted-poly"], sep_good, min(samples, 16), seed)
    rep.add("separability-reconstruction", "k = alpha(base) + beta(fiber) on separable twists",
            max(sep_good.reconstruction_residual, recon), config.exact_tol(1e-10),
            notes=f"reduced classification: {warped.classification}")

    hess_restrict = 0.0
    for name in _CRITERION4_TWISTS:
        P = twists[name]
        h = hessian_at(P, P.manifold.sample_array(6, seed))
        hess_restrict = max(hess_restrict, _max_abs(h.full[..., : P.r, : P.r] - h.base_block),
                            _max_abs(h.full[..., : P.r, P.r:] - h.mixed_block))
    rep.add("hessian-block-restriction",
            "the product Hessian of k restricts to the displayed base and mixed blocks",
            hess_restrict, config.exact_tol(1e-10))

    hc_direct = hessian_condition_defect(twists["direct"], 8, seed)
    hc_warped = hessian_condition_defect(twists["warped-exp"], 8, seed)
    rep.add("hessian-condition-direct", "H^k(X) = -X(k) grad k holds trivially for k = 0",
            hc_direct.defect, config.exact_tol(1e-12))
    rep.add("hessian-condition-warped", "defect |H^k(X) + X(k) grad k| = 1 for k = x on a line",
            abs(hc_warped.defect - 1.0), config.exact_tol(1e-9))

    wp_flat = weyl_parallel_defect(twists["direct-4d"], samples=3, seed=seed)
    wp_const = weyl_parallel_defect(twists["hyperbolic-4d"], samples=3, seed=seed)
    wp_twisted = weyl_parallel_defect(twists["twisted-4d"], samples=3, seed=seed)
    rep.add("weyl-parallel-flat", "the conformal tensor of a flat product is parallel",
            wp_flat, config.exact_tol(1e-10))
    rep.add("weyl-parallel-constant-curvature",
            "constant-curvature products have parallel (vanishing) conformal tensor",
            wp_const, config.exact_tol(1e-10))
    rep.add("weyl-parallel-twisted", "generic proper twists have non-parallel conformal tensor",
            wp_twisted, None, informational=True)

    # ---------------------------------------------------------- dualistic suite
    induced_duality = 0.0
    induced_curv_duality = 0.0
    proj_worst = 0.0
    inherit_all = True
    verdicts = []
    for entry in suite:
        st = entry["structure"]
        P = st.product
        x = P.manifold.sample_array(min(samples, 24), seed)
        R, Rs = riemann_at(st.primal, x), riemann_at(st.dual, x)
        verdicts.append(verdict_from_tensors(torsion_at(st.primal, x), torsion_at(st.dual, x),
                                             R, Rs, min(samples, 24), seed))
        induced_duality = max(induced_duality,
                              duality_residual(P.manifold, st.primal, st.dual, x))
        induced_curv_duality = max(induced_curv_duality, curvature_duality_residual(
            P.manifold.metric_at(x), R, Rs))
        proj_worst = max(proj_worst,
                         projection_check(st, min(samples, 12), seed).max_residual())
        inherit_all = inherit_all and torsion_inheritance_check(
            st, min(samples, 12), seed).inherited
    rep.add("induced-duality", "the induced pair (D, D*) satisfies the duality relation",
            induced_duality, config.exact_tol(1e-9))
    rep.add("induced-curvature-duality", "g(R(X,Y)Z,W) = -g(R*(X,Y)W,Z) for induced pairs",
            induced_curv_duality, config.exact_tol(1e-7))
    rep.add("projection-recovery", "projections of (D, D*) recover the factor structures",
            proj_worst, config.exact_tol(1e-9))
    rep.add_flag("torsion-inheritance",
                 "torsion-free factors induce torsion-free D and D*", inherit_all)
    rep.add_flag("induced-flat-flags", "R = 0 exactly when R* = 0 for induced pairs",
                 all(fv.flat_flags_agree for fv in verdicts))
    rep.add_flag("dually-flat-verdicts", "direct flatness verdicts match the fixture suite",
                 all(fv.dually_flat == e["expect_dually_flat"] for fv, e in zip(verdicts, suite)))

    sphere_struct = make_dualistic(sphere, sphere.levi_civita_connection, samples=16, seed=seed)
    fv_sphere = dually_flat_verdict(sphere_struct, min(samples, 24), 1e-9, seed)
    rep.add("sphere-not-dually-flat", "the metric pair on the sphere has max |R| = 1",
            abs(fv_sphere.riemann_primal_max - 1.0), 0.1,
            notes="not dually flat; curvature does not vanish")

    lemma = lemma_dual_block_report(
        next(e["structure"] for e in suite if e["name"] == "flat-fiber-twist"),
        samples=4, seed=seed)
    lemma_max = max(v for blocks in lemma.values()
                    for name, v in blocks.items() if "as-printed" not in name)
    rep.add("dual-curvature-blocks", "displayed blocks for R and R* on an induced pair",
            lemma_max, None, informational=True,
            notes="residuals reported per block; the displays repeat the metric-pattern "
                  "auxiliaries verbatim for R*")

    # ------------------------------------------------------- theorem analyzers
    for entry, direct in zip(suite, verdicts):
        st = entry["structure"]
        name = entry["name"]
        chain = reduction_chain(st, min(samples, 16), 1e-9, seed)
        rec = theorem41_analyze(st, direct, chain, samples=min(samples, 16), seed=seed)
        if entry["expect_agreement"] is True:
            rep.add_flag(f"theorem-mixed-ricci [{name}]",
                         "mixed-Ricci-flat biconditional matches the direct verdict",
                         rec.agreement is True)
        elif entry["expect_agreement"] is None:
            rep.add(f"theorem-mixed-ricci [{name}]",
                    "precondition fails; direct verdict reported on its own",
                    rec.mixed_ricci_max, None, informational=True,
                    notes="; ".join(rec.notes))
        else:
            rep.add(f"theorem-mixed-ricci [{name}]",
                    "documented gap: biconditional needs the warping compatibility",
                    None, None, informational=True,
                    notes="; ".join(rec.notes) or "prediction disagrees with direct verdict")
        if st.product.n >= 3:
            rec42 = theorem42_analyze(st, direct, chain, samples=min(samples, 12), seed=seed)
            if entry["expect_agreement"] is True:
                rep.add_flag(f"theorem-mixed-weyl [{name}]",
                             "Weyl-flat-along chain is consistent with the direct verdict",
                             rec42.agreement is not False,
                             notes="; ".join(rec42.notes))
            else:
                rep.add(f"theorem-mixed-weyl [{name}]",
                        "Weyl-flat-along chain reported",
                        max(rec42.weyl_xyv_max, rec42.weyl_vwx_max), None,
                        informational=True, notes="; ".join(rec42.notes))
        rec43 = theorem43_analyze(st, direct, chain, samples=min(samples, 12), seed=seed)
        if entry["expect_agreement"] is True:
            rep.add_flag(f"theorem-weyl-parallel [{name}]",
                         "parallel-Weyl/Hessian branch chain matches the direct verdict",
                         rec43.agreement is not False,
                         notes=f"branch={rec43.branch}")
        else:
            rep.add(f"theorem-weyl-parallel [{name}]",
                    "branch evaluation reported", rec43.hessian_defect, None,
                    informational=True, notes="; ".join(rec43.notes))
    return rep
