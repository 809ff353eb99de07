"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
governing tolerance.  Tolerances are pinned here and never loosened at run
time; the oracle side of every comparison is a direct computation
independent of the code path it checks.
"""

import numpy as np

from dualgeo.connections import (conjugate, cubic_form_at, duality_residual,
                                 levi_civita, torsion_at, torsion_relation_residual)
from dualgeo.curvature import riemann_at, scalar_at, sectional_at
from dualgeo.dualistic import (dually_flat_verdict, make_dualistic, projection_check,
                               reduction_chain, theorem41_analyze, torsion_inheritance_check)
from dualgeo.products import (MIXED_RICCI_SIGN, block_levi_civita_defect,
                              curvature_block_report, mixed_ricci_at, mixed_ricci_table,
                              mixed_weyl_report, twisted_product)
from dualgeo.cli import main
from dualgeo import fixtures as fx

SAMPLES = 64
SEED = 42


def report_line(number, name, ok, detail):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def conjugation_pairs():
    for M in fx.Fixtures().manifolds:
        for cname, C in fx.connection_suite(M):
            yield M, cname, C, conjugate(C, M)


def test_criterion_1_conjugation_soundness():
    tol = 1e-10
    worst_duality = worst_involution = 0.0
    count = 0
    for M, cname, C, Cstar in conjugation_pairs():
        count += 1
        double = conjugate(Cstar, M)
        for pt in M.sample_array(SAMPLES, SEED):
            worst_duality = max(worst_duality, duality_residual(M, C, Cstar, pt))
            worst_involution = max(worst_involution, float(np.max(np.abs(
                double.gamma_at(pt) - C.gamma_at(pt)))))
    ok = worst_duality < tol and worst_involution < tol and count == 15
    report_line(1, "conjugation-soundness", ok,
                f"duality {worst_duality:.2e}, involution {worst_involution:.2e}, "
                f"tol {tol:.0e}, {count} fixture/connection pairs x {SAMPLES} samples")


def test_criterion_2_identity_suite():
    tol_exact = 1e-10
    tol_curv = 1e-7
    rng = np.random.default_rng(SEED)
    worst_cubic = worst_torsion_rel = worst_curv = 0.0
    for M, cname, C, Cstar in conjugation_pairs():
        for pt in M.sample_array(SAMPLES, SEED):
            cubic = cubic_form_at(M, C, pt)
            cubic_star = cubic_form_at(M, Cstar, pt)
            worst_cubic = max(worst_cubic, float(np.max(np.abs(cubic + cubic_star))))
            g = M.metric_at(pt)
            R = riemann_at(C, pt)
            Rstar = riemann_at(Cstar, pt)
            for _ in range(20):
                X, Y, Z, W = rng.uniform(-1, 1, (4, M.dim))
                lhs = np.einsum("lijk,i,j,k,lm,m->", R, X, Y, Z, g, W)
                rhs = np.einsum("lijk,i,j,k,lm,m->", Rstar, X, Y, W, g, Z)
                worst_curv = max(worst_curv, float(abs(lhs + rhs)))
            worst_torsion_rel = max(worst_torsion_rel, torsion_relation_residual(
                g, torsion_at(C, pt), torsion_at(Cstar, pt), cubic_star))
    ok = (worst_cubic < tol_exact and worst_torsion_rel < tol_exact
          and worst_curv < tol_curv)
    report_line(2, "identity-suite", ok,
                f"cubic-sign {worst_cubic:.2e} and torsion-relation "
                f"{worst_torsion_rel:.2e} vs {tol_exact:.0e}; "
                f"curvature-duality {worst_curv:.2e} vs {tol_curv:.0e}")


def test_criterion_3_classical_curvature():
    tol = 1e-6
    sphere, hyp, fisher = fx.sphere2(), fx.hyperbolic2(), fx.fisher_normal()
    dev = 0.0
    for pt in sphere.sample_array(10, SEED):
        dev = max(dev, abs(scalar_at(sphere, levi_civita(sphere), pt) - 2.0),
                  abs(sectional_at(sphere, pt, [1, 0], [0, 1]) - 1.0))
    for pt in hyp.sample_array(10, SEED):
        dev = max(dev, abs(scalar_at(hyp, levi_civita(hyp), pt) + 2.0))
    for pt in fisher.sample_array(10, SEED):
        dev = max(dev, abs(sectional_at(fisher, pt, [1, 0], [0, 1]) + 0.5))
    report_line(3, "classical-curvature", dev < tol,
                f"max deviation {dev:.2e} vs {tol:.0e} at 10 points per fixture")


def _criterion4_products():
    twists = ("1", "exp(x)", "exp(x*u)", "(1 + x^2)*(1 + u^2)")
    for twist in twists:
        yield twisted_product(fx.euclidean(1, ("x",), "B1"),
                              fx.euclidean(1, ("u",), "F1"), twist)
        yield twisted_product(fx.euclidean(1, ("x",), "B1"),
                              fx.euclidean(2, ("u", "v"), "F2"), twist)


def test_criterion_4_twisted_block_formulas():
    tol_lc = 1e-8
    tol_block = 1e-7
    worst_lc = 0.0
    worst = {"R(X,Y)Z": 0.0, "R(X,Y)U": 0.0, "R(U,V)X": 0.0, "R(X,U)Y": 0.0}
    for P in _criterion4_products():
        worst_lc = max(worst_lc, block_levi_civita_defect(P, samples=16, seed=SEED))
        rep = curvature_block_report(P, samples=10, seed=SEED)
        for name in worst:
            worst[name] = max(worst[name], rep.residuals[name])
    ok = worst_lc < tol_lc and all(v < tol_block for v in worst.values())
    report_line(4, "twisted-block-formulas", ok,
                f"block-LC defect {worst_lc:.2e} vs {tol_lc:.0e}; blocks "
                + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
                + f" vs {tol_block:.0e} (R(X,U)Y uses denominator b)")


def test_criterion_5_mixed_ricci():
    tol_sep = 1e-9
    tol_val = 1e-6
    worst_sep = 0.0
    for twist in ("1", "exp(x)", "exp(x)*(1 + u^2)", "(1 + x^2)*(1 + u^2)"):
        P = twisted_product(fx.euclidean(1, ("x",), "B1"),
                            fx.euclidean(2, ("u", "v"), "F2"), twist)
        worst_sep = max(worst_sep,
                        mixed_ricci_table(P, samples=16, seed=SEED)["max_direct"])
    P = twisted_product(fx.euclidean(1, ("x",), "B1"),
                        fx.euclidean(2, ("u", "v"), "F2"), "exp(x*u)")
    direct, closed = mixed_ricci_at(P, P.manifold.center(), [1.0], [1.0, 0.0])
    value_dev = abs(abs(direct) - abs(closed))
    exact_one = abs(abs(closed) - 1.0)
    sign_matches = abs(direct - MIXED_RICCI_SIGN * closed) < tol_val
    ok = worst_sep < tol_sep and value_dev < tol_val and exact_one < 1e-12 and sign_matches
    report_line(5, "mixed-ricci", ok,
                f"separable max {worst_sep:.2e} vs {tol_sep:.0e}; "
                f"|Ric(X,V)|={abs(direct):.9f} vs |(s-1)XV(k)|={abs(closed):.9f} "
                f"within {tol_val:.0e}; recorded sign {MIXED_RICCI_SIGN:+.0f}")


def test_criterion_6_theorem_41_pipeline():
    tol = 1e-10
    # separable fixture: flat dual factors, fiber-only twist
    B = fx.euclidean(1, ("x",), "B1")
    F = fx.euclidean(1, ("u",), "F1")
    from dualgeo.connections import explicit_connection
    from dualgeo.dualistic import induce_on_product
    from dualgeo.products import twisted_product
    dB = make_dualistic(B, explicit_connection(B, {}), samples=16)
    dF = make_dualistic(F, explicit_connection(F, {}), samples=16)
    st = induce_on_product(twisted_product(B, F, "exp(u)"), dB, dF, samples=SAMPLES)
    rec = theorem41_analyze(st, dually_flat_verdict(st, 32, SEED),
                            reduction_chain(st, 32, SEED),
                            samples=32, seed=SEED)
    sep_ok = (rec.applies and rec.chain.separable
              and rec.chain.cross_derivative_max < tol
              and rec.chain.reconstruction_residual < tol
              and rec.agreement is True)

    # non-separable fixture: cross-derivative exactly 1, precondition fails
    F2 = fx.euclidean(2, ("u", "v"), "F2")
    dF2 = make_dualistic(F2, explicit_connection(F2, {}), samples=16)
    st2 = induce_on_product(twisted_product(B, F2, "exp(x*u)"), dB, dF2, samples=SAMPLES)
    rec2 = theorem41_analyze(st2, dually_flat_verdict(st2, 32, SEED),
                             reduction_chain(st2, 32, SEED),
                             samples=32, seed=SEED)
    cross = rec2.chain.cross_derivative_max
    nonsep_ok = (not rec2.applies and abs(cross - 1.0) < tol
                 and any("precondition" in n for n in rec2.notes))
    ok = sep_ok and nonsep_ok
    report_line(6, "theorem-4.1-pipeline", ok,
                f"separable: cross {rec.chain.cross_derivative_max:.2e}, "
                f"reconstruction {rec.chain.reconstruction_residual:.2e}, "
                f"verdict agreement {rec.agreement}; "
                f"non-separable: cross-derivative {cross:.12f} (expect 1), "
                f"precondition failure reported")


def test_criterion_7_theorem_42_mixed_weyl():
    tol_cond = 1e-7
    tol_disp = 1e-6
    worst_cond = 0.0
    for twist in ("1", "exp(x)"):
        P = twisted_product(fx.euclidean(1, ("x",), "B1"),
                            fx.euclidean(3, ("u", "v", "w"), "F3"), twist)
        rep = mixed_weyl_report(P, samples=8, seed=SEED)
        worst_cond = max(worst_cond, rep.cond_xyv_max, rep.cond_vwx_max)
    P4 = twisted_product(fx.euclidean(2, ("x", "y"), "B2"),
                         fx.euclidean(2, ("u", "v"), "F2"), "exp(x*u)")
    rep4 = mixed_weyl_report(P4, samples=8, seed=SEED)
    display_res = max(rep4.display_xyv_residual, rep4.display_vwx_residual)
    ok = worst_cond < tol_cond and display_res < tol_disp
    report_line(7, "theorem-4.2-mixed-weyl", ok,
                f"separable conditions {worst_cond:.2e} vs {tol_cond:.0e}; "
                f"(1-s)/(n-2) display vs standard conformal oracle {display_res:.2e} "
                f"vs {tol_disp:.0e} (adopted form passes)")


def test_criterion_8_dual_flatness_verdicts(dualistic_suite, sphere):
    tol = 1e-9
    flat_entry = next(e for e in dualistic_suite if e["name"] == "flat-pair-direct")
    fv = dually_flat_verdict(flat_entry["structure"], samples=SAMPLES, seed=SEED)
    flat_ok = (fv.dually_flat and fv.riemann_primal_max < tol
               and fv.riemann_dual_max < tol)
    sphere_struct = make_dualistic(sphere, levi_civita(sphere), samples=16)
    fs = dually_flat_verdict(sphere_struct, samples=32, seed=SEED)
    sphere_ok = (not fs.dually_flat
                 and abs(fs.riemann_primal_max - 1.0) <= 0.1)
    flags_ok = all(dually_flat_verdict(e["structure"], samples=24,
                                       seed=SEED).flat_flags_agree
                   for e in dualistic_suite) and fv.flat_flags_agree and fs.flat_flags_agree
    ok = flat_ok and sphere_ok and flags_ok
    report_line(8, "dual-flatness-verdicts", ok,
                f"flat product max(|R|,|R*|) = "
                f"{max(fv.riemann_primal_max, fv.riemann_dual_max):.2e} vs {tol:.0e}; "
                f"sphere max |R| = {fs.riemann_primal_max:.6f} (within 10% of 1); "
                f"R=0 iff R*=0 on every fixture: {flags_ok}")


def test_criterion_9_projections(dualistic_suite):
    tol = 1e-9
    worst = 0.0
    inherited = True
    for entry in dualistic_suite:
        worst = max(worst, projection_check(entry["structure"],
                                            samples=16, seed=SEED).max_residual())
        inherited = inherited and torsion_inheritance_check(
            entry["structure"], samples=16, seed=SEED).inherited
    ok = worst < tol and inherited
    report_line(9, "induced-structure-projections", ok,
                f"block-recovery residual {worst:.2e} vs {tol:.0e}; "
                f"torsion-free inheritance: {inherited}")


def test_criterion_10_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["verify-paper", "--samples", "32", "--report", str(a)])
    code_b = main(["verify-paper", "--samples", "32", "--report", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code_a == 0 and code_b == 0
    report_line(10, "determinism", ok,
                f"two verify runs byte-identical: {identical}, exit codes "
                f"{code_a}/{code_b}")
