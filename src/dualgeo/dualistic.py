"""Dualistic structures: conjugate pairs, induced product structures, analyzers.

A dualistic structure is a metric together with an ordered pair of
connections satisfying X.g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla*_X Z).
Construction validates the pair numerically; the analyzers treat theorem
statements as predictions and always compare them against a directly
computed flatness verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldSpec
from .connections import (ConnectionField, _duality_defect, conjugate, involution_defect,
                          torsion_at)
from .curvature import FLAT_TOL, ConstantSectionalResult, is_constant_sectional, riemann_at
from .products import (_RECONSTRUCTION_TOL, ProductSpec, _max_abs, _per_point, _warped_reduction,
                       block_connection, block_gamma, hessian_condition_defect, mixed_ricci_table,
                       mixed_weyl_report, riemann_block_residuals, separability_test,
                       weyl_parallel_defect)

__all__ = [
    "DualisticStructure", "ProductDualisticStructure", "ConjugacyError",
    "FlatnessVerdict", "make_dualistic", "induce_on_product",
    "ProjectionReport", "projection_check", "TorsionInheritanceReport",
    "torsion_inheritance_check", "dually_flat_verdict", "verdict_from_tensors",
    "lemma_dual_block_report", "ReductionChain", "reduction_chain",
    "TheoremRecord", "theorem41_analyze", "theorem42_analyze", "theorem43_analyze",
    "BRANCH_TOL", "DUALITY_TOL",
]

# Theorem 4.3's tolerance for both branch conditions.
BRANCH_TOL = 1e-8
DUALITY_TOL = 1e-9  # make_dualistic accepts a pair whose duality residual is below this


class ConjugacyError(ArithmeticError):
    """Claimed conjugate pair violates the duality relation.

    ``worst_point`` holds the chart coordinates, a (d,) array, of the sample
    where the duality residual is largest (None for an involution defect).
    """

    def __init__(self, message: str, worst_point=None, residual: float | None = None):
        super().__init__(message)
        self.worst_point = worst_point
        self.residual = residual


@dataclass(eq=False)
class DualisticStructure:
    """A metric with a validated conjugate pair of connections."""

    manifold: ManifoldSpec
    primal: ConnectionField
    dual: ConnectionField
    residual: float
    involution_defect: float

    def __repr__(self) -> str:
        return (f"DualisticStructure({self.manifold.name!r}, "
                f"residual={self.residual:.2e})")


@dataclass(eq=False)
class ProductDualisticStructure(DualisticStructure):
    """Induced structure on a twisted product, with its factor structures."""

    product: ProductSpec
    base_structure: DualisticStructure
    fiber_structure: DualisticStructure


def make_dualistic(M: ManifoldSpec, C: ConnectionField,
                   Cstar: ConnectionField | None = None,
                   samples: int = 64, seed: int = 42) -> DualisticStructure:
    """Validate (g, C, C*) as a dualistic structure; C* defaults to conjugate(C).

    A duality residual that is not below ``DUALITY_TOL``, or an involution defect
    (conjugate of C* against C) that is not below 1e-10, NaN included,
    raises ConjugacyError; the duality error names the first sample point
    where the residual is largest.
    """
    if Cstar is None:
        Cstar = conjugate(C, M)
    x = M.sample_array(samples, seed)
    per_point = np.max(np.abs(_duality_defect(M, C, Cstar, x)), axis=(-3, -2, -1))
    first_worst = int(np.argmax(per_point))
    worst = float(per_point[first_worst])
    if not worst < DUALITY_TOL:
        raise ConjugacyError(
            f"duality residual {worst:.3e} >= {DUALITY_TOL:.1e} at {x[first_worst].tolist()}",
            worst_point=x[first_worst], residual=worst)
    involution = involution_defect(M, C, Cstar, x)
    if not involution < 1e-10:
        raise ConjugacyError(
            f"dual of the dual deviates from the primal by {involution:.3e}",
            residual=involution)
    return DualisticStructure(M, C, Cstar, worst, involution)


def induce_on_product(P: ProductSpec, dB: DualisticStructure, dF: DualisticStructure,
                      samples: int = 64, seed: int = 42) -> ProductDualisticStructure:
    """Build the induced dualistic structure (g, D, D*) on P = B x_b F.

    P is a twisted product of dB's and dF's charts.  D follows the twisted
    block pattern with factor primal connections substituted; D* is derived
    by conjugation rather than posited, which is the unique metric-consistent
    completion.  The projection checks confirm that D* nevertheless recovers
    the factor duals block-wise.
    """
    D = block_connection(P, dB.primal, dF.primal)
    d = make_dualistic(P.manifold, D, None, samples, seed)
    return ProductDualisticStructure(**vars(d), product=P, base_structure=dB, fiber_structure=dF)


# ---------------------------------------------------------------------------
# projections of an induced structure back onto the factors


@dataclass(frozen=True)
class ProjectionReport:
    base_recovery_primal: float
    base_recovery_dual: float
    fiber_recovery_primal: float
    fiber_recovery_dual: float
    base_conjugacy_residual: float
    fiber_conjugacy_residual: float

    def max_residual(self) -> float:
        return max(self.base_recovery_primal, self.base_recovery_dual,
                   self.fiber_recovery_primal, self.fiber_recovery_dual,
                   self.base_conjugacy_residual, self.fiber_conjugacy_residual)


def projection_check(induced: ProductDualisticStructure,
                     samples: int = 16, seed: int = 42) -> ProjectionReport:
    """Block recovery of the factor structures from the induced pair.

    D and D* on pairs of horizontal lifts, and on pairs of vertical lifts,
    must match the block display (``block_gamma``) of the factor primal and
    dual connections; D is built from the chart's Levi-Civita connection, so
    the two routes are independent.  The projected pairs must satisfy the
    factor duality relations, the fiber one with the b^-2 weighting.
    """
    P = induced.product
    dB, dF = induced.base_structure, induced.fiber_structure
    r = P.r
    x = P.manifold.sample_array(samples, seed)
    xb, xf = P.split(x)
    b, _, _ = P.twist_data_at(x)
    gB = P.base.metric_at(xb)
    gF = P.fiber.metric_at(xf)
    dgB = P.base.metric_derivatives_at(xb)
    dg = P.manifold.metric_derivatives_at(x)
    Gp = induced.primal.gamma_at(x)
    Gd = induced.dual.gamma_at(x)
    dev_p = Gp - block_gamma(P, x, dB.primal.gamma_at(xb), dF.primal.gamma_at(xf))
    dev_d = Gd - block_gamma(P, x, dB.dual.gamma_at(xb), dF.dual.gamma_at(xf))
    res_b = (dgB
             - np.einsum("...mab,...mc->...abc", Gp[..., :r, :r, :r], gB)
             - np.einsum("...mac,...bm->...abc", Gd[..., :r, :r, :r], gB))
    # b^-2 U.g(V,W) = g_F(sigma(D_U V), W) + g_F(V, sigma(D*_U W))
    res_f = (dg[..., r:, r:, r:] / _per_point(b**2)
             - np.einsum("...muv,...mw->...uvw", Gp[..., r:, r:, r:], gF)
             - np.einsum("...muw,...vm->...uvw", Gd[..., r:, r:, r:], gF))
    return ProjectionReport(_max_abs(dev_p[..., :r, :r]), _max_abs(dev_d[..., :r, :r]),
                            _max_abs(dev_p[..., r:, r:]), _max_abs(dev_d[..., r:, r:]),
                            _max_abs(res_b), _max_abs(res_f))


@dataclass(frozen=True)
class TorsionInheritanceReport:
    factor_torsion_max: float
    induced_primal_torsion_max: float
    induced_dual_torsion_max: float
    inherited: bool


def torsion_inheritance_check(induced: ProductDualisticStructure,
                              samples: int = 16, seed: int = 42) -> TorsionInheritanceReport:
    """Torsion-free factor connections (max |T| < 1e-10) must induce torsion-free D and D*."""
    tol = 1e-10
    P = induced.product
    dB, dF = induced.base_structure, induced.fiber_structure
    x = P.manifold.sample_array(samples, seed)
    xb, xf = P.split(x)
    factor_t = max(_max_abs(torsion_at(dB.primal, xb)), _max_abs(torsion_at(dB.dual, xb)),
                   _max_abs(torsion_at(dF.primal, xf)), _max_abs(torsion_at(dF.dual, xf)))
    tp = _max_abs(torsion_at(induced.primal, x))
    td = _max_abs(torsion_at(induced.dual, x))
    inherited = (factor_t >= tol) or (tp < tol and td < tol)
    return TorsionInheritanceReport(factor_t, tp, td, inherited)


# ---------------------------------------------------------------------------
# flatness


@dataclass(frozen=True)
class FlatnessVerdict:
    torsion_primal_max: float
    torsion_dual_max: float
    riemann_primal_max: float
    riemann_dual_max: float
    primal_flat: bool
    dual_flat: bool
    torsion_free: bool
    dually_flat: bool
    flat_flags_agree: bool
    samples: int
    seed: int
    tol: float  # always FLAT_TOL; kept in the serialized record


def dually_flat_verdict(d: DualisticStructure, samples: int = 64,
                        seed: int = 42) -> FlatnessVerdict:
    """Evaluate torsion and curvature of both connections over samples.

    Also cross-checks that R = 0 and R* = 0 verdicts agree, which must hold
    for any genuine conjugate pair.
    """
    x = d.manifold.sample_array(samples, seed)
    return verdict_from_tensors(torsion_at(d.primal, x), torsion_at(d.dual, x),
                                riemann_at(d.primal, x), riemann_at(d.dual, x),
                                samples, seed)


def verdict_from_tensors(T, Tstar, R, Rstar, samples: int, seed: int) -> FlatnessVerdict:
    """The flatness verdict from the torsions and curvatures of a pair over one sample set."""
    tp, td, rp, rd = (_max_abs(a) for a in (T, Tstar, R, Rstar))
    primal_flat, dual_flat = rp < FLAT_TOL, rd < FLAT_TOL
    torsion_free = tp < FLAT_TOL and td < FLAT_TOL
    return FlatnessVerdict(tp, td, rp, rd, primal_flat, dual_flat, torsion_free,
                           torsion_free and primal_flat and dual_flat,
                           primal_flat == dual_flat, samples, seed, FLAT_TOL)


def lemma_dual_block_report(induced: ProductDualisticStructure,
                            samples: int = 8, seed: int = 42) -> dict[str, dict[str, float]]:
    """Per-block residuals of the displayed curvature blocks for D and for D*.

    The displayed right-hand sides substitute the factor curvatures (primal
    or dual respectively) while keeping the metric-based auxiliary terms;
    residuals are reported, not asserted.
    """
    P = induced.product
    out = {}
    for label, conn, base_c, fiber_c in (
            ("primal", induced.primal, induced.base_structure.primal,
             induced.fiber_structure.primal),
            ("dual", induced.dual, induced.base_structure.dual,
             induced.fiber_structure.dual)):
        out[label] = riemann_block_residuals(P, conn, base_c, fiber_c,
                                             samples=samples, seed=seed)
    return out


# ---------------------------------------------------------------------------
# theorem analyzers
# Callers build the direct verdict and the reduction chain once per structure
# and pass both to every analyzer; an analyzer's samples govern its own
# hypothesis check only.


@dataclass(frozen=True)
class ReductionChain:
    separable: bool
    cross_derivative_max: float
    reconstruction_residual: float | None
    base_verdict: FlatnessVerdict
    fiber_constant_sectional: ConstantSectionalResult | None
    reduced_fiber_constant_sectional: ConstantSectionalResult | None
    fiber_dim_warning: str | None
    predicted_dually_flat: bool
    notes: tuple[str, ...]


def reduction_chain(induced: ProductDualisticStructure, samples: int,
                    seed: int) -> ReductionChain:
    """Shared tail of the three theorems: factorize, reduce, predict."""
    P = induced.product
    notes: list[str] = []
    sep = separability_test(P, samples=samples, seed=seed)
    recon = reduced = None
    if sep.separable:
        reduced, recon = _warped_reduction(P, sep, samples, seed)
        if recon >= _RECONSTRUCTION_TOL:
            reduced = None
            notes.append("the sampled split does not reconstruct the metric "
                         f"(residual {recon:.3e}); warped reduction unavailable")
    else:
        notes.append("twist is not separable; warped reduction unavailable")
    base_verdict = dually_flat_verdict(induced.base_structure, samples, seed)
    warning = fiber_cs = reduced_cs = None
    if P.s < 2:
        warning = ("fiber is 1-dimensional: the constant-sectional-curvature "
                   "condition is vacuous and the biconditional is outside the "
                   "theorem's stated hypotheses")
        fiber_ok = True
    else:
        fiber_cs = is_constant_sectional(P.fiber, samples, seed)
        fiber_ok = fiber_cs.constant
        if reduced is not None:
            reduced_cs = is_constant_sectional(reduced.fiber, samples, seed)
            if reduced_cs.constant != fiber_cs.constant:
                notes.append("original and rescaled fiber disagree on constant "
                             "sectional curvature; the literal statement uses the original")
    # The literal biconditional prediction is recorded even when the
    # factorization step of the proof is unavailable; a note marks the gap.
    predicted = bool(base_verdict.dually_flat and fiber_ok)
    return ReductionChain(sep.separable, sep.max_cross_derivative, recon,
                          base_verdict, fiber_cs, reduced_cs, warning,
                          predicted, tuple(notes))


@dataclass(frozen=True)
class TheoremRecord:
    """One theorem's hypothesis on a structure and its prediction against the direct verdict.

    ``hypothesis`` holds the measured values that decide ``applies``; the
    prediction and its agreement are None when the theorem does not apply.
    ``chain`` and ``direct`` are kept as given either way.
    """

    theorem: str  # "4.1", "4.2" or "4.3"
    hypothesis: dict[str, float | bool | None]
    applies: bool
    branch: int | None  # 4.3's branch, 1 or 2; None when inapplicable and for 4.1, 4.2
    chain: ReductionChain
    direct: FlatnessVerdict
    predicted_dually_flat: bool | None
    agreement: bool | None
    notes: tuple[str, ...]


def _record(theorem: str, hypothesis: dict, applies: bool, branch: int | None,
            chain: ReductionChain, direct: FlatnessVerdict, notes: list[str]) -> TheoremRecord:
    """The shared tail: predict from the chain if the theorem applies, compare, note a mismatch."""
    predicted = agreement = None
    if applies:
        predicted = chain.predicted_dually_flat
        agreement = predicted == direct.dually_flat
        if not agreement:
            notes.append("DISAGREEMENT: the biconditional's prediction does not match "
                         "the direct flatness verdict")
    return TheoremRecord(theorem, hypothesis, applies, branch, chain, direct, predicted,
                         agreement, tuple(notes))


def theorem41_analyze(induced: ProductDualisticStructure, direct: FlatnessVerdict,
                      chain: ReductionChain, samples: int = 32,
                      seed: int = 42) -> TheoremRecord:
    """Mixed-Ricci-flat hypothesis, then the chain against the direct verdict."""
    notes: list[str] = []
    worst = mixed_ricci_table(induced.product, samples=samples, seed=seed)["max_direct"]
    mixed_flat = worst < FLAT_TOL
    if not mixed_flat:
        notes.append(f"not mixed-Ricci-flat (max |Ric(X,V)| = {worst:.3e}); "
                     "theorem precondition fails")
    return _record("4.1", {"mixed_ricci_max": worst}, mixed_flat, None, chain, direct, notes)


def theorem42_analyze(induced: ProductDualisticStructure, direct: FlatnessVerdict,
                      chain: ReductionChain, samples: int = 12,
                      seed: int = 42) -> TheoremRecord:
    """Weyl-flat-along hypothesis (either direction), then the common chain.

    Raises DimensionError below product dimension 3, as ``mixed_weyl_report`` does.
    """
    report = mixed_weyl_report(induced.product, samples=samples, seed=seed)
    holds = report.xyv_flat or report.vwx_flat
    notes: list[str] = []
    if not holds:
        notes.append(f"neither Weyl-flat-along condition holds "
                     f"(|C(X,Y)V| = {report.cond_xyv_max:.3e}, "
                     f"|C(V,W)X| = {report.cond_vwx_max:.3e})")
    hypothesis = {"weyl_xyv_max": report.cond_xyv_max, "weyl_vwx_max": report.cond_vwx_max}
    return _record("4.2", hypothesis, holds, None, chain, direct, notes)


def theorem43_analyze(induced: ProductDualisticStructure, direct: FlatnessVerdict,
                      chain: ReductionChain, samples: int = 16, seed: int = 42) -> TheoremRecord:
    """Parallel-Weyl / Hessian-condition branches, then the common chain.

    ``BRANCH_TOL`` decides both conditions: the Hessian-condition defect, over
    ``samples`` points, and the exact covariant derivative of the Weyl
    tensor, over at most 6 of them.  That cap binds for every caller
    (``verify-paper`` and ``flatness`` pass 12) and bounds the cost of the
    exact derivative.
    """
    P = induced.product
    notes: list[str] = []
    hess_defect = hessian_condition_defect(P, samples=samples, seed=seed)
    hess_holds = hess_defect < BRANCH_TOL
    parallel_defect: float | None
    if P.n >= 4:
        parallel_defect = weyl_parallel_defect(P, samples=min(samples, 6), seed=seed)
        parallel = parallel_defect < BRANCH_TOL
    elif P.n == 3:
        parallel_defect = 0.0
        parallel = True
        notes.append("dim-3 Weyl tensor vanishes identically; parallel holds trivially")
    else:
        parallel_defect = None
        parallel = None
        notes.append("Weyl tensor undefined below dimension 3")
    branch = None
    if parallel is True and not hess_holds and P.r != 1:
        branch = 1
    elif hess_holds:
        branch = 2
    if branch is None:
        notes.append("branch 1 needs dim B != 1 and branch 2 fails: theorem inapplicable"
                     if P.r == 1 else "neither branch condition holds: theorem inapplicable")
    hypothesis = {"weyl_parallel_defect": parallel_defect, "weyl_parallel": parallel,
                  "hessian_defect": hess_defect, "hessian_condition_holds": hess_holds}
    return _record("4.3", hypothesis, branch is not None, branch, chain, direct, notes)
