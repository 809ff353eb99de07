"""Twisted products of chart manifolds and their block identities.

A twisted product carries the metric g_B (+) b^2 g_F on the concatenated
chart, where the positive twisting function b may depend on both factors
(warped product: base coordinates only; direct product: b = 1).  Everything
downstream can be computed two independent ways:

  * directly, on the flattened product chart, and
  * block-wise, from factor data plus derivatives of k = log b.

The *_report operations measure the disagreement between the two routes for
each displayed block identity instead of assuming the identities hold; the
two variants of the fiber-fiber curvature block are both evaluated and the
better one flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprlang
from .exprlang import (Const, Expr, compile_array, differentiate, evaluate, fn, free_vars, mul,
                       pow_, simplify, sub, substitute)
from .geometry import GeometryError, ManifoldSpec, TangentVector, _coords_of
from .connections import ConnectionField, levi_civita
from .curvature import DimensionError, ricci_at, riemann_at, weyl_at
from . import numdiff

__all__ = [
    "ProductSpec", "twisted_product", "lift", "project_base", "project_fiber",
    "lift_lemma_residual", "block_connection", "block_levi_civita",
    "block_levi_civita_defect", "HessianData", "hessian_at",
    "CurvatureBlockReport", "curvature_block_report", "riemann_block_residuals",
    "MIXED_RICCI_SIGN", "mixed_ricci_at", "mixed_ricci_table",
    "ricci_base_block_residual", "MixedWeylReport", "mixed_weyl_report",
    "SeparabilityResult", "separability_test", "to_warped",
    "product_metric_residual", "HessianConditionResult",
    "hessian_condition_defect", "weyl_parallel_defect",
]

# Sign relating the direct product Ricci to the closed form (s-1)XV(k) under
# this package's curvature conventions: direct = MIXED_RICCI_SIGN * (s-1)XV(k),
# i.e. Ric(X,V) = (1-s)XV(k).  Fixed once by the direct-computation oracle.
MIXED_RICCI_SIGN = -1.0


@dataclass(eq=False)
class ProductSpec:
    """A twisted product together with the flattened chart it computes on."""

    base: ManifoldSpec
    fiber: ManifoldSpec
    twist: Expr
    manifold: ManifoldSpec
    log_twist: Expr
    classification: str  # direct | warped | proper-twisted

    @property
    def r(self) -> int:
        return self.base.dim

    @property
    def s(self) -> int:
        return self.fiber.dim

    @property
    def n(self) -> int:
        return self.manifold.dim

    def split(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = _coords_of(x)
        return x[: self.r], x[self.r:]

    # -- cached symbolic derivative data for b and k = log b -----------------

    @cached_property
    def _k1(self):
        return [differentiate(self.log_twist, c) for c in self.manifold.coords]

    @cached_property
    def _k2(self):
        return [[differentiate(e, c) for c in self.manifold.coords] for e in self._k1]

    @cached_property
    def _b1(self):
        return [differentiate(self.twist, c) for c in self.manifold.coords]

    @cached_property
    def _b2(self):
        return [[differentiate(e, c) for c in self.manifold.coords] for e in self._b1]

    # Entries are listed in the order the tuples return them, so a point
    # outside the domain raises the error of the first failing entry.

    @cached_property
    def _twist_data_kernel(self):
        return compile_array([self.twist, *self._k1, *(e for row in self._k2 for e in row)],
                             self.manifold.coords)

    @cached_property
    def _twist_hessian_b_kernel(self):
        return compile_array([*self._b1, *(e for row in self._b2 for e in row)],
                             self.manifold.coords)

    def twist_data_at(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        """(b, d_i k, d_i d_j k) at a product point."""
        n = self.n
        t = self._twist_data_kernel(_coords_of(x))
        return float(t[0]), t[1:n + 1], t[n + 1:].reshape(n, n)

    def twist_hessian_b_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(d_i b, d_i d_j b) at a product point."""
        n = self.n
        t = self._twist_hessian_b_kernel(_coords_of(x))
        return t[:n], t[n:].reshape(n, n)

    # -- cached connections ---------------------------------------------------

    @cached_property
    def chart_levi_civita(self) -> ConnectionField:
        """Levi-Civita computed directly on the flattened chart (oracle route)."""
        return levi_civita(self.manifold)

    @cached_property
    def base_levi_civita(self) -> ConnectionField:
        return levi_civita(self.base)

    @cached_property
    def fiber_levi_civita(self) -> ConnectionField:
        return levi_civita(self.fiber)

    @cached_property
    def block_levi_civita_connection(self) -> ConnectionField:
        """Levi-Civita assembled block-wise from factor data (formula route)."""
        return block_connection(self, self.base_levi_civita, self.fiber_levi_civita)

    def gradient_of_log_twist(self, x) -> np.ndarray:
        """Product-metric gradient of k = log b (components over all n coordinates)."""
        xb, xf = self.split(x)
        b, k1, _ = self.twist_data_at(x)
        gBinv = self.base.inverse_metric_at(xb)
        gFinv = self.fiber.inverse_metric_at(xf)
        return np.concatenate([gBinv @ k1[: self.r], (gFinv @ k1[self.r:]) / b**2])

    def pad_base(self, v) -> np.ndarray:
        return np.concatenate([np.asarray(v, dtype=float), np.zeros(self.s)])

    def pad_fiber(self, v) -> np.ndarray:
        return np.concatenate([np.zeros(self.r), np.asarray(v, dtype=float)])

    def __repr__(self) -> str:
        return (f"ProductSpec({self.base.name} x {self.fiber.name}, "
                f"b={self.twist}, {self.classification})")


def twisted_product(B: ManifoldSpec, F: ManifoldSpec, twist) -> ProductSpec:
    """Build B x_b F with metric g_B (+) b^2 g_F on the concatenated chart."""
    clash = set(B.coords) & set(F.coords)
    if clash:
        raise GeometryError(f"factor coordinate names clash: {sorted(clash)}")
    coords = B.coords + F.coords
    if isinstance(twist, str):
        twist = exprlang.parse(twist, coords)
    twist = simplify(twist)
    r, s = B.dim, F.dim
    zero = Const(0.0)
    b_sq = pow_(twist, Const(2.0))
    metric = [[zero] * (r + s) for _ in range(r + s)]
    for i in range(r):
        for j in range(r):
            metric[i][j] = B.metric[i][j]
    for u in range(s):
        for v in range(s):
            metric[r + u][r + v] = simplify(mul(b_sq, F.metric[u][v]))
    product = ManifoldSpec(f"{B.name}*{F.name}", coords, B.domain + F.domain,
                           tuple(tuple(row) for row in metric))

    for pt in product.sample_points(32, seed=7):
        value = evaluate(twist, product.env(pt.coords))
        if value <= 0.0:
            raise GeometryError(f"twist {twist} is not positive at {pt.coords.tolist()}")

    deps = free_vars(twist)
    if not deps and abs(evaluate(twist, {}) - 1.0) < 1e-15:
        tag = "direct"
    elif not (deps & set(F.coords)):
        tag = "warped"
    else:
        tag = "proper-twisted"
    return ProductSpec(B, F, twist, product, fn("log", twist), tag)


# ---------------------------------------------------------------------------
# lifts and projections


def lift(P: ProductSpec, v: TangentVector, at=None) -> TangentVector:
    """Zero-padded horizontal/vertical lift of a factor tangent vector.

    The lift of a factor vector is a field on the whole product; `at` picks
    the product point (defaults to the factor point completed by the other
    factor's box center).
    """
    factor = v.point.manifold
    if factor is P.base:
        pad = P.pad_base(v.components)
        other = [(lo + hi) / 2 for lo, hi in P.fiber.domain]
        coords = np.concatenate([v.point.coords, other])
    elif factor is P.fiber:
        pad = P.pad_fiber(v.components)
        other = [(lo + hi) / 2 for lo, hi in P.base.domain]
        coords = np.concatenate([other, v.point.coords])
    else:
        raise GeometryError("vector does not live on either factor of this product")
    if at is not None:
        coords = _coords_of(at)
    return TangentVector(P.manifold.point(coords), pad)


def project_base(P: ProductSpec, v: TangentVector) -> TangentVector:
    xb, _ = P.split(v.point.coords)
    return TangentVector(P.base.point(xb), v.components[: P.r])


def project_fiber(P: ProductSpec, v: TangentVector) -> TangentVector:
    _, xf = P.split(v.point.coords)
    return TangentVector(P.fiber.point(xf), v.components[P.r:])


def lift_lemma_residual(P: ProductSpec, samples: int = 16, seed: int = 42) -> float:
    """Derivatives of factor metrics commute with lifting.

    Horizontal: X.g(Y,Z) on horizontal lifts (the base block of the product
    metric derivative) equals X.g_B(Y,Z) on the base.  Vertical: the
    derivative of the pulled-back fiber metric along a vertical lift equals
    the fiber-side derivative.  Each side is compared as a whole tensor (l1
    norm of the difference).
    """
    r = P.r
    # sigma-pullback of d g_F, evaluated on the product chart
    pulled_at = compile_array(P.fiber._metric_d1, P.manifold.coords)
    worst = 0.0
    for pt in P.manifold.sample_points(samples, seed):
        xb, xf = P.split(pt.coords)
        dg = P.manifold.metric_derivatives_at(pt)
        dgB = P.base.metric_derivatives_at(xb)
        dgF = P.fiber.metric_derivatives_at(xf)
        pulled = pulled_at(pt.coords)
        worst = max(worst, float(np.sum(np.abs(dg[:r, :r, :r] - dgB))),
                    float(np.sum(np.abs(pulled - dgF))))
    return worst


# ---------------------------------------------------------------------------
# block-wise connections


def block_connection(P: ProductSpec, base_conn: ConnectionField,
                     fiber_conn: ConnectionField) -> ConnectionField:
    """Connection on the product assembled from factor connections.

    Blocks: D_X Y lifts the base connection, D_X U = D_U X = X(k)U, and
    D_U V = lift of the fiber connection + U(k)V + V(k)U - g(U,V) grad k,
    with g the product metric and grad k its gradient.
    """
    if base_conn.manifold is not P.base:
        raise GeometryError("base connection does not live on the base factor")
    if fiber_conn.manifold is not P.fiber:
        raise GeometryError("fiber connection does not live on the fiber factor")
    r, s, n = P.r, P.s, P.n
    eye_s = np.eye(s)

    def gamma(x: np.ndarray) -> np.ndarray:
        xb, xf = P.split(x)
        b, k1, _ = P.twist_data_at(x)
        gF = P.fiber.metric_at(xf)
        gFinv = P.fiber.inverse_metric_at(xf)
        gBinv = P.base.inverse_metric_at(xb)
        kb, kf = k1[:r], k1[r:]
        G = np.zeros((n, n, n))
        G[:r, :r, :r] = base_conn.gamma_at(xb)
        G[r:, :r, r:] = np.einsum("a,wv->wav", kb, eye_s)
        G[r:, r:, :r] = np.einsum("a,wv->wva", kb, eye_s)
        G[r:, r:, r:] = (fiber_conn.gamma_at(xf)
                         + np.einsum("u,wv->wuv", kf, eye_s)
                         + np.einsum("v,wu->wuv", kf, eye_s)
                         - np.einsum("uv,w->wuv", gF, gFinv @ kf))
        G[:r, r:, r:] = -(b**2) * np.einsum("uv,c->cuv", gF, gBinv @ kb)
        return G

    def dgamma(x: np.ndarray) -> np.ndarray:
        xb, xf = P.split(x)
        b, k1, k2 = P.twist_data_at(x)
        gF = P.fiber.metric_at(xf)
        gFinv = P.fiber.inverse_metric_at(xf)
        gBinv = P.base.inverse_metric_at(xb)
        dgB = P.base.metric_derivatives_at(xb)
        dgF = P.fiber.metric_derivatives_at(xf)
        kb, kf = k1[:r], k1[r:]
        gradFk = gFinv @ kf
        gradBk = gBinv @ kb
        dGb = base_conn.dgamma_at(xb)
        dGf = fiber_conn.dgamma_at(xf)
        out = np.zeros((n, n, n, n))
        for q in range(n):
            blk = out[q]
            # base block
            if q < r:
                blk[:r, :r, :r] = dGb[q]
            # mixed blocks: d_q (k1[a] delta_wv)
            blk[r:, :r, r:] = np.einsum("a,wv->wav", k2[q, :r], eye_s)
            blk[r:, r:, :r] = np.einsum("a,wv->wva", k2[q, :r], eye_s)
            # fiber block
            term = (np.einsum("u,wv->wuv", k2[q, r:], eye_s)
                    + np.einsum("v,wu->wuv", k2[q, r:], eye_s))
            if q >= r:
                qf = q - r
                dgFinv_q = -gFinv @ dgF[qf] @ gFinv
                term = term + dGf[qf]
                term = term - np.einsum("uv,w->wuv", dgF[qf], gradFk)
                term = term - np.einsum("uv,w->wuv", gF, dgFinv_q @ kf)
            term = term - np.einsum("uv,w->wuv", gF, gFinv @ k2[q, r:])
            blk[r:, r:, r:] = term
            # base components of the fiber block:
            #   d_q ( -b^2 gF_uv (gB^{-1} kb)_c ),  d_q b^2 = 2 b^2 k1[q]
            grad_term = gBinv @ k2[q, :r]
            if q < r:
                grad_term = grad_term + (-gBinv @ dgB[q] @ gBinv) @ kb
            part = 2.0 * k1[q] * np.einsum("uv,c->cuv", gF, gradBk)
            part = part + np.einsum("uv,c->cuv", gF, grad_term)
            if q >= r:
                part = part + np.einsum("uv,c->cuv", dgF[q - r], gradBk)
            blk[:r, r:, r:] = -(b**2) * part
        return out

    return ConnectionField(P.manifold, "induced-product", gamma, dgamma)


def block_levi_civita(P: ProductSpec, p) -> np.ndarray:
    """Gamma of the product Levi-Civita assembled from the block formulas."""
    return P.block_levi_civita_connection.gamma_at(p)


def block_levi_civita_defect(P: ProductSpec, samples: int = 32, seed: int = 42) -> float:
    """Max deviation between the block assembly and the direct chart computation."""
    worst = 0.0
    for pt in P.manifold.sample_points(samples, seed):
        delta = P.block_levi_civita_connection.gamma_at(pt) - P.chart_levi_civita.gamma_at(pt)
        worst = max(worst, float(np.max(np.abs(delta))))
    return worst


# ---------------------------------------------------------------------------
# Hessian of k


@dataclass(frozen=True)
class HessianData:
    point: np.ndarray
    base_block: np.ndarray   # XY(k) - (B-nabla_X Y)(k), base directions
    mixed_block: np.ndarray  # XV(k) - X(k)V(k)
    full: np.ndarray         # product-connection Hessian form of k
    operator: np.ndarray     # operator[a] = components of H^k(d_a), base a


def hessian_at(P: ProductSpec, p) -> HessianData:
    """Hessian form of k = log b and its metric-dual operator on base inputs.

    The full product Hessian restricts to the displayed base and mixed
    blocks; the restriction defect is part of the verification suite.
    """
    x = _coords_of(p)
    xb, _ = P.split(x)
    r = P.r
    b, k1, k2 = P.twist_data_at(x)
    gam_b = P.base_levi_civita.gamma_at(xb)
    base_block = k2[:r, :r] - np.einsum("cab,c->ab", gam_b, k1[:r])
    mixed_block = k2[:r, r:] - np.outer(k1[:r], k1[r:])
    gam = P.chart_levi_civita.gamma_at(x)
    full = k2 - np.einsum("mij,m->ij", gam, k1)
    ginv = P.manifold.inverse_metric_at(x)
    operator = full[:r, :] @ ginv.T
    return HessianData(x, base_block, mixed_block, full, operator)


# ---------------------------------------------------------------------------
# curvature blocks


@dataclass(frozen=True)
class CurvatureBlockReport:
    residuals: dict[str, float]
    passed: dict[str, bool]
    ruvw_printed: float
    ruvw_index_consistent: float
    ruvw_adopted: str
    tol: float
    samples: int

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def riemann_block_residuals(P: ProductSpec, conn: ConnectionField,
                            base_conn: ConnectionField, fiber_conn: ConnectionField,
                            samples: int = 16, seed: int = 42) -> dict[str, float]:
    """Residuals of the six displayed curvature blocks for a product connection.

    Each block of the directly computed curvature of ``conn`` is compared, as
    a whole tensor, with its displayed right side: the factor connections'
    curvatures plus metric-based auxiliary terms (Hessians of b and k,
    gradients of k).  A block's residual is the largest l1 norm over its three
    input slots at any output index, which bounds the residual of the
    displayed identity for lifted block vectors in [-1, 1].  The fiber-fiber
    block is evaluated both as printed and with the index-consistent pairing.
    """
    r, s, n = P.r, P.s, P.n
    worst = {"R(X,Y)Z": 0.0, "R(X,Y)U": 0.0, "R(X,U)Y": 0.0, "R(U,V)X": 0.0,
             "R(X,U)V": 0.0, "R(U,V)W[index-consistent]": 0.0,
             "R(U,V)W[as-printed]": 0.0}
    fiber_out = np.eye(n)[:, r:]  # fiber_out[l, u]: component l of the lifted d_u
    for pt in P.manifold.sample_points(samples, seed):
        x = pt.coords
        xb, xf = P.split(x)
        gFF = P.manifold.metric_at(x)[r:, r:]
        gBinv = P.base.inverse_metric_at(xb)
        R = riemann_at(conn, x)
        R_B = riemann_at(base_conn, xb)
        R_F = riemann_at(fiber_conn, xf)
        b, k1, k2 = P.twist_data_at(x)
        b1, b2 = P.twist_hessian_b_at(x)
        gam_b = P.base_levi_civita.gamma_at(xb)
        hess = hessian_at(P, x)
        gradk = P.gradient_of_log_twist(x)
        grad_b_norm_sq = float(b1[:r] @ gBinv @ b1[:r])  # |grad_B b|^2 in g_B
        hbB = b2[:r, :r] - np.einsum("cab,c->ab", gam_b, b1[:r])
        kUX = k2[r:, :r]  # UX(k) on coordinate directions
        gradB_Uk = np.zeros((n, s))  # gradB_Uk[l, u]: components of grad_B(d_u(k))
        gradB_Uk[:r] = gBinv @ kUX.T

        R_UVW = R[:, r:, r:, r:]
        common = (np.pad(R_F, ((r, 0), (0, 0), (0, 0), (0, 0)))
                  - (grad_b_norm_sq / b**2) * (np.einsum("vw,lu->luvw", gFF, fiber_out)
                                               - np.einsum("uw,lv->luvw", gFF, fiber_out))
                  + np.einsum("uw,lv->luvw", gFF, gradB_Uk))
        d = {
            "R(X,Y)Z": R[:, :r, :r, :r] - np.pad(R_B, ((0, s), (0, 0), (0, 0), (0, 0))),
            "R(X,Y)U": R[:, :r, :r, r:],
            "R(X,U)Y": R[:, :r, r:, :r] - np.einsum("ab,lu->laub", hbB / b, fiber_out),
            "R(U,V)X": (R[:, r:, r:, :r] - np.einsum("ua,lv->luva", kUX, fiber_out)
                        + np.einsum("va,lu->luva", kUX, fiber_out)),
            "R(X,U)V": (R[:, :r, r:, r:]
                        - np.einsum("av,lu->lauv", np.outer(k1[:r], k1[r:]) + hess.mixed_block,
                                    fiber_out)
                        + np.einsum("uv,al->lauv", gFF,
                                    np.outer(k1[:r], gradk) + hess.operator)),
            "R(U,V)W[index-consistent]": (R_UVW - common
                                          + np.einsum("vw,lu->luvw", gFF, gradB_Uk)),
            # the printed g(V,U) grad_B(U(k)) is quadratic in U, not trilinear:
            # it is evaluated on coordinate triples (constant in the W slot)
            "R(U,V)W[as-printed]": (R_UVW - common
                                    + np.einsum("vu,lu->luv", gFF, gradB_Uk)[..., None]),
        }
        for block, diff in d.items():
            l1 = np.sum(np.abs(diff), axis=(1, 2, 3))
            worst[block] = max(worst[block], float(np.max(l1)))
    return worst


def curvature_block_report(P: ProductSpec, samples: int = 16, seed: int = 42,
                           tol: float = 1e-7) -> CurvatureBlockReport:
    """Residuals of the six curvature block formulas against the chart oracle."""
    raw = riemann_block_residuals(P, P.chart_levi_civita, P.base_levi_civita,
                                  P.fiber_levi_civita, samples, seed)
    worst_variant = raw.pop("R(U,V)W[index-consistent]")
    worst_printed = raw.pop("R(U,V)W[as-printed]")
    adopted = "index-consistent" if worst_variant <= worst_printed else "as-printed"
    raw["R(U,V)W"] = min(worst_variant, worst_printed)
    passed = {name: value < tol for name, value in raw.items()}
    return CurvatureBlockReport(raw, passed, worst_printed, worst_variant,
                                adopted, tol, samples)


# ---------------------------------------------------------------------------
# Ricci blocks


def mixed_ricci_at(P: ProductSpec, p, X, V) -> tuple[float, float]:
    """(direct mixed Ricci, closed form (s-1)XV(k)) for base X, fiber V.

    The two agree up to the global sign MIXED_RICCI_SIGN; their zero sets
    coincide exactly.
    """
    x = _coords_of(p)
    X = np.asarray(getattr(X, "components", X), dtype=float)
    V = np.asarray(getattr(V, "components", V), dtype=float)
    ric = ricci_at(P.manifold, P.chart_levi_civita, x)
    direct = float(X @ ric[: P.r, P.r:] @ V)
    _, _, k2 = P.twist_data_at(x)
    closed = (P.s - 1) * float(X @ k2[: P.r, P.r:] @ V)
    return direct, closed


def mixed_ricci_table(P: ProductSpec, samples: int = 16, seed: int = 42) -> dict[str, float]:
    """Worst-case mixed Ricci values over samples and coordinate directions."""
    max_direct = 0.0
    max_closed = 0.0
    max_sign_residual = 0.0
    for pt in P.manifold.sample_points(samples, seed):
        ric = ricci_at(P.manifold, P.chart_levi_civita, pt)
        _, _, k2 = P.twist_data_at(pt)
        direct = ric[: P.r, P.r:]
        closed = (P.s - 1) * k2[: P.r, P.r:]
        max_direct = max(max_direct, float(np.max(np.abs(direct))))
        max_closed = max(max_closed, float(np.max(np.abs(closed))))
        max_sign_residual = max(max_sign_residual,
                                float(np.max(np.abs(direct - MIXED_RICCI_SIGN * closed))))
    return {"max_direct": max_direct, "max_closed_form": max_closed,
            "max_residual_with_adopted_sign": max_sign_residual}


def ricci_base_block_residual(P: ProductSpec, samples: int = 16, seed: int = 42) -> float:
    """Residual of Ric(X,Y) = Ric_B(X,Y) - s [h^k_B(X,Y) + X(k)Y(k)] on base pairs."""
    r, s = P.r, P.s
    worst = 0.0
    for pt in P.manifold.sample_points(samples, seed):
        xb, _ = P.split(pt.coords)
        ric = ricci_at(P.manifold, P.chart_levi_civita, pt)
        ric_b = ricci_at(P.base, P.base_levi_civita, xb)
        _, k1, _ = P.twist_data_at(pt)
        hess = hessian_at(P, pt)
        formula = ric_b - s * (hess.base_block + np.outer(k1[:r], k1[:r]))
        worst = max(worst, float(np.max(np.abs(ric[:r, :r] - formula))))
    return worst


# ---------------------------------------------------------------------------
# mixed Weyl blocks


@dataclass(frozen=True)
class MixedWeylReport:
    display_xyv_residual: float   # C(X,Y)V = ((1-s)/(n-2))[XV(k)Y - YV(k)X]
    display_vwx_residual: float   # C(V,W)X = ((r-1)/(n-2))[XV(k)W - XW(k)V]
    cond_xyv_max: float           # max |C(X,Y)V| (fiber Weyl-flat along base)
    cond_vwx_max: float           # max |C(V,W)X| (base Weyl-flat along fiber)
    mixed_block_max: float        # max |C(X,V)| (mixed Weyl conformal flat)
    tol: float
    samples: int

    @property
    def xyv_flat(self) -> bool:
        return self.cond_xyv_max < self.tol

    @property
    def vwx_flat(self) -> bool:
        return self.cond_vwx_max < self.tol

    @property
    def mixed_weyl_flat(self) -> bool:
        return self.mixed_block_max < self.tol


def mixed_weyl_report(P: ProductSpec, samples: int = 12, seed: int = 42,
                      tol: float = 1e-7) -> MixedWeylReport:
    """Mixed-block displays and flatness verdicts of the product Weyl tensor."""
    n, r, s = P.n, P.r, P.s
    if n <= 2:
        raise DimensionError("mixed Weyl analysis needs product dimension >= 3")
    c_xyv = (1 - s) / (n - 2)
    c_vwx = (r - 1) / (n - 2)
    eye = np.eye(n)
    base, fib = eye[:, :r], eye[:, r:]  # coordinate directions as output components
    d1 = d2 = cond1 = cond2 = mixed = 0.0
    for pt in P.manifold.sample_points(samples, seed):
        W = weyl_at(P.manifold, P.chart_levi_civita, pt)
        _, _, k2 = P.twist_data_at(pt)
        cross = k2[:r, r:]  # XV(k) on coordinate directions
        xyv = c_xyv * (np.einsum("lb,aw->labw", base, cross)
                       - np.einsum("la,bw->labw", base, cross))
        vwx = c_vwx * (np.einsum("lw,av->lvwa", fib, cross)
                       - np.einsum("lv,aw->lvwa", fib, cross))
        d1 = max(d1, float(np.max(np.abs(W[:, :r, :r, r:] - xyv))))
        d2 = max(d2, float(np.max(np.abs(W[:, r:, r:, :r] - vwx))))
        cond1 = max(cond1, float(np.max(np.abs(W[:, :r, :r, r:]))))
        cond2 = max(cond2, float(np.max(np.abs(W[:, r:, r:, :r]))))
        mixed = max(mixed, float(np.max(np.abs(W[:, :r, r:, :]))))
    return MixedWeylReport(d1, d2, cond1, cond2, mixed, tol, samples)


# ---------------------------------------------------------------------------
# separability and warped reduction


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    max_cross_derivative: float
    alpha: Expr | None        # base part of k, anchored at the box center
    beta: Expr | None         # fiber part of k
    reconstruction_residual: float | None
    anchor: np.ndarray


def separability_test(P: ProductSpec, samples: int = 32, seed: int = 42,
                      tol: float = 1e-10) -> SeparabilityResult:
    """k(p,q) = alpha(p) + beta(q) iff all mixed cross-derivatives vanish.

    The additive split is anchored at the box center, with the constant
    shared equally between the two parts, so results are reproducible.
    """
    r = P.r
    anchor = P.manifold.center().coords
    worst = 0.0
    pts = P.manifold.sample_points(samples, seed)
    for pt in pts:
        _, _, k2 = P.twist_data_at(pt)
        worst = max(worst, float(np.max(np.abs(k2[:r, r:]))))
    if worst >= tol:
        return SeparabilityResult(False, worst, None, None, None, anchor)
    base_env = dict(zip(P.base.coords, anchor[:r].tolist()))
    fiber_env = dict(zip(P.fiber.coords, anchor[r:].tolist()))
    k0 = evaluate(P.log_twist, P.manifold.env(anchor))
    alpha = simplify(sub(substitute(P.log_twist, fiber_env), Const(k0 / 2.0)))
    beta = simplify(sub(substitute(P.log_twist, base_env), Const(k0 / 2.0)))
    recon = 0.0
    for pt in pts:
        env = P.manifold.env(pt.coords)
        recon = max(recon, abs(evaluate(P.log_twist, env)
                               - evaluate(alpha, env) - evaluate(beta, env)))
    return SeparabilityResult(True, worst, alpha, beta, float(recon), anchor)


def to_warped(P: ProductSpec, samples: int = 32, seed: int = 42,
              tol: float = 1e-9) -> ProductSpec:
    """Re-express a separable twisted product as a warped product.

    The twist splits as b = delta(base) * gamma(fiber); gamma^2 is absorbed
    into the fiber metric and delta becomes the warping function.  The
    product metric is identical to the original (checked on samples).
    """
    sep = separability_test(P, samples, seed)
    if not sep.separable:
        raise GeometryError(
            f"twist is not separable (max cross-derivative {sep.max_cross_derivative:.3e})")
    delta = simplify(fn("exp", sep.alpha))
    gamma_sq = simplify(fn("exp", mul(Const(2.0), sep.beta)))
    fiber = P.fiber
    rescaled = ManifoldSpec(
        f"{fiber.name}-rescaled", fiber.coords, fiber.domain,
        tuple(tuple(simplify(mul(gamma_sq, entry)) for entry in row) for row in fiber.metric))
    warped = twisted_product(P.base, rescaled, delta)
    residual = product_metric_residual(P, warped, samples, seed)
    if residual >= tol:
        raise ArithmeticError(f"warped reduction failed to reconstruct the metric "
                              f"(residual {residual:.3e})")
    return warped


def product_metric_residual(P1: ProductSpec, P2: ProductSpec,
                            samples: int = 32, seed: int = 42) -> float:
    """Max pointwise deviation between two product metrics on shared coordinates."""
    worst = 0.0
    for pt in P1.manifold.sample_points(samples, seed):
        g1 = P1.manifold.metric_at(pt)
        g2 = P2.manifold.metric_at(pt.coords)
        worst = max(worst, float(np.max(np.abs(g1 - g2))))
    return worst


# ---------------------------------------------------------------------------
# theorem-condition defects


@dataclass(frozen=True)
class HessianConditionResult:
    defect: float
    holds: bool
    tol: float


def hessian_condition_defect(P: ProductSpec, samples: int = 16, seed: int = 42,
                             tol: float = 1e-8) -> HessianConditionResult:
    """Max |H^k(X) + X(k) grad k| over base coordinate directions."""
    r = P.r
    worst = 0.0
    for pt in P.manifold.sample_points(samples, seed):
        hess = hessian_at(P, pt)
        _, k1, _ = P.twist_data_at(pt)
        gradk = P.gradient_of_log_twist(pt.coords)
        defect = hess.operator + np.outer(k1[:r], gradk)
        worst = max(worst, float(np.max(np.abs(defect))))
    return HessianConditionResult(worst, worst < tol, tol)


def weyl_parallel_defect(P: ProductSpec, samples: int = 8, seed: int = 42) -> float:
    """Max component of the covariant derivative of the Weyl tensor.

    The partial-derivative part uses a 4th-order finite difference of the
    directly computed Weyl components (no symbolic third derivatives); the
    connection corrections are pointwise and exact.
    """
    if P.n <= 3:
        raise DimensionError("Weyl-parallel check needs product dimension >= 4")
    M = P.manifold
    conn = P.chart_levi_civita
    worst = 0.0
    for pt in M.sample_points(samples, seed):
        x = pt.coords
        W = weyl_at(M, conn, x)
        gam = conn.gamma_at(x)
        for q in range(P.n):
            h = numdiff.step_for(x[q])
            dW = numdiff.central_diff(lambda z: weyl_at(M, conn, z), x, q, h, order=4)
            nabla = (dW
                     + np.einsum("lm,mijk->lijk", gam[:, q, :], W)
                     - np.einsum("mi,lmjk->lijk", gam[:, q, :], W)
                     - np.einsum("mj,limk->lijk", gam[:, q, :], W)
                     - np.einsum("mk,lijm->lijk", gam[:, q, :], W))
            worst = max(worst, float(np.max(np.abs(nabla))))
    return worst
