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
from .exprlang import (Const, Expr, _Jets, compile_array, evaluate, fn, free_vars, mul, pow_,
                       simplify, sub, substitute)
from .geometry import GeometryError, ManifoldSpec, one_batch
from .connections import ConnectionField
from .curvature import (DimensionError, _pair, ricci_at, riemann_at, weyl_at,
                        weyl_derivative_at)

__all__ = [
    "ProductSpec", "twisted_product", "lift_lemma_residual", "block_gamma", "block_connection",
    "block_levi_civita", "block_levi_civita_defect", "HessianData", "hessian_at",
    "CurvatureBlockReport", "curvature_block_report", "riemann_block_residuals",
    "MIXED_RICCI_SIGN", "WEYL_FLAT_TOL", "mixed_ricci_at", "mixed_ricci_table",
    "ricci_base_block_residual", "MixedWeylReport", "mixed_weyl_report",
    "SeparabilityResult", "separability_test", "to_warped",
    "product_metric_residual", "hessian_condition_defect", "weyl_parallel_defect",
]

# Sign relating the direct product Ricci to the closed form (s-1)XV(k) under
# this package's curvature conventions: direct = MIXED_RICCI_SIGN * (s-1)XV(k),
# i.e. Ric(X,V) = (1-s)XV(k).  Fixed once by the direct-computation oracle.
MIXED_RICCI_SIGN = -1.0

# The Weyl-flat-along conditions (theorem 4.2's hypothesis) hold below this.
WEYL_FLAT_TOL = 1e-7

# A warped reduction reconstructs the product metric when its sampled residual is below this.
_RECONSTRUCTION_TOL = 1e-9


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
        """Base and fiber parts of a product point, batch of points or vector: the projections."""
        x = np.asarray(x, dtype=float)
        return x[..., : self.r], x[..., self.r:]

    # -- cached symbolic derivative data for b and k = log b -----------------

    @cached_property
    def _k_jets(self):
        # the jets of k; Hessian blocks (i, j) and (j, i) hold one entry, so it is exactly symmetric
        return _Jets((self.log_twist,), (), self.manifold.coords)

    # Entries are listed in the order the tuple returns them, so a point
    # outside the domain raises the error of the first failing entry.

    @cached_property
    def _twist_data_kernel(self):
        return compile_array([self.twist, *self._k_jets.d1, *self._k_jets.d2], self.manifold.coords)

    def twist_data_at(self, x) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
        """(b, d_i k, d_i d_j k) at a product point or points; b has the leading shape.

        Read through the product chart's sample stream, so the arrays are
        shared and read-only.
        """
        n = self.n
        t = one_batch(self.manifold, "twist", x, self._twist_data_kernel)
        return t[..., 0][()], t[..., 1:n + 1], t[..., n + 1:].reshape(t.shape[:-1] + (n, n))

    @cached_property
    def _pulled_fiber_d1_kernel(self):
        # sigma-pullback of d g_F, evaluated on the product chart
        return exprlang._kernel_of(self.fiber._jets.d1, (self.s,) * 3, self.manifold.coords)

    # -- cached connections ---------------------------------------------------

    @property
    def chart_levi_civita(self) -> ConnectionField:
        """Levi-Civita computed directly on the flattened chart (oracle route)."""
        return self.manifold.levi_civita_connection

    @property
    def base_levi_civita(self) -> ConnectionField:
        return self.base.levi_civita_connection

    @property
    def fiber_levi_civita(self) -> ConnectionField:
        return self.fiber.levi_civita_connection

    def gradient_of_log_twist(self, x) -> np.ndarray:
        """Product-metric gradient of k = log b (components over all n coordinates)."""
        xb, xf = self.split(x)
        b, k1, _ = self.twist_data_at(x)
        gBinv = self.base.inverse_metric_at(xb)
        gFinv = self.fiber.inverse_metric_at(xf)
        return np.concatenate([_mv(gBinv, k1[..., : self.r]),
                               _mv(gFinv, k1[..., self.r:]) / np.asarray(b**2)[..., None]],
                              axis=-1)

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

    x = product.sample_array(32, seed=7)
    not_positive = compile_array([twist], coords)(x)[:, 0] <= 0.0
    if not_positive.any():
        raise GeometryError(
            f"twist {twist} is not positive at {x[np.argmax(not_positive)].tolist()}")

    deps = free_vars(twist)
    if not deps and abs(evaluate(twist, {}) - 1.0) < 1e-15:
        tag = "direct"
    elif not (deps & set(F.coords)):
        tag = "warped"
    else:
        tag = "proper-twisted"
    return ProductSpec(B, F, twist, product, fn("log", twist), tag)


# ---------------------------------------------------------------------------
# the lift lemma


def lift_lemma_residual(P: ProductSpec, samples: int = 16, seed: int = 42) -> float:
    """Derivatives of factor metrics commute with lifting.

    Horizontal: X.g(Y,Z) on horizontal lifts (the base block of the product
    metric derivative) equals X.g_B(Y,Z) on the base.  Vertical: the
    derivative of the pulled-back fiber metric along a vertical lift equals
    the fiber-side derivative.  Each side is compared as a whole tensor (l1
    norm of the difference).
    """
    r = P.r
    x = P.manifold.sample_array(samples, seed)
    xb, xf = P.split(x)
    dg = P.manifold.metric_derivatives_at(x)
    dgB = P.base.metric_derivatives_at(xb)
    dgF = P.fiber.metric_derivatives_at(xf)
    base_side = np.sum(np.abs(dg[..., :r, :r, :r] - dgB), axis=(-3, -2, -1))
    fiber_side = np.sum(np.abs(P._pulled_fiber_d1_kernel(x) - dgF), axis=(-3, -2, -1))
    return float(max(np.max(base_side), np.max(fiber_side)))


# ---------------------------------------------------------------------------
# block-wise connections


def block_gamma(P: ProductSpec, p, base_gamma: np.ndarray,
                fiber_gamma: np.ndarray) -> np.ndarray:
    """Gamma of the block display at a product point or points, from factor Gammas there.

    D_X Y lifts the base connection, D_X U = D_U X = X(k)U, and
    D_U V = lift of the fiber connection + U(k)V + V(k)U - g(U,V) grad k,
    with g the product metric and grad k its gradient.
    """
    r, s, n = P.r, P.s, P.n
    x = np.asarray(p, dtype=float)
    xb, xf = P.split(x)
    b, k1, _ = P.twist_data_at(x)
    kb, kf = k1[..., :r], k1[..., r:]
    gF = P.fiber.metric_at(xf)
    eye_s = np.eye(s)
    G = np.zeros(x.shape[:-1] + (n, n, n))
    G[..., :r, :r, :r] = base_gamma
    G[..., r:, :r, r:] = np.einsum("...a,wv->...wav", kb, eye_s)
    G[..., r:, r:, :r] = np.einsum("...a,wv->...wva", kb, eye_s)
    G[..., r:, r:, r:] = (fiber_gamma
                          + np.einsum("...u,wv->...wuv", kf, eye_s)
                          + np.einsum("...v,wu->...wuv", kf, eye_s)
                          - np.einsum("...uv,...w->...wuv", gF,
                                      _mv(P.fiber.inverse_metric_at(xf), kf)))
    G[..., :r, r:, r:] = (-_per_point(b**2)
                          * np.einsum("...uv,...c->...cuv", gF,
                                      _mv(P.base.inverse_metric_at(xb), kb)))
    return G


def block_connection(P: ProductSpec, base_conn: ConnectionField,
                     fiber_conn: ConnectionField) -> ConnectionField:
    """Connection on the product whose blocks follow the display of ``block_gamma``.

    The display's twist terms are those of the product Levi-Civita
    connection, whose leaves are totally umbilic, so D is the chart's
    Levi-Civita connection plus the lifted differences base_conn - nabla^B
    and fiber_conn - nabla^F.  A factor's difference is constant along the
    other factor, so its derivative fills only its own block of dGamma.
    """
    if base_conn.manifold is not P.base:
        raise GeometryError("base connection does not live on the base factor")
    if fiber_conn.manifold is not P.fiber:
        raise GeometryError("fiber connection does not live on the fiber factor")
    r = P.r
    chart, base_lc, fiber_lc = P.chart_levi_civita, P.base_levi_civita, P.fiber_levi_civita

    def gamma(x: np.ndarray) -> np.ndarray:
        xb, xf = P.split(x)
        G = chart.gamma_at(x).copy()
        G[..., :r, :r, :r] += base_conn.gamma_at(xb) - base_lc.gamma_at(xb)
        G[..., r:, r:, r:] += fiber_conn.gamma_at(xf) - fiber_lc.gamma_at(xf)
        return G

    def dgamma(x: np.ndarray) -> np.ndarray:
        xb, xf = P.split(x)
        dG = chart.dgamma_at(x).copy()
        dG[..., :r, :r, :r, :r] += base_conn.dgamma_at(xb) - base_lc.dgamma_at(xb)
        dG[..., r:, r:, r:, r:] += fiber_conn.dgamma_at(xf) - fiber_lc.dgamma_at(xf)
        return dG

    return ConnectionField(P.manifold, "induced-product", gamma, dgamma)


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product over leading point axes, rounded as ``A @ v`` is."""
    return (A @ v[..., None])[..., 0]


def _per_point(c) -> np.ndarray:
    """A per-point scalar, shaped to scale rank-3 tensors point by point."""
    return np.asarray(c)[..., None, None, None]


def block_levi_civita(P: ProductSpec, p) -> np.ndarray:
    """Gamma of the product Levi-Civita connection by the block display."""
    xb, xf = P.split(p)
    return block_gamma(P, p, P.base_levi_civita.gamma_at(xb), P.fiber_levi_civita.gamma_at(xf))


def block_levi_civita_defect(P: ProductSpec, samples: int = 32, seed: int = 42) -> float:
    """Max deviation between the block display and the direct chart computation."""
    x = P.manifold.sample_array(samples, seed)
    return _max_abs(block_levi_civita(P, x) - P.chart_levi_civita.gamma_at(x))


# ---------------------------------------------------------------------------
# Hessian of k


@dataclass(frozen=True)
class HessianData:
    """Hessian data at a point, or at each point of a batch (leading axis)."""

    base_block: np.ndarray   # XY(k) - (B-nabla_X Y)(k), base directions
    mixed_block: np.ndarray  # XV(k) - X(k)V(k)
    full: np.ndarray         # product-connection Hessian form of k
    operator: np.ndarray     # operator[a] = components of H^k(d_a), base a


def hessian_at(P: ProductSpec, p) -> HessianData:
    """Hessian form of k = log b and its metric-dual operator on base inputs.

    The full product Hessian restricts to the displayed base and mixed
    blocks; the restriction defect is part of the verification suite.
    """
    x = np.asarray(p, dtype=float)
    xb, _ = P.split(x)
    r = P.r
    b, k1, k2 = P.twist_data_at(x)
    gam_b = P.base_levi_civita.gamma_at(xb)
    base_block = k2[..., :r, :r] - np.einsum("...cab,...c->...ab", gam_b, k1[..., :r])
    mixed_block = k2[..., :r, r:] - _outer(k1[..., :r], k1[..., r:])
    gam = P.chart_levi_civita.gamma_at(x)
    full = k2 - np.einsum("...mij,...m->...ij", gam, k1)
    ginv = P.manifold.inverse_metric_at(x)
    operator = full[..., :r, :] @ ginv.swapaxes(-1, -2)
    return HessianData(base_block, mixed_block, full, operator)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer product per point."""
    return u[..., :, None] * v[..., None, :]


# ---------------------------------------------------------------------------
# curvature blocks


@dataclass(frozen=True)
class CurvatureBlockReport:
    residuals: dict[str, float]
    ruvw_printed: float
    ruvw_index_consistent: float
    ruvw_adopted: str


def riemann_block_residuals(P: ProductSpec, conn: ConnectionField,
                            base_conn: ConnectionField, fiber_conn: ConnectionField,
                            samples: int = 16, seed: int = 42) -> dict[str, float]:
    """Residuals of the six displayed curvature blocks for a product connection.

    Each block of the directly computed curvature of ``conn`` is compared, as
    a whole tensor, with its displayed right side: the factor connections'
    curvatures plus metric-based auxiliary terms, all taken from k = log b
    (|grad_B b|^2 / b^2 = |grad_B k|^2, and Hess_B b / b = Hess_B k + dk dk
    on base pairs).  A block's residual is the largest l1 norm over its three
    input slots at any output index, which bounds the residual of the
    displayed identity for lifted block vectors in [-1, 1].  The fiber-fiber
    block is evaluated both as printed and with the index-consistent pairing.
    """
    r, s, n = P.r, P.s, P.n
    fiber_out = np.eye(n)[:, r:]  # fiber_out[l, u]: component l of the lifted d_u
    x = P.manifold.sample_array(samples, seed)
    xb, xf = P.split(x)
    gFF = P.manifold.metric_at(x)[..., r:, r:]
    gBinv = P.base.inverse_metric_at(xb)
    R = riemann_at(conn, x)
    R_B = riemann_at(base_conn, xb)
    R_F = riemann_at(fiber_conn, xf)
    _, k1, k2 = P.twist_data_at(x)
    kb = k1[..., :r]
    hess = hessian_at(P, x)
    gradk = P.gradient_of_log_twist(x)
    grad_k_norm_sq = _pair(gBinv, kb, kb)  # |grad_B k|^2 in g_B
    hbB = hess.base_block + _outer(kb, kb)  # Hess_B b / b on base pairs
    kUX = k2[..., r:, :r]  # UX(k) on coordinate directions
    gradB_Uk = np.zeros(x.shape[:-1] + (n, s))  # [l, u]: components of grad_B(d_u(k))
    gradB_Uk[..., :r, :] = gBinv @ kUX.swapaxes(-1, -2)

    R_UVW = R[..., :, r:, r:, r:]
    common = (_zero_pad(R_F, -4, r, 0)
              - _per_point(grad_k_norm_sq)[..., None]
              * (np.einsum("...vw,lu->...luvw", gFF, fiber_out)
                 - np.einsum("...uw,lv->...luvw", gFF, fiber_out))
              + np.einsum("...uw,...lv->...luvw", gFF, gradB_Uk))
    d = {
        "R(X,Y)Z": R[..., :, :r, :r, :r] - _zero_pad(R_B, -4, 0, s),
        "R(X,Y)U": R[..., :, :r, :r, r:],
        "R(X,U)Y": (R[..., :, :r, r:, :r]
                    - np.einsum("...ab,lu->...laub", hbB, fiber_out)),
        "R(U,V)X": (R[..., :, r:, r:, :r] - np.einsum("...ua,lv->...luva", kUX, fiber_out)
                    + np.einsum("...va,lu->...luva", kUX, fiber_out)),
        "R(X,U)V": (R[..., :, :r, r:, r:]
                    - np.einsum("...av,lu->...lauv",
                                _outer(kb, k1[..., r:]) + hess.mixed_block, fiber_out)
                    + np.einsum("...uv,...al->...lauv", gFF,
                                _outer(kb, gradk) + hess.operator)),
        "R(U,V)W[index-consistent]": (R_UVW - common
                                      + np.einsum("...vw,...lu->...luvw", gFF, gradB_Uk)),
        # the printed g(V,U) grad_B(U(k)) is quadratic in U, not trilinear:
        # it is evaluated on coordinate triples (constant in the W slot)
        "R(U,V)W[as-printed]": (R_UVW - common
                                + np.einsum("...vu,...lu->...luv", gFF, gradB_Uk)[..., None]),
    }
    # l1 norm over the three input slots, per output index and point
    return {block: float(np.max(np.sum(np.abs(diff), axis=(-3, -2, -1))))
            for block, diff in d.items()}


def _zero_pad(a: np.ndarray, axis: int, before: int, after: int) -> np.ndarray:
    """``a`` with zero slices added before and after along a negative ``axis``."""
    shape, inside = list(a.shape), [slice(None)] * a.ndim
    shape[axis] += before + after
    inside[axis] = slice(before, before + a.shape[axis])
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(inside)] = a
    return out


def curvature_block_report(P: ProductSpec, samples: int = 16,
                           seed: int = 42) -> CurvatureBlockReport:
    """Residuals of the six curvature block formulas against the chart oracle."""
    raw = riemann_block_residuals(P, P.chart_levi_civita, P.base_levi_civita,
                                  P.fiber_levi_civita, samples, seed)
    worst_variant = raw.pop("R(U,V)W[index-consistent]")
    worst_printed = raw.pop("R(U,V)W[as-printed]")
    adopted = "index-consistent" if worst_variant <= worst_printed else "as-printed"
    raw["R(U,V)W"] = min(worst_variant, worst_printed)
    return CurvatureBlockReport(raw, worst_printed, worst_variant, adopted)


# ---------------------------------------------------------------------------
# Ricci blocks


def mixed_ricci_at(P: ProductSpec, p, X, V) -> tuple[float, float]:
    """(direct mixed Ricci, closed form (s-1)XV(k)) for base components X, fiber components V.

    The two agree up to the global sign MIXED_RICCI_SIGN; their zero sets
    coincide exactly.
    """
    x = np.asarray(p, dtype=float)
    ric = ricci_at(P.manifold, P.chart_levi_civita, x)
    direct = float(X @ ric[: P.r, P.r:] @ V)
    _, _, k2 = P.twist_data_at(x)
    closed = (P.s - 1) * float(X @ k2[: P.r, P.r:] @ V)
    return direct, closed


def mixed_ricci_table(P: ProductSpec, samples: int = 16, seed: int = 42) -> dict[str, float]:
    """Worst-case mixed Ricci values over samples and coordinate directions."""
    x = P.manifold.sample_array(samples, seed)
    ric = ricci_at(P.manifold, P.chart_levi_civita, x)
    _, _, k2 = P.twist_data_at(x)
    direct = ric[..., : P.r, P.r:]
    closed = (P.s - 1) * k2[..., : P.r, P.r:]
    return {"max_direct": _max_abs(direct), "max_closed_form": _max_abs(closed),
            "max_residual_with_adopted_sign": _max_abs(direct - MIXED_RICCI_SIGN * closed)}


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def ricci_base_block_residual(P: ProductSpec, samples: int = 16, seed: int = 42) -> float:
    """Residual of Ric(X,Y) = Ric_B(X,Y) - s [h^k_B(X,Y) + X(k)Y(k)] on base pairs."""
    r, s = P.r, P.s
    x = P.manifold.sample_array(samples, seed)
    xb, _ = P.split(x)
    ric = ricci_at(P.manifold, P.chart_levi_civita, x)
    ric_b = ricci_at(P.base, P.base_levi_civita, xb)
    _, k1, _ = P.twist_data_at(x)
    hess = hessian_at(P, x)
    formula = ric_b - s * (hess.base_block + _outer(k1[..., :r], k1[..., :r]))
    return _max_abs(ric[..., :r, :r] - formula)


# ---------------------------------------------------------------------------
# mixed Weyl blocks


@dataclass(frozen=True)
class MixedWeylReport:
    display_xyv_residual: float   # C(X,Y)V = ((1-s)/(n-2))[XV(k)Y - YV(k)X]
    display_vwx_residual: float   # C(V,W)X = ((r-1)/(n-2))[XV(k)W - XW(k)V]
    cond_xyv_max: float           # max |C(X,Y)V| (fiber Weyl-flat along base)
    cond_vwx_max: float           # max |C(V,W)X| (base Weyl-flat along fiber)
    mixed_block_max: float        # max |C(X,V)| (mixed Weyl conformal flat)

    @property
    def xyv_flat(self) -> bool:
        return self.cond_xyv_max < WEYL_FLAT_TOL

    @property
    def vwx_flat(self) -> bool:
        return self.cond_vwx_max < WEYL_FLAT_TOL

    @property
    def mixed_weyl_flat(self) -> bool:
        return self.mixed_block_max < WEYL_FLAT_TOL


def mixed_weyl_report(P: ProductSpec, samples: int = 12, seed: int = 42) -> MixedWeylReport:
    """Mixed-block displays and flatness verdicts of the product Weyl tensor."""
    n, r, s = P.n, P.r, P.s
    if n <= 2:
        raise DimensionError("mixed Weyl analysis needs product dimension >= 3")
    c_xyv = (1 - s) / (n - 2)
    c_vwx = (r - 1) / (n - 2)
    eye = np.eye(n)
    base, fib = eye[:, :r], eye[:, r:]  # coordinate directions as output components
    x = P.manifold.sample_array(samples, seed)
    W = weyl_at(P.manifold, P.chart_levi_civita, x)
    _, _, k2 = P.twist_data_at(x)
    cross = k2[..., :r, r:]  # XV(k) on coordinate directions
    xyv = c_xyv * (np.einsum("lb,...aw->...labw", base, cross)
                   - np.einsum("la,...bw->...labw", base, cross))
    vwx = c_vwx * (np.einsum("lw,...av->...lvwa", fib, cross)
                   - np.einsum("lv,...aw->...lvwa", fib, cross))
    W_xyv, W_vwx = W[..., :, :r, :r, r:], W[..., :, r:, r:, :r]
    return MixedWeylReport(_max_abs(W_xyv - xyv), _max_abs(W_vwx - vwx), _max_abs(W_xyv),
                           _max_abs(W_vwx), _max_abs(W[..., :, :r, r:, :]))


# ---------------------------------------------------------------------------
# separability and warped reduction


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    max_cross_derivative: float
    alpha: Expr | None        # base part of k, split at the box center
    beta: Expr | None         # fiber part of k
    reconstruction_residual: float | None


def separability_test(P: ProductSpec, samples: int = 32, seed: int = 42) -> SeparabilityResult:
    """k(p,q) = alpha(p) + beta(q) iff all mixed cross-derivatives vanish (below 1e-10).

    The additive split is taken at the box center, with the constant
    shared equally between the two parts, so results are reproducible.
    """
    r = P.r
    X = P.manifold.sample_array(samples, seed)
    _, _, k2 = P.twist_data_at(X)
    worst = float(np.max(np.abs(k2[..., :r, r:])))
    if worst >= 1e-10:
        return SeparabilityResult(False, worst, None, None, None)
    center = P.manifold.center()
    base_env = dict(zip(P.base.coords, center[:r].tolist()))
    fiber_env = dict(zip(P.fiber.coords, center[r:].tolist()))
    k0 = evaluate(P.log_twist, P.manifold.env(center))
    alpha = simplify(sub(substitute(P.log_twist, fiber_env), Const(k0 / 2.0)))
    beta = simplify(sub(substitute(P.log_twist, base_env), Const(k0 / 2.0)))
    k, k_base, k_fiber = compile_array([P.log_twist, alpha, beta], P.manifold.coords)(X).T
    return SeparabilityResult(True, worst, alpha, beta, _max_abs(k - k_base - k_fiber))


def to_warped(P: ProductSpec, samples: int = 32, seed: int = 42) -> ProductSpec:
    """Re-express a separable twisted product as a warped product.

    The twist splits as b = delta(base) * gamma(fiber); gamma^2 is absorbed
    into the fiber metric and delta becomes the warping function.  The
    product metric is identical to the original (checked on samples, to 1e-9).
    """
    warped, residual = _warped_reduction(P, separability_test(P, samples, seed), samples, seed)
    if residual >= _RECONSTRUCTION_TOL:
        raise ArithmeticError(f"warped reduction failed to reconstruct the metric "
                              f"(residual {residual:.3e})")
    return warped


def _warped_reduction(P: ProductSpec, sep: SeparabilityResult, samples: int,
                      seed: int) -> tuple[ProductSpec, float]:
    """The warped product of a separability result, and its metric residual against P."""
    if not sep.separable:
        raise GeometryError(
            f"twist is not separable (max cross-derivative {sep.max_cross_derivative:.3e})")
    if sep.alpha == sep.beta == Const(0.0):  # a direct product: P is its own reduction
        return P, 0.0
    delta = simplify(fn("exp", sep.alpha))
    gamma_sq = simplify(fn("exp", mul(Const(2.0), sep.beta)))
    fiber = P.fiber
    rescaled = ManifoldSpec(
        f"{fiber.name}-rescaled", fiber.coords, fiber.domain,
        tuple(tuple(simplify(mul(gamma_sq, entry)) for entry in row) for row in fiber.metric))
    warped = twisted_product(P.base, rescaled, delta)
    return warped, product_metric_residual(P, warped, samples, seed)


def product_metric_residual(P1: ProductSpec, P2: ProductSpec,
                            samples: int = 32, seed: int = 42) -> float:
    """Max pointwise deviation between two product metrics on shared coordinates."""
    x = P1.manifold.sample_array(samples, seed)
    return float(np.max(np.abs(P1.manifold.metric_at(x) - P2.manifold.metric_at(x))))


# ---------------------------------------------------------------------------
# theorem-condition defects


def hessian_condition_defect(P: ProductSpec, samples: int = 16, seed: int = 42) -> float:
    """Max |H^k(X) + X(k) grad k| over base coordinate directions."""
    x = P.manifold.sample_array(samples, seed)
    hess = hessian_at(P, x)
    _, k1, _ = P.twist_data_at(x)
    return _max_abs(hess.operator + _outer(k1[..., :P.r], P.gradient_of_log_twist(x)))


def weyl_parallel_defect(P: ProductSpec, samples: int = 8, seed: int = 42) -> float:
    """Max component of the covariant derivative of the Weyl tensor.

    The partial derivatives d_q W are exact (``curvature.weyl_derivative_at``,
    from the chart's third metric derivatives); the connection corrections
    are pointwise and exact.
    """
    if P.n <= 3:
        raise DimensionError("Weyl-parallel check needs product dimension >= 4")
    M = P.manifold
    conn = P.chart_levi_civita
    x = M.sample_array(samples, seed)
    W = weyl_at(M, conn, x)
    gam_q = conn.gamma_at(x).swapaxes(-3, -2)  # [q, l, m] = Gamma^l_qm
    nabla = (weyl_derivative_at(M, conn, x)
             + np.einsum("...qlm,...mijk->...qlijk", gam_q, W)
             - np.einsum("...qmi,...lmjk->...qlijk", gam_q, W)
             - np.einsum("...qmj,...limk->...qlijk", gam_q, W)
             - np.einsum("...qmk,...lijm->...qlijk", gam_q, W))
    return _max_abs(nabla)
