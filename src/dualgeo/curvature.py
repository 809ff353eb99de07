"""Curvature-type tensors of an arbitrary connection.

Index and sign conventions, shared by every oracle in the test suite:

    R(d_i, d_j) d_k = R^l_ijk d_l,
    R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
              + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik,
    Ric(X, Y) = sum_i g(R(E_i, X) Y, E_i)    (E_i orthonormal),
    S = sum_i Ric(E_i, E_i).

Under these conventions the unit sphere has Ric = g, S = 2 and sectional
curvature +1.

Every pointwise function takes one point (d,) or a batch of points (N, d)
and puts the batch axis first in its result; a per-point scalar is a float
for one point and an array of N values for a batch.  The orthonormal frame
is coordinate-order Gram-Schmidt, computed as the inverse Cholesky factor of
g; the frame of each point of a batch is built with the same operations as
its own call.  R, dR and the frame are kept on the connection's and the
chart's sample stream (``geometry.one_batch``) and handed out read-only.
The derivatives dR and dW are exact: they come from the chart's third
metric derivatives, never from finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionField
from .geometry import ManifoldSpec, SingularMetricError, one_batch

__all__ = [
    "FLAT_TOL", "CONSTANT_CURVATURE_TOL", "FLAT_AT_POINT_TOL",
    "CurvatureReport", "ConstantSectionalResult",
    "DimensionError", "DegeneratePlaneError",
    "riemann_at", "riemann_derivative_at", "curvature_duality_residual",
    "orthonormal_frame_at", "ricci_at", "ricci_contraction", "scalar_at",
    "weyl_at", "weyl_derivative_at", "weyl_trace_defect",
    "sectional_at", "first_bianchi_defect", "is_constant_sectional",
    "curvature_report",
]


# A curvature or torsion tensor vanishes when its max |component| is below FLAT_TOL;
# sectional curvature is constant when its deviation is below CONSTANT_CURVATURE_TOL.
# curvature_report calls a point flat below FLAT_AT_POINT_TOL.
FLAT_TOL = 1e-9
CONSTANT_CURVATURE_TOL = 1e-8
FLAT_AT_POINT_TOL = 1e-8


class DimensionError(ValueError):
    """Operation undefined in this dimension (e.g. Weyl below dim 3)."""


class DegeneratePlaneError(ArithmeticError):
    """Sectional curvature of a (numerically) degenerate 2-plane."""


def riemann_at(C: ConnectionField, p) -> np.ndarray:
    """Rank-4 array R[..., l, i, j, k]; antisymmetric in (i, j) to round-off."""
    return _riemann_of(C, p)


def _riemann_of(C: ConnectionField, x) -> np.ndarray:  # for kinds built from R
    return one_batch(C, "R", x, lambda z: _riemann(C.gamma_at(z), C.dgamma_at(z)))


# The contractions below are batched matmuls on reshaped operands; the
# einsum in each comment is the definition, and the test oracle.


def _compose(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # einsum("...lim,...mjk->...lijk", A, B)
    d = A.shape[-1]
    out = A.reshape(A.shape[:-3] + (d * d, d)) @ B.reshape(B.shape[:-3] + (d, d * d))
    return out.reshape(out.shape[:-2] + (d, d, d, d))


def _riemann(gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    d_gam = dgam.swapaxes(-4, -3)  # [l, i, j, k] = d_i Gamma^l_jk
    dterm = d_gam - d_gam.swapaxes(-3, -2)
    # einsum("...lim,...mjk->...lijk", gam, gam) - einsum("...ljm,...mik->...lijk", gam, gam)
    quad = _compose(gam, gam)
    return dterm + (quad - quad.swapaxes(-3, -2))


def riemann_derivative_at(C: ConnectionField, p) -> np.ndarray:
    """Rank-5 array dR[..., q, l, i, j, k] = d_q R^l_ijk, exact.

    Needs C's second derivatives of Gamma, so only the Levi-Civita
    connection has it.  Kept beside R on C's sample stream.
    """
    return one_batch(C, "dR", p, lambda z: _riemann_derivative(
        C.gamma_at(z), C.dgamma_at(z), C.d2gamma_at(z)))


def _riemann_derivative(gam: np.ndarray, dgam: np.ndarray, d2gam: np.ndarray) -> np.ndarray:
    # d_q of each term of _riemann, q on axis -5
    d_gam = d2gam.swapaxes(-4, -3)  # [q, l, i, j, k] = d_q d_i Gamma^l_jk
    dterm = d_gam - d_gam.swapaxes(-3, -2)
    # einsum("...qlim,...mjk->...qlijk", dgam, gam) + einsum("...lim,...qmjk->...qlijk", gam, dgam)
    # minus the same two with i and j swapped
    quad = _compose(dgam, gam[..., None, :, :, :]) + _compose(gam[..., None, :, :, :], dgam)
    return dterm + (quad - quad.swapaxes(-3, -2))


def curvature_duality_residual(g: np.ndarray, R: np.ndarray, Rstar: np.ndarray) -> float:
    """l1 norm of D_ijkm = R^l_ijk g_lm + R*^l_ijm g_lk for a conjugate pair.

    D is the tensor of g(R(X,Y)Z, W) + g(R*(X,Y)W, Z); its l1 norm bounds that
    residual for all X, Y, Z, W in [-1, 1]^d.  Over a batch the norm is taken
    per point, then maximized.
    """
    # einsum("...lijk,...lm->...ijkm", R, g) + einsum("...lijm,...lk->...ijkm", Rstar, g)
    D = _lower_riemann(R, g) + _lower_riemann(Rstar, g).swapaxes(-2, -1)
    return float(np.abs(D).sum(axis=(-4, -3, -2, -1)).max())


def _lower_riemann(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    # einsum("...lijk,...lm->...ijkm", R, g), for R and g over the same points
    return (R.reshape(R.shape[:-4] + (R.shape[-1], -1)).swapaxes(-1, -2) @ g).reshape(R.shape)


def orthonormal_frame_at(M: ManifoldSpec, p) -> np.ndarray:
    """Gram-Schmidt of the coordinate frame in coordinate order; rows are E_i.

    That frame is the inverse Cholesky factor: E = L^-1 for g = L L^T, which
    is lower triangular with a positive diagonal, like the textbook loop.  A
    metric that is not positive definite raises SingularMetricError.
    """
    return one_batch(M, "frame", p, lambda z: _frame(M.metric_at(z), f" the frame of {M.name!r}"))


def _frame(g: np.ndarray, where: str = "") -> np.ndarray:
    try:
        return np.linalg.inv(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        raise SingularMetricError(
            f"metric not positive definite while orthonormalizing{where}") from None


def _item(a):
    """A per-point value: a Python scalar for one point, an array for a batch."""
    a = np.asarray(a)
    return a.item() if a.ndim == 0 else a


def _ricci(R: np.ndarray, g: np.ndarray, E: np.ndarray) -> np.ndarray:
    # einsum("...ia,...lajk,...lm,...im->...jk", E, R, g, E)
    d = g.shape[-1]
    weight = g @ (E.swapaxes(-1, -2) @ E).swapaxes(-1, -2)  # [l, a] = g_lm E_i^a E_i^m
    out = weight.reshape(weight.shape[:-2] + (1, d * d)) @ R.reshape(R.shape[:-4] + (d * d, d * d))
    return out.reshape(out.shape[:-2] + (d, d))


def _scalar(ric: np.ndarray, E: np.ndarray) -> np.ndarray:
    # einsum("...ij,...ik,...jk->...", E, E, ric)
    return np.sum((E @ ric) * E, axis=(-2, -1))


def ricci_at(M: ManifoldSpec, C: ConnectionField, p) -> np.ndarray:
    """Ric_jk = sum_i g(R(E_i, d_j) d_k, E_i) in the coordinate frame.

    Kept beside R on C's sample stream when M is C's chart, as S is.
    """
    return C._memo_on(M, "Ric", p, lambda z: _ricci(
        _riemann_of(C, z), M.metric_at(z), orthonormal_frame_at(M, z)))


def _scalar_of(M: ManifoldSpec, C: ConnectionField, x) -> np.ndarray:
    return C._memo_on(M, "S", x, lambda z: np.asarray(_scalar(ricci_at(M, C, z),
                                                               orthonormal_frame_at(M, z))))


def ricci_contraction(R: np.ndarray) -> np.ndarray:
    """Frame-free route Ric_jk = R^a_ajk; agrees with ricci_at by completeness."""
    return np.einsum("...aajk->...jk", R)


def scalar_at(M: ManifoldSpec, C: ConnectionField, p):
    """S = sum_i Ric(E_i, E_i) over the orthonormal frame."""
    return _item(_scalar_of(M, C, p))


def weyl_at(M: ManifoldSpec, C: ConnectionField, p, variant: str = "standard") -> np.ndarray:
    """Conformal curvature components W[l, i, j, k] for dim >= 3.

    variant="standard" uses the trace-adjusted tensor with Ricci in both
    correction slots (vanishes identically in dim 3, trace-free for the
    metric connection).  variant="as-printed" keeps a full curvature term in
    the second slot instead of its Ricci trace; it is computed only so the
    two can be compared.
    """
    if M.dim <= 2:
        raise DimensionError(f"Weyl tensor needs dim >= 3, got {M.dim}")
    x = np.asarray(p, dtype=float)
    return _weyl(M.metric_at(x), M.inverse_metric_at(x), riemann_at(C, x), ricci_at(M, C, x),
                 _scalar_of(M, C, x), variant)


def _weyl(g: np.ndarray, ginv: np.ndarray, R: np.ndarray, ric: np.ndarray, S,
          variant: str) -> np.ndarray:
    m = g.shape[-1]
    Q = ginv @ ric
    eye = np.eye(m)
    # Each outer product is one broadcast multiply, with the indices placed as
    # [l, i, j, k]: h_ik is h[..., None, :, None, :] and P^l_j is P[..., :, None, :, None]
    eye_lj, eye_li = eye[:, None, :, None], eye[:, :, None, None]
    if variant == "standard":
        second = ric[..., None, None, :, :] * eye_li  # einsum("...jk,li->...lijk", ric, eye)
    elif variant == "as-printed":
        second = np.einsum("...ljki->...lijk", R)
    else:
        raise ValueError(f"unknown Weyl variant {variant!r}")
    # einsum("...ik,lj->...lijk", ric, eye) - second
    # + einsum("...ik,...lj->...lijk", g, Q) - einsum("...jk,...li->...lijk", g, Q)
    corr = (ric[..., None, :, None, :] * eye_lj - second
            + g[..., None, :, None, :] * Q[..., :, None, :, None]
            - g[..., None, None, :, :] * Q[..., :, :, None, None])
    # einsum("...ik,lj->...lijk", g, eye) - einsum("...jk,li->...lijk", g, eye)
    trace_part = g[..., None, :, None, :] * eye_lj - g[..., None, None, :, :] * eye_li
    S_part = np.asarray(S / ((m - 1) * (m - 2)))[..., None, None, None, None]
    return R + corr / (m - 2) - S_part * trace_part


def weyl_derivative_at(M: ManifoldSpec, C: ConnectionField, p) -> np.ndarray:
    """dW[..., q, l, i, j, k] = d_q W^l_ijk of the standard Weyl tensor, exact.

    Differentiates ``_weyl``'s standard form term by term.  Ricci and the
    scalar curvature enter through the frame-free contractions Ric_jk =
    R^a_ajk and S = g^jk Ric_jk, so the only new input is dR, and C must
    provide second derivatives of Gamma (Levi-Civita).
    """
    if M.dim <= 2:
        raise DimensionError(f"Weyl tensor needs dim >= 3, got {M.dim}")
    x = np.asarray(p, dtype=float)
    m = M.dim
    g, ginv, dg = M.metric_at(x), M.inverse_metric_at(x), M.metric_derivatives_at(x)
    dginv = M.inverse_metric_derivatives_at(x)
    ric = ricci_contraction(riemann_at(C, x))
    dR = riemann_derivative_at(C, x)
    dric = ricci_contraction(dR)
    S = np.einsum("...jk,...jk->...", ginv, ric)
    dS = (np.einsum("...qjk,...jk->...q", dginv, ric)
          + np.einsum("...jk,...qjk->...q", ginv, dric))
    Q = ginv @ ric
    dQ = dginv @ ric[..., None, :, :] + ginv[..., None, :, :] @ dric
    eye, g_q = np.eye(m), g[..., None, :, :]
    dcorr = _wedge(dric, eye) + _wedge(dg, Q[..., None, :, :]) + _wedge(g_q, dQ)
    dS_part = (dS[..., None, None, None, None] * _wedge(g_q, eye)
               + np.asarray(S)[..., None, None, None, None, None] * _wedge(dg, eye))
    return dR + dcorr / (m - 2) - dS_part / ((m - 1) * (m - 2))


def _wedge(h: np.ndarray, P: np.ndarray) -> np.ndarray:
    """T[..., l, i, j, k] = h_ik P^l_j - h_jk P^l_i, the form of each Weyl correction."""
    return np.einsum("...ik,...lj->...lijk", h, P) - np.einsum("...jk,...li->...lijk", h, P)


def weyl_trace_defect(g: np.ndarray, ginv: np.ndarray, W: np.ndarray) -> float:
    """Max absolute value over all single traces/metric contractions of Weyl."""
    lowered = np.einsum("...lm,...mijk->...lijk", g, W)
    contractions = [
        np.einsum("...aajk->...jk", W),
        np.einsum("...aiak->...ik", W),
        np.einsum("...aija->...ij", W),
        np.einsum("...li,...lijk->...jk", ginv, lowered),
        np.einsum("...lj,...lijk->...ik", ginv, lowered),
        np.einsum("...lk,...lijk->...ij", ginv, lowered),
        np.einsum("...ij,...lijk->...lk", ginv, lowered),
        np.einsum("...ik,...lijk->...lj", ginv, lowered),
        np.einsum("...jk,...lijk->...li", ginv, lowered),
    ]
    return float(np.max([np.abs(c).max() for c in contractions]))


def first_bianchi_defect(R: np.ndarray) -> float:
    """Max |R(X,Y)Z + R(Y,Z)X + R(Z,X)Y| over coordinate triples."""
    cyc = R + np.einsum("...ljki->...lijk", R) + np.einsum("...lkij->...lijk", R)
    return float(np.abs(cyc).max())


def sectional_at(M: ManifoldSpec, p, X, Y):
    """K(X, Y) = g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2), metric connection."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = M.metric_at(p)
    denom = _pair(g, X, X) * _pair(g, Y, Y) - _pair(g, X, Y) ** 2
    if (denom < 1e-12).any():
        raise DegeneratePlaneError("X and Y do not span a 2-plane")
    R = riemann_at(M.levi_civita_connection, p)
    return _item(_sectional_numerator(R, g, X, Y) / denom)


def _sectional_numerator(R: np.ndarray, g: np.ndarray, X: np.ndarray, Y: np.ndarray):
    # einsum("...lijk,...i,...j,...k,...lm,...m->...", R, X, Y, Y, g, X); X and Y
    # are one vector or one per point
    RYY = ((R @ Y[..., None, None, :, None])[..., 0] @ Y[..., None, :, None])[..., 0]
    return _pair(g, (RYY @ X[..., :, None])[..., 0], X)  # RYY[l, i] = R^l_ijk Y^j Y^k


def _pair(g: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^T g Y per point, rounded as ``X @ g @ Y`` is."""
    return ((X[..., None, :] @ g) @ Y[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class ConstantSectionalResult:
    constant: bool
    kappa: float
    max_deviation: float
    samples: int
    tol: float  # always CONSTANT_CURVATURE_TOL; kept in the serialized record


def is_constant_sectional(M: ManifoldSpec, samples: int = 32,
                          seed: int = 42) -> ConstantSectionalResult:
    """Constant sectional curvature, checked as a tensor equation on samples.

    At each point kappa(p) = S / (n(n-1)), and D is the lowered
    R - kappa(p) (delta g - delta g) in the orthonormal frame; the l1 norm of
    D bounds |K(plane) - kappa(p)| for every 2-plane at p.  The deviation is
    the larger of that bound and the spread of kappa(p) over the samples.

    In dimension 2, R = kappa(p) (delta g - delta g) holds at every point, so
    only the spread of kappa(p) can tell: dimension 2 needs at least 2 samples.
    """
    n = M.dim
    if n < 2:
        raise DimensionError("sectional curvature needs dim >= 2")
    x = M.sample_array(samples, seed)
    g = M.metric_at(x)
    E = orthonormal_frame_at(M, x)
    R = riemann_at(M.levi_civita_connection, x)
    kappas = _scalar_of(M, M.levi_civita_connection, x) / (n * (n - 1))
    framed = np.einsum("...lm,...lijk->...mijk", g, R)
    for _ in range(4):  # map the leading slot into the frame, rotate it to the back
        rest = np.moveaxis(framed, -4, -1).reshape(x.shape[:-1] + (n ** 3, n))
        framed = (rest @ E.swapaxes(-1, -2)).reshape(framed.shape)
    eye = np.eye(n)
    model = np.einsum("ab,cd->abcd", eye, eye) - np.einsum("ac,bd->abcd", eye, eye)
    tensor_dev = np.sum(np.abs(framed - kappas[:, None, None, None, None] * model),
                        axis=(-4, -3, -2, -1))
    kappa = float(np.mean(kappas))
    deviation = float(np.max([np.abs(kappas - kappa).max(), tensor_dev.max()]))
    return ConstantSectionalResult(deviation < CONSTANT_CURVATURE_TOL, kappa, deviation, samples,
                                   CONSTANT_CURVATURE_TOL)


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature at a point, or at each point of a batch (leading axis)."""

    point: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    weyl: np.ndarray | None
    flat_at_point: bool | np.ndarray
    tolerance: float


def curvature_report(M: ManifoldSpec, C: ConnectionField, p) -> CurvatureReport:
    x = np.asarray(p, dtype=float)
    R = riemann_at(C, x)
    ric = ricci_at(M, C, x)
    S = _scalar_of(M, C, x)
    W = _weyl(M.metric_at(x), M.inverse_metric_at(x), R, ric, S, "standard") if M.dim >= 3 else None
    flat = np.max(np.abs(R), axis=(-4, -3, -2, -1)) < FLAT_AT_POINT_TOL
    return CurvatureReport(x, R, ric, _item(S), W, _item(flat), FLAT_AT_POINT_TOL)
