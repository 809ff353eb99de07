"""Affine connections as coefficient fields.

A connection is stored as a provider of its coefficients Gamma^k_ij and of
their first derivatives d_l Gamma^k_ij at a point.  Index convention:
``gamma[k, i, j]`` is the k-th component of the covariant derivative of the
j-th coordinate field along the i-th, and ``dgamma[l, k, i, j]`` its
derivative along the l-th coordinate.  The Levi-Civita connection also
provides second derivatives ``d2gamma[p, q, k, i, j] = d_p d_q Gamma^k_ij``,
from the chart's third metric derivatives.  Every accessor takes one point
(d,) or a batch of points (N, d); a batch puts its point axis first.

Derivative providers are assembled symbolically (from exact metric
derivatives or expression ASTs), never by finite differences; curvature
tolerances require clean first derivatives of Gamma, and the covariant
derivative of curvature clean second ones.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprlang import _Jets, parse
from .geometry import ManifoldSpec, one_batch
from . import numdiff

__all__ = [
    "ConnectionField", "StatisticalVerdict",
    "levi_civita", "explicit_connection", "conjugate",
    "duality_residual", "involution_defect", "torsion_at", "cubic_form_at",
    "torsion_relation_residual", "is_statistical", "dgamma_fd_defect",
]


@dataclass(eq=False)
class ConnectionField:
    """Connection coefficients and their derivatives on one manifold.

    Only a connection built with ``_d2gamma`` (Levi-Civita) has second
    derivatives.
    """

    manifold: ManifoldSpec
    provenance: str  # levi-civita | explicit | conjugate-of | induced-product
    _gamma: Callable[[np.ndarray], np.ndarray]
    _dgamma: Callable[[np.ndarray], np.ndarray]
    _d2gamma: Callable[[np.ndarray], np.ndarray] | None = None

    _last_batch = None  # one_batch's streams, newest first: (((shape, bytes), {kind: array}), ...)
    _conjugate = None  # weakref.ref to conjugate(self), taken w.r.t. self.manifold

    def _memo_on(self, M: ManifoldSpec, kind: str, x, build):
        """``one_batch`` for a kind taken with M's metric, kept only when M is this chart."""
        return one_batch(self, kind, x, build) if M is self.manifold else build(x)

    def gamma_at(self, p) -> np.ndarray:
        """Rank-3 array Gamma[..., k, i, j] at the point or points."""
        return one_batch(self, "gamma", p, self._gamma)

    def dgamma_at(self, p) -> np.ndarray:
        """Rank-4 array dGamma[..., l, k, i, j] = d_l Gamma^k_ij at the point or points."""
        return one_batch(self, "dgamma", p, self._dgamma)

    def d2gamma_at(self, p) -> np.ndarray:
        """Rank-5 array d2Gamma[..., p, q, k, i, j] = d_p d_q Gamma^k_ij (Levi-Civita only)."""
        if self._d2gamma is None:
            raise NotImplementedError(
                f"{self.provenance!r} connections provide no second derivatives")
        return one_batch(self, "d2gamma", p, self._d2gamma)

    def __repr__(self) -> str:
        return f"ConnectionField({self.provenance!r} on {self.manifold.name!r})"


# The contractions below are batched matmuls on reshaped operands; the
# einsum in each comment is the definition, and the test oracle.


def _dginv(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # d_q (g^{-1}) = -g^{-1} (d_q g) g^{-1} = -einsum("...ab,...qbc,...cd->...qad", ginv, dg, ginv)
    return -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])


def _d2ginv(ginv: np.ndarray, dg: np.ndarray, dginv: np.ndarray,
            d2g: np.ndarray) -> np.ndarray:
    # d_p d_q (g^{-1}) = -(d_p g^{-1}) (d_q g) g^{-1} - g^{-1} (d_p d_q g) g^{-1}
    #                    - g^{-1} (d_q g) (d_p g^{-1})
    # -(einsum("...pab,...qbc,...cd->...pqad", dginv, dg, ginv)
    #   + einsum("...ab,...pqbc,...cd->...pqad", ginv, d2g, ginv)
    #   + einsum("...ab,...qbc,...pcd->...pqad", ginv, dg, dginv))
    ginv_q, ginv_pq = ginv[..., None, :, :], ginv[..., None, None, :, :]
    dginv_p = dginv[..., None, :, :]  # [p, q, a, b] with q broadcast
    return -(dginv_p @ (dg @ ginv_q)[..., None, :, :, :] + ginv_pq @ d2g @ ginv_pq
             + (ginv_q @ dg)[..., None, :, :, :] @ dginv_p)


def _raise_last(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    # einsum("...kl,...ijl->...kij", A, T)
    d = T.shape[-1]
    out = A @ T.reshape(T.shape[:-3] + (d * d, d)).swapaxes(-1, -2)
    return out.reshape(out.shape[:-1] + (d, d))


def _raise_middle(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    # einsum("...lj,...ijk->...lik", A, T)
    return (A[..., None, :, :] @ T).swapaxes(-3, -2)


def _lower_first(T: np.ndarray, g: np.ndarray) -> np.ndarray:
    # einsum("...mij,...mk->...ijk", T, g)
    d = T.shape[-1]
    out = T.reshape(T.shape[:-3] + (d, d * d)).swapaxes(-1, -2) @ g
    return out.reshape(out.shape[:-2] + (d, d, d))


def _bracket(dg: np.ndarray) -> np.ndarray:
    # d_i g_jl + d_j g_il - d_l g_ij, or its derivatives with their axes leading
    swapped = dg.swapaxes(-3, -2)
    return dg + swapped - swapped.swapaxes(-2, -1)


def levi_civita(M: ManifoldSpec) -> ConnectionField:
    """Metric connection: Gamma^k_ij = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)."""

    def gamma(x: np.ndarray) -> np.ndarray:
        ginv = M.inverse_metric_at(x)
        return 0.5 * _raise_last(ginv, _bracket(M.metric_derivatives_at(x)))

    def dgamma(x: np.ndarray) -> np.ndarray:
        dbracket = _bracket(M.metric_second_derivatives_at(x))
        return 0.5 * (_raise_last(M.inverse_metric_derivatives_at(x),
                                  _bracket(M.metric_derivatives_at(x))[..., None, :, :, :])
                      + _raise_last(M.inverse_metric_at(x)[..., None, :, :], dbracket))

    def d2gamma(x: np.ndarray) -> np.ndarray:
        ginv = M.inverse_metric_at(x)
        dg = M.metric_derivatives_at(x)
        d2g = M.metric_second_derivatives_at(x)
        dginv = M.inverse_metric_derivatives_at(x)
        dbracket = _bracket(d2g)
        return 0.5 * (_raise_last(_d2ginv(ginv, dg, dginv, d2g),
                                  _bracket(dg)[..., None, None, :, :, :])
                      + _raise_last(dginv[..., None, :, :, :], dbracket[..., :, None, :, :, :])
                      + _raise_last(dginv[..., :, None, :, :], dbracket[..., None, :, :, :, :])
                      + _raise_last(ginv[..., None, None, :, :],
                                    _bracket(M.metric_third_derivatives_at(x))))

    return ConnectionField(M, "levi-civita", gamma, dgamma, d2gamma)


def explicit_connection(M: ManifoldSpec, entries: dict) -> ConnectionField:
    """Connection from a sparse map {(k, i, j): expression source}; missing entries are zero."""
    d = M.dim
    exprs = [None] * d**3  # row-major over (k, i, j)
    for (k, i, j), src in entries.items():
        if not (0 <= k < d and 0 <= i < d and 0 <= j < d):
            raise ValueError(f"connection index {(k, i, j)} out of range for dim {d}")
        exprs[(k * d + i) * d + j] = parse(src, M.coords)
    zero = parse("0", M.coords)
    jets = _Jets(tuple(zero if e is None else e for e in exprs), (d,) * 3, M.coords)
    return ConnectionField(M, "explicit", lambda x: jets.kernel(x), lambda x: jets.d1_kernel(x))


def conjugate(C: ConnectionField, M: ManifoldSpec | None = None) -> ConnectionField:
    """Conjugate connection of C with respect to the metric.

    Solves X.g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla*_X Z) pointwise:
    Gamma*^l_ik = g^{lj}(d_i g_jk - Gamma^m_ij g_mk).  Implemented by linear
    algebra rather than symbolically so it applies uniformly to connections
    whose coefficients are closures.

    The conjugate w.r.t. C's own chart is built once and returned again while
    it is alive: C holds it through a weak reference, and it holds C, so no
    reference cycle is made.  A conjugate w.r.t. another chart is new on
    every call.
    """
    own = M is None or M is C.manifold
    kept = own and C._conjugate and C._conjugate()
    if kept:
        return kept
    M = M or C.manifold

    def gamma(x: np.ndarray) -> np.ndarray:
        return _raise_middle(M.inverse_metric_at(x), M.metric_derivatives_at(x) - _lowered(M, C, x))

    def dgamma(x: np.ndarray) -> np.ndarray:
        g = M.metric_at(x)
        dg = M.metric_derivatives_at(x)
        d2g = M.metric_second_derivatives_at(x)
        term = dg - _lowered(M, C, x)
        dterm = (d2g - _lower_first(C.dgamma_at(x), g[..., None, :, :])
                 - _lower_first(C.gamma_at(x)[..., None, :, :, :], dg))
        return (_raise_middle(M.inverse_metric_derivatives_at(x), term[..., None, :, :, :])
                + _raise_middle(M.inverse_metric_at(x)[..., None, :, :], dterm))

    Cstar = ConnectionField(M, "conjugate-of", gamma, dgamma)
    if own:
        C._conjugate = weakref.ref(Cstar)
    return Cstar


def _lowered(M: ManifoldSpec, C: ConnectionField, x) -> np.ndarray:
    """Gamma_ijk = Gamma^m_ij g_mk with M's metric, kept on C's stream when M is C's chart."""
    return C._memo_on(M, "lowered", x, lambda z: _lower_first(C.gamma_at(z), M.metric_at(z)))


def _duality_defect(M: ManifoldSpec, C: ConnectionField, Cstar: ConnectionField,
                    p) -> np.ndarray:
    """D_ijk = d_i g_jk - Gamma^m_ij g_mk - Gamma*^m_ik g_jm at the point or points."""
    x = np.asarray(p, dtype=float)
    # dg - einsum("...mij,...mk->...ijk", gam, g) - einsum("...mik,...jm->...ijk", gam_star, g);
    # g is symmetric, so each side is its connection's own lowered Gamma
    return (M.metric_derivatives_at(x) - _lowered(M, C, x)
            - _lowered(M, Cstar, x).swapaxes(-2, -1))


def duality_residual(M: ManifoldSpec, C: ConnectionField, Cstar: ConnectionField, p) -> float:
    """Max |d_i g_jk - Gamma^m_ij g_mk - Gamma*^m_ik g_jm|; zero iff conjugate at p.

    Over a batch of points the maximum is taken over every point.
    """
    return float(np.abs(_duality_defect(M, C, Cstar, p)).max())


def involution_defect(M: ManifoldSpec, C: ConnectionField, Cstar: ConnectionField,
                      p) -> float:
    """Max |conjugate(C*) - C| on the Christoffel symbols; zero iff C is the conjugate of C*."""
    return float(np.abs(conjugate(Cstar, M).gamma_at(p) - C.gamma_at(p)).max())


def torsion_at(C: ConnectionField, p) -> np.ndarray:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji, antisymmetric in (i, j)."""
    gam = C.gamma_at(p)
    return gam - gam.swapaxes(-1, -2)


def cubic_form_at(M: ManifoldSpec, C: ConnectionField, p) -> np.ndarray:
    """(nabla g)(d_i, d_j, d_k) = d_i g_jk - Gamma^m_ij g_mk - Gamma^m_ik g_jm.

    Kept on C's sample stream when M is C's chart.
    """
    return C._memo_on(M, "cubic", p, lambda z: _duality_defect(M, C, C, z))


def torsion_relation_residual(g: np.ndarray, T: np.ndarray, Tstar: np.ndarray,
                              cubic_star: np.ndarray) -> float:
    """l1 norm of D_abk = g_mk (T - T*)^m_ab - (nabla* g)_abk + (nabla* g)_bak.

    D is the tensor of g(T(X,Y),Z) = g(T*(X,Y),Z) + (nabla* g)(X,Y,Z) -
    (nabla* g)(Y,X,Z); its l1 norm bounds that residual for all X, Y, Z in
    [-1, 1]^d.  T and T* are the torsions of the pair and cubic_star is
    nabla* g.  Over a batch the norm is taken per point, then maximized.
    """
    D = (np.einsum("...mab,...mk->...abk", T - Tstar, g)
         - cubic_star + cubic_star.swapaxes(-3, -2))
    return float(np.abs(D).sum(axis=(-3, -2, -1)).max())


@dataclass(frozen=True)
class StatisticalVerdict:
    is_statistical: bool
    max_torsion: float
    max_cubic_asymmetry: float


def is_statistical(M: ManifoldSpec, C: ConnectionField, samples: int = 64,
                   seed: int = 42) -> StatisticalVerdict:
    """Torsion-free with totally symmetric cubic form, checked on samples.

    The cubic form is symmetric in its last two slots by construction, so
    only the first-pair asymmetry is measured.
    """
    x = M.sample_array(samples, seed)
    worst_torsion = float(np.abs(torsion_at(C, x)).max())
    cubic = cubic_form_at(M, C, x)
    worst_cubic = float(np.abs(cubic - cubic.swapaxes(-3, -2)).max())
    ok = worst_torsion < 1e-10 and worst_cubic < 1e-10
    return StatisticalVerdict(ok, worst_torsion, worst_cubic)


def dgamma_fd_defect(C: ConnectionField, samples: int = 16, seed: int = 42) -> float:
    """Cross-check: supplied dGamma against a 4th-order FD of Gamma."""
    M = C.manifold
    x = M.sample_array(samples, seed)
    exact = C.dgamma_at(x)
    worst = [np.abs(exact[:, l] - numdiff.central_diff(C.gamma_at, x, l, order=4)).max()
             for l in range(M.dim)]
    return float(np.max(worst))
