"""Affine connections as coefficient fields.

A connection is stored as a provider of its coefficients Gamma^k_ij and of
their first derivatives d_l Gamma^k_ij at a point.  Index convention:
``gamma[k, i, j]`` is the k-th component of the covariant derivative of the
j-th coordinate field along the i-th, and ``dgamma[l, k, i, j]`` its
derivative along the l-th coordinate.

Derivative providers are assembled symbolically (from exact metric
derivatives or expression ASTs), never by finite differences; curvature
tolerances require clean first derivatives of Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprlang import Expr, compile_array, differentiate, parse
from .geometry import ManifoldSpec, _coords_of
from . import numdiff

__all__ = [
    "ConnectionField", "StatisticalVerdict",
    "levi_civita", "explicit_connection", "conjugate",
    "duality_residual", "torsion_at", "cubic_form_at",
    "torsion_relation_residual", "is_statistical", "dgamma_fd_defect",
]


@dataclass(eq=False)
class ConnectionField:
    """Connection coefficients and their first derivatives on one manifold."""

    manifold: ManifoldSpec
    provenance: str  # levi-civita | explicit | conjugate-of | induced-product
    _gamma: Callable[[np.ndarray], np.ndarray]
    _dgamma: Callable[[np.ndarray], np.ndarray]

    def gamma_at(self, p) -> np.ndarray:
        """Rank-3 array Gamma[k, i, j] at the point."""
        return self._gamma(_coords_of(p))

    def dgamma_at(self, p) -> np.ndarray:
        """Rank-4 array dGamma[l, k, i, j] = d_l Gamma^k_ij at the point."""
        return self._dgamma(_coords_of(p))

    def __repr__(self) -> str:
        return f"ConnectionField({self.provenance!r} on {self.manifold.name!r})"


def _dginv(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # d_q (g^{-1}) = -g^{-1} (d_q g) g^{-1}
    return -np.einsum("ab,qbc,cd->qad", ginv, dg, ginv)


def levi_civita(M: ManifoldSpec) -> ConnectionField:
    """Metric connection: Gamma^k_ij = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)."""

    def gamma(x: np.ndarray) -> np.ndarray:
        ginv = M.inverse_metric_at(x)
        dg = M.metric_derivatives_at(x)
        bracket = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
        return 0.5 * np.einsum("kl,ijl->kij", ginv, bracket)

    def dgamma(x: np.ndarray) -> np.ndarray:
        ginv = M.inverse_metric_at(x)
        dg = M.metric_derivatives_at(x)
        d2g = M.metric_second_derivatives_at(x)
        dginv = _dginv(ginv, dg)
        bracket = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
        dbracket = d2g + np.einsum("qjil->qijl", d2g) - np.einsum("qlij->qijl", d2g)
        return 0.5 * (np.einsum("qkl,ijl->qkij", dginv, bracket)
                      + np.einsum("kl,qijl->qkij", ginv, dbracket))

    return ConnectionField(M, "levi-civita", gamma, dgamma)


def explicit_connection(M: ManifoldSpec, entries: dict) -> ConnectionField:
    """Connection from a sparse map {(k, i, j): expression}; missing entries are zero.

    Values may be expression source strings, Expr nodes, or numbers.
    """
    d = M.dim
    exprs = [[[None] * d for _ in range(d)] for _ in range(d)]
    for (k, i, j), value in entries.items():
        if not (0 <= k < d and 0 <= i < d and 0 <= j < d):
            raise ValueError(f"connection index {(k, i, j)} out of range for dim {d}")
        if isinstance(value, Expr):
            e = value
        elif isinstance(value, str):
            e = parse(value, M.coords)
        else:
            e = parse(repr(float(value)), M.coords)
        exprs[k][i][j] = e
    zero = parse("0", M.coords)
    exprs = [[[e if e is not None else zero for e in row] for row in plane] for plane in exprs]
    dexprs = [[[[differentiate(exprs[k][i][j], M.coords[l])
                 for j in range(d)] for i in range(d)] for k in range(d)] for l in range(d)]
    return ConnectionField(M, "explicit", _lazy_kernel(exprs, M.coords),
                           _lazy_kernel(dexprs, M.coords))


def _lazy_kernel(exprs, coords) -> Callable[[np.ndarray], np.ndarray]:
    """compile_array(exprs, coords), compiled on the first call."""
    kernel = None

    def call(x: np.ndarray) -> np.ndarray:
        nonlocal kernel
        if kernel is None:
            kernel = compile_array(exprs, coords)
        return kernel(x)
    return call


def conjugate(C: ConnectionField, M: ManifoldSpec | None = None) -> ConnectionField:
    """Conjugate connection of C with respect to the metric.

    Solves X.g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla*_X Z) pointwise:
    Gamma*^l_ik = g^{lj}(d_i g_jk - Gamma^m_ij g_mk).  Implemented by linear
    algebra rather than symbolically so it applies uniformly to connections
    whose coefficients are closures.
    """
    M = M or C.manifold

    def gamma(x: np.ndarray) -> np.ndarray:
        g = M.metric_at(x)
        ginv = M.inverse_metric_at(x)
        dg = M.metric_derivatives_at(x)
        gam = C.gamma_at(x)
        term = dg - np.einsum("mij,mk->ijk", gam, g)
        return np.einsum("lj,ijk->lik", ginv, term)

    def dgamma(x: np.ndarray) -> np.ndarray:
        g = M.metric_at(x)
        ginv = M.inverse_metric_at(x)
        dg = M.metric_derivatives_at(x)
        d2g = M.metric_second_derivatives_at(x)
        dginv = _dginv(ginv, dg)
        gam = C.gamma_at(x)
        dgam = C.dgamma_at(x)
        term = dg - np.einsum("mij,mk->ijk", gam, g)
        dterm = (d2g - np.einsum("qmij,mk->qijk", dgam, g)
                 - np.einsum("mij,qmk->qijk", gam, dg))
        return (np.einsum("qlj,ijk->qlik", dginv, term)
                + np.einsum("lj,qijk->qlik", ginv, dterm))

    return ConnectionField(M, "conjugate-of", gamma, dgamma)


def duality_residual(M: ManifoldSpec, C: ConnectionField, Cstar: ConnectionField, p) -> float:
    """Max |d_i g_jk - Gamma^m_ij g_mk - Gamma*^m_ik g_jm|; zero iff conjugate at p."""
    x = _coords_of(p)
    g = M.metric_at(x)
    dg = M.metric_derivatives_at(x)
    gam = C.gamma_at(x)
    gam_star = Cstar.gamma_at(x)
    res = dg - np.einsum("mij,mk->ijk", gam, g) - np.einsum("mik,jm->ijk", gam_star, g)
    return float(np.max(np.abs(res)))


def torsion_at(C: ConnectionField, p) -> np.ndarray:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji, antisymmetric in (i, j)."""
    gam = C.gamma_at(p)
    return gam - np.transpose(gam, (0, 2, 1))


def cubic_form_at(M: ManifoldSpec, C: ConnectionField, p) -> np.ndarray:
    """(nabla g)(d_i, d_j, d_k) = d_i g_jk - Gamma^m_ij g_mk - Gamma^m_ik g_jm."""
    x = _coords_of(p)
    g = M.metric_at(x)
    dg = M.metric_derivatives_at(x)
    gam = C.gamma_at(x)
    return dg - np.einsum("mij,mk->ijk", gam, g) - np.einsum("mik,jm->ijk", gam, g)


def torsion_relation_residual(g: np.ndarray, T: np.ndarray, Tstar: np.ndarray,
                              cubic_star: np.ndarray) -> float:
    """l1 norm of D_abk = g_mk (T - T*)^m_ab - (nabla* g)_abk + (nabla* g)_bak.

    D is the tensor of g(T(X,Y),Z) = g(T*(X,Y),Z) + (nabla* g)(X,Y,Z) -
    (nabla* g)(Y,X,Z); its l1 norm bounds that residual for all X, Y, Z in
    [-1, 1]^d.  T and T* are the torsions of the pair and cubic_star is
    nabla* g.
    """
    D = (np.einsum("mab,mk->abk", T - Tstar, g)
         - cubic_star + np.transpose(cubic_star, (1, 0, 2)))
    return float(np.sum(np.abs(D)))


@dataclass(frozen=True)
class StatisticalVerdict:
    is_statistical: bool
    max_torsion: float
    max_cubic_asymmetry: float
    samples: int
    tol: float


def is_statistical(M: ManifoldSpec, C: ConnectionField, samples: int = 64,
                   seed: int = 42, tol: float = 1e-10) -> StatisticalVerdict:
    """Torsion-free with totally symmetric cubic form, checked on samples.

    The cubic form is symmetric in its last two slots by construction, so
    only the first-pair asymmetry is measured.
    """
    worst_torsion = 0.0
    worst_cubic = 0.0
    for pt in M.sample_points(samples, seed):
        worst_torsion = max(worst_torsion, float(np.max(np.abs(torsion_at(C, pt)))))
        cubic = cubic_form_at(M, C, pt)
        worst_cubic = max(worst_cubic, float(np.max(np.abs(cubic - np.transpose(cubic, (1, 0, 2))))))
    ok = worst_torsion < tol and worst_cubic < tol
    return StatisticalVerdict(ok, worst_torsion, worst_cubic, samples, tol)


def dgamma_fd_defect(C: ConnectionField, samples: int = 16, seed: int = 42) -> float:
    """Cross-check: supplied dGamma against a 4th-order FD of Gamma."""
    M = C.manifold
    worst = 0.0
    for pt in M.sample_points(samples, seed):
        x = pt.coords
        exact = C.dgamma_at(x)
        for l in range(M.dim):
            h = numdiff.step_for(x[l])
            fd = numdiff.central_diff(lambda z: C.gamma_at(z), x, l, h, order=4)
            worst = max(worst, float(np.max(np.abs(exact[l] - fd))))
    return worst
