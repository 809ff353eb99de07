"""Independent test-side oracles.

Everything here recomputes geometric quantities by brute force (plain
central differences of sampled values, explicit loops, explicit
Gram-Schmidt) without touching the library's symbolic-derivative paths, so
a library bug cannot hide in its own oracle.

The *_contraction oracles evaluate the multilinear identities on explicit
vectors, the way a textbook states them, as a check on the library's
whole-tensor residuals.
"""

import numpy as np

from dualgeo.curvature import riemann_at
from dualgeo.products import hessian_at


def fd1(f, x, i, h=1e-6):
    """Plain second-order central difference of a scalar/array function."""
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[i] = h
    return (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)


def koszul_fd_christoffel(M, x, h=1e-6):
    """Christoffel symbols from finite differences of the metric alone."""
    x = np.asarray(x, dtype=float)
    d = M.dim
    ginv = np.linalg.inv(M.metric_at(x))
    dg = np.array([fd1(M.metric_at, x, i, h) for i in range(d)])  # dg[i][j,k] = d_i g_jk
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = 0.0
                for l in range(d):
                    acc += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def riemann_fd(conn, x, h=1e-5):
    """Curvature from finite differences of the connection coefficients."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    gam = conn.gamma_at(x)
    dgam = np.array([fd1(conn.gamma_at, x, q, h) for q in range(d)])
    R = np.zeros((d, d, d, d))
    for l in range(d):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    val = dgam[i][l, j, k] - dgam[j][l, i, k]
                    for m in range(d):
                        val += gam[l, i, m] * gam[m, j, k] - gam[l, j, m] * gam[m, i, k]
                    R[l, i, j, k] = val
    return R


def gram_schmidt_frame(g):
    """Explicit Gram-Schmidt of the coordinate frame; rows are orthonormal."""
    d = g.shape[0]
    frame = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        for e in frame:
            v = v - (e @ g @ v) * e
        frame.append(v / np.sqrt(v @ g @ v))
    return np.array(frame)


def ricci_frame_oracle(M, conn, x, R=None):
    """Ricci by explicit orthonormal-frame contraction of an FD curvature."""
    x = np.asarray(x, dtype=float)
    d = M.dim
    g = M.metric_at(x)
    E = gram_schmidt_frame(g)
    if R is None:
        R = riemann_fd(conn, x)
    ric = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            acc = 0.0
            for i in range(d):
                vec = np.array([sum(R[l, a, j, k] * E[i, a] for a in range(d))
                                for l in range(d)])
                acc += vec @ g @ E[i]
            ric[j, k] = acc
    return ric


def scalar_frame_oracle(M, conn, x, R=None):
    g = M.metric_at(np.asarray(x, dtype=float))
    E = gram_schmidt_frame(g)
    ric = ricci_frame_oracle(M, conn, x, R)
    return float(sum(E[i] @ ric @ E[i] for i in range(len(g))))


def _apply(gam, X, Y):
    """Components of nabla_X Y for a constant-coefficient field Y."""
    return np.einsum("kij,i,j->k", gam, X, Y)


def torsion_relation_contraction(M, C, Cstar, x, X, Y, Z):
    """|g(T(X,Y),Z) - g(T*(X,Y),Z) - (nabla* g)(X,Y,Z) + (nabla* g)(Y,X,Z)|."""
    g = M.metric_at(x)
    dg = M.metric_derivatives_at(x)
    gam, gam_s = C.gamma_at(x), Cstar.gamma_at(x)

    def torsion(G, A, B):
        return _apply(G, A, B) - _apply(G, B, A)

    def cubic_star(A, B, D):
        return (np.einsum("ijk,i,j,k->", dg, A, B, D)
                - _apply(gam_s, A, B) @ g @ D - B @ g @ _apply(gam_s, A, D))

    lhs = torsion(gam, X, Y) @ g @ Z
    rhs = torsion(gam_s, X, Y) @ g @ Z + cubic_star(X, Y, Z) - cubic_star(Y, X, Z)
    return float(abs(lhs - rhs))


def curvature_duality_contraction(M, C, Cstar, x, X, Y, Z, W):
    """|g(R(X,Y)Z, W) + g(R*(X,Y)W, Z)|."""
    g = M.metric_at(x)
    RZ = np.einsum("lijk,i,j,k->l", riemann_at(C, x), X, Y, Z)
    RsW = np.einsum("lijk,i,j,k->l", riemann_at(Cstar, x), X, Y, W)
    return float(abs(RZ @ g @ W + RsW @ g @ Z))


def curvature_block_contractions(P, conn, base_conn, fiber_conn, x, X, Y, Z, U, V, W):
    """max_l |direct - displayed| of each curvature block on lifted block vectors."""
    r = P.r
    xb, xf = P.split(x)
    g = P.manifold.metric_at(x)
    gBinv = P.base.inverse_metric_at(xb)
    b, k1, k2 = P.twist_data_at(x)
    b1, b2 = P.twist_hessian_b_at(x)
    gam_b = P.base_levi_civita.gamma_at(xb)
    hess = hessian_at(P, x)
    gradk = P.gradient_of_log_twist(x)
    grad_b_norm_sq = float(b1[:r] @ gBinv @ b1[:r])
    hbB = b2[:r, :r] - np.einsum("cab,c->ab", gam_b, b1[:r])

    def apply(conn_, at, A, B, D):
        return np.einsum("lijk,i,j,k->l", riemann_at(conn_, at), A, B, D)

    Xl, Yl, Zl = (P.pad_base(v) for v in (X, Y, Z))
    Ul, Vl, Wl = (P.pad_fiber(v) for v in (U, V, W))
    Xk = float(X @ k1[:r])
    Vk = float(V @ k1[r:])
    UXk = float(U @ k2[r:, :r] @ X)
    VXk = float(V @ k2[r:, :r] @ X)
    gUV, gUW, gVW = (float(A @ g @ B) for A, B in ((Ul, Vl), (Ul, Wl), (Vl, Wl)))
    gradB_Vk = P.pad_base(gBinv @ (V @ k2[r:, :r]))
    gradB_Uk = P.pad_base(gBinv @ (U @ k2[r:, :r]))
    displayed_UVW = (P.pad_fiber(apply(fiber_conn, xf, U, V, W))
                     - (grad_b_norm_sq / b**2) * (gVW * Ul - gUW * Vl)
                     + gUW * gradB_Vk - gVW * gradB_Uk)
    d = {
        "R(X,Y)Z": apply(conn, x, Xl, Yl, Zl) - P.pad_base(apply(base_conn, xb, X, Y, Z)),
        "R(X,Y)U": apply(conn, x, Xl, Yl, Ul),
        "R(X,U)Y": apply(conn, x, Xl, Ul, Yl) - (float(X @ hbB @ Y) / b) * Ul,
        "R(U,V)X": apply(conn, x, Ul, Vl, Xl) - (UXk * Vl - VXk * Ul),
        "R(X,U)V": apply(conn, x, Xl, Ul, Vl)
                   - ((Xk * Vk + float(X @ hess.mixed_block @ V)) * Ul
                      - gUV * (Xk * gradk + X @ hess.operator)),
        "R(U,V)W[index-consistent]": apply(conn, x, Ul, Vl, Wl) - displayed_UVW,
    }
    return {block: float(np.max(np.abs(v))) for block, v in d.items()}
