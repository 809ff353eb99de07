"""Independent test-side oracles.

Everything here recomputes geometric quantities by brute force (plain
central differences of sampled values, explicit loops, explicit
Gram-Schmidt) without touching the library's symbolic-derivative paths, so
a library bug cannot hide in its own oracle.

The *_contraction oracles evaluate the multilinear identities on explicit
vectors, the way a textbook states them, as a check on the library's
whole-tensor residuals.

The *_per_point oracles are the product block reports written as loops over
sample points, each point through the library's one-point calls, as a check
on the reports' batched evaluation.

``kernel_source`` is the generated source of ``compile_array`` written as a
plain two-visit post-order walk over every entry, as a check on the
library's one-pass walk.

``tree_key`` is the node-for-node structure of a tree, as a check on the
library's interning: two trees are one object exactly when their keys are
equal.
"""

import functools

import numpy as np

from dualgeo.curvature import ricci_at, riemann_at, weyl_at
from dualgeo.exprlang import (FUNCTIONS, Binary, Const, Expr, Unary, Var, compile_array,
                              differentiate)
from dualgeo.products import MIXED_RICCI_SIGN, hessian_at


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


@functools.lru_cache(maxsize=None)
def _twist_b_kernels(P):
    coords = P.manifold.coords
    b1 = [differentiate(P.twist, c) for c in coords]
    return compile_array(b1, coords), compile_array([[differentiate(e, c) for c in coords]
                                                     for e in b1], coords)


def twist_b_derivatives(P, x):
    """(d_i b, d_i d_j b) at one product point, from the twist b itself.

    The library's block formulas take these from k = log b instead, so the
    block oracles below keep the b route as their own.
    """
    d1, d2 = _twist_b_kernels(P)
    return d1(x), d2(x)


def pad_base(P, v):
    """Horizontal lift of base components v, or of a batch: zero over the fiber."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([v, np.zeros(v.shape[:-1] + (P.s,))], axis=-1)


def pad_fiber(P, v):
    """Vertical lift of fiber components v, or of a batch: zero over the base."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([np.zeros(v.shape[:-1] + (P.r,)), v], axis=-1)


def curvature_block_contractions(P, conn, base_conn, fiber_conn, x, X, Y, Z, U, V, W):
    """max_l |direct - displayed| of each curvature block on lifted block vectors."""
    r = P.r
    xb, xf = P.split(x)
    g = P.manifold.metric_at(x)
    gBinv = P.base.inverse_metric_at(xb)
    b, k1, k2 = P.twist_data_at(x)
    b1, b2 = twist_b_derivatives(P, x)
    gam_b = P.base_levi_civita.gamma_at(xb)
    hess = hessian_at(P, x)
    gradk = P.gradient_of_log_twist(x)
    grad_b_norm_sq = float(b1[:r] @ gBinv @ b1[:r])
    hbB = b2[:r, :r] - np.einsum("cab,c->ab", gam_b, b1[:r])

    def apply(conn_, at, A, B, D):
        return np.einsum("lijk,i,j,k->l", riemann_at(conn_, at), A, B, D)

    Xl, Yl, Zl = (pad_base(P, v) for v in (X, Y, Z))
    Ul, Vl, Wl = (pad_fiber(P, v) for v in (U, V, W))
    Xk = float(X @ k1[:r])
    Vk = float(V @ k1[r:])
    UXk = float(U @ k2[r:, :r] @ X)
    VXk = float(V @ k2[r:, :r] @ X)
    gUV, gUW, gVW = (float(A @ g @ B) for A, B in ((Ul, Vl), (Ul, Wl), (Vl, Wl)))
    gradB_Vk = pad_base(P, gBinv @ (V @ k2[r:, :r]))
    gradB_Uk = pad_base(P, gBinv @ (U @ k2[r:, :r]))
    displayed_UVW = (pad_fiber(P, apply(fiber_conn, xf, U, V, W))
                     - (grad_b_norm_sq / b**2) * (gVW * Ul - gUW * Vl)
                     + gUW * gradB_Vk - gVW * gradB_Uk)
    d = {
        "R(X,Y)Z": apply(conn, x, Xl, Yl, Zl) - pad_base(P, apply(base_conn, xb, X, Y, Z)),
        "R(X,Y)U": apply(conn, x, Xl, Yl, Ul),
        "R(X,U)Y": apply(conn, x, Xl, Ul, Yl) - (float(X @ hbB @ Y) / b) * Ul,
        "R(U,V)X": apply(conn, x, Ul, Vl, Xl) - (UXk * Vl - VXk * Ul),
        "R(X,U)V": apply(conn, x, Xl, Ul, Vl)
                   - ((Xk * Vk + float(X @ hess.mixed_block @ V)) * Ul
                      - gUV * (Xk * gradk + X @ hess.operator)),
        "R(U,V)W[index-consistent]": apply(conn, x, Ul, Vl, Wl) - displayed_UVW,
    }
    return {block: float(np.max(np.abs(v))) for block, v in d.items()}


def riemann_block_residuals_per_point(P, conn, base_conn, fiber_conn, samples, seed):
    """Worst l1 residual of each displayed curvature block, one point at a time."""
    r, s, n = P.r, P.s, P.n
    worst = dict.fromkeys(("R(X,Y)Z", "R(X,Y)U", "R(X,U)Y", "R(U,V)X", "R(X,U)V",
                           "R(U,V)W[index-consistent]", "R(U,V)W[as-printed]"), 0.0)
    fiber_out = np.eye(n)[:, r:]
    for x in P.manifold.sample_array(samples, seed):
        xb, xf = P.split(x)
        gFF = P.manifold.metric_at(x)[r:, r:]
        gBinv = P.base.inverse_metric_at(xb)
        R = riemann_at(conn, x)
        R_B = riemann_at(base_conn, xb)
        R_F = riemann_at(fiber_conn, xf)
        b, k1, k2 = P.twist_data_at(x)
        b1, b2 = twist_b_derivatives(P, x)
        gam_b = P.base_levi_civita.gamma_at(xb)
        hess = hessian_at(P, x)
        gradk = P.gradient_of_log_twist(x)
        grad_b_norm_sq = float(b1[:r] @ gBinv @ b1[:r])
        hbB = b2[:r, :r] - np.einsum("cab,c->ab", gam_b, b1[:r])
        kUX = k2[r:, :r]
        gradB_Uk = np.zeros((n, s))
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
            "R(U,V)W[as-printed]": (R_UVW - common
                                    + np.einsum("vu,lu->luv", gFF, gradB_Uk)[..., None]),
        }
        for block, diff in d.items():
            worst[block] = max(worst[block], float(np.max(np.sum(np.abs(diff), axis=(1, 2, 3)))))
    return worst


def mixed_ricci_table_per_point(P, samples, seed):
    """(max |Ric(X,V)|, max |(s-1)XV(k)|, max residual with the adopted sign)."""
    out = np.zeros(3)
    for pt in P.manifold.sample_array(samples, seed):
        direct = ricci_at(P.manifold, P.chart_levi_civita, pt)[: P.r, P.r:]
        closed = (P.s - 1) * P.twist_data_at(pt)[2][: P.r, P.r:]
        out = np.maximum(out, [np.max(np.abs(direct)), np.max(np.abs(closed)),
                               np.max(np.abs(direct - MIXED_RICCI_SIGN * closed))])
    return tuple(out)


def ricci_base_block_residual_per_point(P, samples, seed):
    r, s = P.r, P.s
    worst = 0.0
    for pt in P.manifold.sample_array(samples, seed):
        xb, _ = P.split(pt)
        ric = ricci_at(P.manifold, P.chart_levi_civita, pt)
        ric_b = ricci_at(P.base, P.base_levi_civita, xb)
        _, k1, _ = P.twist_data_at(pt)
        formula = ric_b - s * (hessian_at(P, pt).base_block + np.outer(k1[:r], k1[:r]))
        worst = max(worst, float(np.max(np.abs(ric[:r, :r] - formula))))
    return worst


def mixed_weyl_report_per_point(P, samples, seed):
    """The five maxima of MixedWeylReport, in its field order."""
    n, r, s = P.n, P.r, P.s
    base, fib = np.eye(n)[:, :r], np.eye(n)[:, r:]
    out = np.zeros(5)
    for pt in P.manifold.sample_array(samples, seed):
        W = weyl_at(P.manifold, P.chart_levi_civita, pt)
        cross = P.twist_data_at(pt)[2][:r, r:]
        xyv = ((1 - s) / (n - 2)) * (np.einsum("lb,aw->labw", base, cross)
                                     - np.einsum("la,bw->labw", base, cross))
        vwx = ((r - 1) / (n - 2)) * (np.einsum("lw,av->lvwa", fib, cross)
                                     - np.einsum("lv,aw->lvwa", fib, cross))
        W_xyv, W_vwx = W[:, :r, :r, r:], W[:, r:, r:, :r]
        out = np.maximum(out, [np.max(np.abs(W_xyv - xyv)), np.max(np.abs(W_vwx - vwx)),
                               np.max(np.abs(W_xyv)), np.max(np.abs(W_vwx)),
                               np.max(np.abs(W[:, :r, r:, :]))])
    return tuple(out)


_BINARY_SRC = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}",
               "div": "_div({}, {})", "pow": "_pow({}, {})"}


def tree_key(e) -> tuple:
    """The node-for-node structure of e, constants by type and repr."""
    if isinstance(e, Const):
        return ("const", type(e.value), repr(e.value))
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Unary):
        return ("unary", e.op, tree_key(e.arg))
    return ("binary", e.op, tree_key(e.left), tree_key(e.right))


def _flat_entries(exprs) -> list:
    """Row-major entries of a nested list, every sub-list visited each time it appears."""
    if isinstance(exprs, Expr):
        return [exprs]
    return [e for part in exprs for e in _flat_entries(part)]


def _children(e) -> tuple:
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    return ()


def kernel_source(exprs, coords) -> str:
    """The source ``compile_array(exprs, coords)`` generates, by an independent walk.

    Every entry is walked from its root.  A node stays on the stack until
    the children it has not named yet (right child on top) are named, and
    is then named by its structural key: a constant by type and ``repr``, a
    coordinate by name, an op by its op and its children's names.  A new key
    gets the next number: ``c<n>`` for a constant, ``t<n>`` with one
    assignment line otherwise.  The kernel returns each entry's name once,
    in order of first appearance.
    """
    slot = {name: i for i, name in enumerate(coords)}
    flat = _flat_entries(exprs)
    by_id, by_key, lines = {}, {}, []
    for root in flat:
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in by_id:
                stack.pop()
                continue
            pending = [c for c in _children(e) if id(c) not in by_id]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if isinstance(e, Const):
                key = ("const", type(e.value), repr(e.value))
            elif isinstance(e, Var):
                key = ("var", e.name)
            else:
                key = (e.op, *(by_id[id(c)] for c in _children(e)))
            if key not in by_key:
                n = len(by_key)
                if isinstance(e, Const):
                    by_key[key] = f"c{n}"
                else:
                    by_key[key] = f"t{n}"
                    if isinstance(e, Var):
                        rhs = f"x[{slot[e.name]}]" if e.name in slot else f"_unbound(c{n})"
                    elif isinstance(e, Unary):
                        assert e.op == "neg" or e.op in FUNCTIONS
                        rhs = f"-{key[1]}" if e.op == "neg" else f"{e.op}({key[1]})"
                    else:
                        rhs = _BINARY_SRC[e.op].format(*key[1:])
                    lines.append(f"    t{n} = {rhs}")
            by_id[id(e)] = by_key[key]
    outputs = ", ".join(dict.fromkeys(by_id[id(e)] for e in flat))  # each name once, first first
    return "\n".join(["def kernel(x):", *lines, f"    return [{outputs}]"])
