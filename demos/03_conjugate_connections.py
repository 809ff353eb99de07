"""Conjugate connections and dualistic structures.

Two connections are conjugate with respect to g when

    X.g(Y,Z) = g(D_X Y, Z) + g(Y, D*_X Z).

The metric connection is self-conjugate; a non-metric connection has a
genuinely different partner, and the pair inherits a web of identities:
the cubic form flips sign, torsion tensors are linked, and the curvature
operators satisfy g(R(X,Y)Z,W) = -g(R*(X,Y)W,Z).
"""

import numpy as np

from dualgeo import (conjugate, cubic_form_at, duality_residual, explicit_connection,
                     is_statistical, levi_civita, make_dualistic, dually_flat_verdict,
                     riemann_at)
from dualgeo.curvature import curvature_duality_residual
from dualgeo.fixtures import euclidean, fisher_normal, hessian_exp2, sphere2

# -- the simplest conjugate pair ---------------------------------------------

line = euclidean(1, ("x",), "line")
C = explicit_connection(line, {(0, 0, 0): "0.7"})
Cstar = conjugate(C, line)
p = line.point([0.2])
print("Gamma = 0.7  ->  Gamma* =", Cstar.gamma_at(p)[0, 0, 0])
print("duality residual of the pair:", duality_residual(line, C, Cstar, p))
print("residual if both were 0.7:   ", duality_residual(line, C, C, p))

# cubic form sign flip: (D* g) = -(D g)
print("cubic form of D:  ", cubic_form_at(line, C, p)[0, 0, 0])
print("cubic form of D*: ", cubic_form_at(line, Cstar, p)[0, 0, 0])

# -- curvature duality on a curved fixture -------------------------------------

fisher = fisher_normal()
Cf = explicit_connection(fisher, {(0, 0, 0): "0.5*m", (1, 0, 1): "s"})
Cf_star = conjugate(Cf, fisher)
pt = fisher.sample_array(1, 3)[0]
print("\ncurvature-duality residual on the Fisher chart:",
      curvature_duality_residual(fisher.metric_at(pt), riemann_at(Cf, pt),
                                 riemann_at(Cf_star, pt)))

# -- statistical structures ------------------------------------------------------

sphere = sphere2()
print("\n(sphere, metric connection) statistical:",
      is_statistical(sphere, levi_civita(sphere)).is_statistical)
torsionful = explicit_connection(euclidean(2), {(0, 0, 1): "1"})
print("torsionful connection statistical:",
      is_statistical(euclidean(2), torsionful, samples=16).is_statistical)

# -- a non-trivial dually flat structure ----------------------------------------

# Hessian metric diag(e^x, e^y) with the zero connection: the conjugate is
# non-zero, both are flat and torsion-free, yet the metric itself is curved.
M = hessian_exp2()
st = make_dualistic(M, explicit_connection(M, {}))
verdict = dually_flat_verdict(st)
print(f"\nHessian chart: dually flat = {verdict.dually_flat} "
      f"(|R| = {verdict.riemann_primal_max:.1e}, |R*| = {verdict.riemann_dual_max:.1e})")
print("dual connection at the center:\n",
      np.round(st.dual.gamma_at(M.center()), 6))
