"""Induced dualistic structures on products and the flatness analyzers.

Factor structures (g_B, B-D, B-D*) and (g_F, F-D, F-D*) induce a structure
(g, D, D*) on the twisted product: D follows the twisted block pattern with
the factor primal connections substituted, and D* is derived by
conjugation.  The direct flatness verdict and the warped-reduction chain are
built once per structure; each analyzer evaluates its characterization's
hypotheses (mixed Ricci, mixed Weyl, parallel Weyl / Hessian condition) and
compares the chain's prediction against that direct verdict.
"""

from dualgeo import (dually_flat_verdict, explicit_connection, induce_on_product,
                     levi_civita, make_dualistic, projection_check, reduction_chain,
                     theorem41_analyze, theorem42_analyze, theorem43_analyze, twisted_product)
from dualgeo.fixtures import euclidean, sphere2


def flat_line(name, coord):
    M = euclidean(1, (coord,), name)
    return make_dualistic(M, explicit_connection(M, {}))


def induce(dB, dF, twist):
    """The induced structure on the twisted product of dB's and dF's charts."""
    return induce_on_product(twisted_product(dB.manifold, dF.manifold, twist), dB, dF)


def verdict_and_chain(st):
    """The direct verdict and the reduction chain every analyzer of st receives."""
    return dually_flat_verdict(st, samples=32), reduction_chain(st, 32, 42)


def show(title, record):
    print(f"\n--- theorem {record.theorem}: {title}")
    print(f"  predicted dually flat: {record.predicted_dually_flat}")
    print(f"  direct verdict:        {record.direct.dually_flat}")
    print(f"  agreement:             {record.agreement}")
    for note in record.notes:
        print(f"  note: {note}")


# -- a fiber-twisted product of flat factors: dually flat, chain agrees --------

dB = flat_line("lineB", "x")
dF = flat_line("lineF", "u")
st = induce(dB, dF, "exp(u)")
print("induced structure residual:", st.residual)
print("projection recovery:", projection_check(st).max_residual())
show("mixed-Ricci chain on b = exp(u)", theorem41_analyze(st, *verdict_and_chain(st)))

# -- a proper twist with a 2-dimensional fiber: hypothesis fails ----------------

plane = euclidean(2, ("u", "v"), "planeF")
dF2 = make_dualistic(plane, explicit_connection(plane, {}))
st2 = induce(dB, dF2, "exp(x*u)")
rec2 = theorem41_analyze(st2, *verdict_and_chain(st2))
show("mixed-Ricci chain on b = exp(x*u)", rec2)
print(f"  hypothesis applies: {rec2.applies}, max |Ric(X,V)| = {rec2.hypothesis['mixed_ricci_max']}")

# -- a curved base: not dually flat, and the chain knows why --------------------

sphere = sphere2()
d_sphere = make_dualistic(sphere, levi_civita(sphere))
st3 = induce(d_sphere, dF, "1")
rec3 = theorem41_analyze(st3, *verdict_and_chain(st3))
show("direct product over a sphere base", rec3)
print(f"  base dually flat: {rec3.chain.base_verdict.dually_flat}")

# -- the other two analyzers on a 4-dimensional direct product ------------------

space = euclidean(3, ("u", "v", "w"), "spaceF")
dF3 = make_dualistic(space, explicit_connection(space, {}))
st4 = induce(dB, dF3, "1")
verdict, chain = verdict_and_chain(st4)
rec42 = theorem42_analyze(st4, verdict, chain)
print(f"\nmixed-Weyl hypothesis holds: {rec42.applies}, "
      f"agreement: {rec42.agreement}")
# one tolerance (dualistic.BRANCH_TOL) decides both branch conditions; the
# Weyl defect is exact
rec43 = theorem43_analyze(st4, verdict, chain)
hyp = rec43.hypothesis
print(f"parallel-Weyl/Hessian branch: {rec43.branch} "
      f"(Weyl parallel: {hyp['weyl_parallel']}, "
      f"|nabla W| = {hyp['weyl_parallel_defect']:.1e}, "
      f"Hessian defect: {hyp['hessian_defect']}), agreement: {rec43.agreement}")

# -- direct verdict is always the ground truth ----------------------------------

print(f"\ndirect verdict for the 4d direct product: dually flat = {verdict.dually_flat}")
