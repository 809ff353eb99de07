"""Expressions, charts and pointwise metric algebra.

Everything in this package is built on closed-form scalar expressions of
named coordinates: metric entries, connection coefficients and twisting
functions are all parsed from strings and differentiated exactly.
"""

import numpy as np

from dualgeo import ManifoldSpec, differentiate, evaluate, parse, to_source

# -- the expression language -------------------------------------------------

e = parse("sin(th)^2 + exp(0.5*th)", ["th"])
print("expression:   ", to_source(e))
print("value at 1.2: ", evaluate(e, {"th": 1.2}))

d = differentiate(e, "th")
print("derivative:   ", to_source(d))
print("d/dth at 1.2: ", evaluate(d, {"th": 1.2}))

# derivatives are exact ASTs, so they can be nested to any order
d3 = differentiate(differentiate(d, "th"), "th")
print("third order:  ", evaluate(d3, {"th": 1.2}))

# -- a chart manifold ----------------------------------------------------------

# the round sphere away from its poles, in colatitude/azimuth coordinates
sphere = ManifoldSpec.from_strings(
    "sphere2", ("th", "ph"), [(0.3, 2.8), (0.0, 3.0)],
    [["1", "0"], ["0", "sin(th)^2"]])

p = sphere.point([np.pi / 4, 1.0])
print("\nmetric at th=pi/4:\n", sphere.metric_at(p))
print("inverse metric:\n", sphere.inverse_metric_at(p))
print("d_th g_phph =", sphere.metric_derivatives_at(p)[0, 1, 1], " (= 2 sin cos = 1)")

# the metric gradient satisfies g(grad f, X) = X(f)
grad = sphere.gradient_at(parse("ph", sphere.coords), p)
print("grad(ph) =", grad, " (1/sin^2 at pi/4 is 2)")

# deterministic interior sampling drives every statistical check in the suite
pts = sphere.sample_array(3, seed=42)
print("\nseeded samples:", np.round(pts, 3).tolist())
