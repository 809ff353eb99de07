"""The l1 residuals of the multilinear identities bound every contraction.

Each identity is checked by the library as a whole tensor and reported as
the l1 norm of its residual tensor.  For vectors in [-1, 1]^d that norm
bounds the identity evaluated on the vectors; these tests draw the vectors
and compare against the explicit-contraction oracles, on inputs where the
residual is not zero.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualgeo.connections import ConnectionField, conjugate, explicit_connection
from dualgeo.connections import cubic_form_at, torsion_at, torsion_relation_residual
from dualgeo.curvature import curvature_duality_residual, riemann_at
from dualgeo.products import riemann_block_residuals, twisted_product
from dualgeo import fixtures as fx

from oracles import (curvature_block_contractions, curvature_duality_contraction,
                     torsion_relation_contraction)

SLACK = 1e-12
seeds = st.integers(0, 10_000)


def vectors(count, dim):
    # A multilinear form is largest at the vertices of the cube, so they are
    # drawn often.
    entries = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    return arrays(float, (count, dim), elements=entries)


PLANE = fx.euclidean(2)
TORSIONFUL = explicit_connection(PLANE, {(0, 0, 1): "1", (1, 0, 0): "x"})

FISHER = fx.fisher_normal()
_C = explicit_connection(FISHER, {(0, 0, 0): "0.5*m", (1, 0, 1): "s"})
_CS = conjugate(_C, FISHER)
_SHIFT = np.array([[[0.1, -0.2], [0.0, 0.3]], [[0.2, 0.0], [-0.1, 0.1]]])
PERTURBED_DUAL = ConnectionField(FISHER, "explicit", lambda x: _CS.gamma_at(x) + _SHIFT,
                                 _CS.dgamma_at)

COSH_TWIST = twisted_product(fx.euclidean(1, ("x",), "lineB"),
                             fx.euclidean(2, ("u", "v"), "planeF"), "cosh(0.8*x*u)")


@settings(max_examples=60, deadline=None)
@given(seeds, vectors(3, 2))
def test_torsion_relation_bound(seed, vecs):
    pt = PLANE.sample_array(1, seed)[0]
    T = torsion_at(TORSIONFUL, pt)
    residual = torsion_relation_residual(PLANE.metric_at(pt), T, T,
                                         cubic_form_at(PLANE, TORSIONFUL, pt))
    assert residual > 0.1
    assert torsion_relation_contraction(PLANE, TORSIONFUL, TORSIONFUL, pt,
                                        *vecs) <= residual + SLACK


@settings(max_examples=60, deadline=None)
@given(seeds, vectors(4, 2))
def test_curvature_duality_bound(seed, vecs):
    pt = FISHER.sample_array(1, seed)[0]
    residual = curvature_duality_residual(FISHER.metric_at(pt), riemann_at(_C, pt),
                                          riemann_at(PERTURBED_DUAL, pt))
    assert residual > 1e-3
    assert curvature_duality_contraction(FISHER, _C, PERTURBED_DUAL, pt,
                                         *vecs) <= residual + SLACK


@settings(max_examples=30, deadline=None)
@given(seeds, vectors(3, 1), vectors(3, 2))
def test_curvature_block_bounds(seed, base_vecs, fiber_vecs):
    P = COSH_TWIST
    conns = (P.chart_levi_civita, P.base_levi_civita, P.fiber_levi_civita)
    residuals = riemann_block_residuals(P, *conns, samples=1, seed=seed)
    assert residuals["R(U,V)W[index-consistent]"] > 1e-9
    pt = P.manifold.sample_array(1, seed)[0]
    contractions = curvature_block_contractions(P, *conns, pt,
                                                *base_vecs, *fiber_vecs)
    for block, value in contractions.items():
        assert value <= residuals[block] + SLACK, block
