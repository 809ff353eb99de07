"""A batch of points (N, d) gives the stack of the per-point results.

The per-point calls are the reference.  Metric arrays, the inverse metric
and the coefficients of Levi-Civita, explicit and block-assembled
connections must match bitwise.  Quantities that contract arrays on the
batch path (conjugate coefficients, curvature, cubic form) must match to
1e-14 (1 + max|.|).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from dualgeo import fixtures as fx
from dualgeo.connections import (conjugate, cubic_form_at, explicit_connection, torsion_at,
                                 torsion_relation_residual)
from dualgeo.curvature import curvature_duality_residual, riemann_at
from dualgeo.geometry import ManifoldSpec, SingularMetricError

_MANIFOLDS = fx.standard_manifolds()
_TWISTS = dict(fx.standard_twists())
_SUITE = fx.dualistic_suite()


def _connections():
    """(manifold, connection) for every provenance on the standard fixtures."""
    out = []
    for M in _MANIFOLDS:
        for _, C in fx.connection_suite(M):
            out.append((M, C))
            out.append((M, conjugate(C, M)))
    for P in _TWISTS.values():
        out.append((P.manifold, P.block_levi_civita_connection))
    for entry in _SUITE:
        st_ = entry["structure"]
        out.append((st_.manifold, st_.primal))
        out.append((st_.manifold, st_.dual))
    return out


_CONNECTIONS = _connections()
_CHARTS = _MANIFOLDS + [P.manifold for P in _TWISTS.values()]
_BITWISE = ("levi-civita", "explicit", "induced-product")


def _subset(M: ManifoldSpec, seed: int, picks: list[int]) -> np.ndarray:
    """Rows of a seeded sample set, in the drawn order (repeats allowed)."""
    return M.sample_array(16, seed)[picks]


def _stack(f, X: np.ndarray) -> np.ndarray:
    return np.stack([f(x) for x in X])


def _assert_close(batch: np.ndarray, stacked: np.ndarray) -> None:
    assert batch.shape == stacked.shape
    scale = 1.0 + float(np.max(np.abs(stacked)))
    assert float(np.max(np.abs(batch - stacked))) <= 1e-14 * scale


_picks = st.lists(st.integers(0, 15), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CHARTS), st.integers(0, 2**16), _picks)
def test_metric_arrays_stack_bitwise(M, seed, picks):
    X = _subset(M, seed, picks)
    for f in (M.metric_at, M.inverse_metric_at, M.metric_derivatives_at,
              M.metric_second_derivatives_at):
        batch = f(X)
        assert batch.shape == (len(picks),) + f(X[0]).shape
        assert batch.tobytes() == _stack(f, X).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CONNECTIONS), st.integers(0, 2**16), _picks)
def test_connection_arrays_stack(pair, seed, picks):
    M, C = pair
    X = _subset(M, seed, picks)
    if C.provenance in _BITWISE:
        for f in (C.gamma_at, C.dgamma_at, lambda x: torsion_at(C, x)):
            assert f(X).tobytes() == _stack(f, X).tobytes()
    else:
        _assert_close(C.gamma_at(X), _stack(C.gamma_at, X))
        _assert_close(C.dgamma_at(X), _stack(C.dgamma_at, X))
        _assert_close(torsion_at(C, X), _stack(lambda x: torsion_at(C, x), X))
    _assert_close(riemann_at(C, X), _stack(lambda x: riemann_at(C, x), X))
    _assert_close(cubic_form_at(M, C, X), _stack(lambda x: cubic_form_at(M, C, x), X))


def test_memo_keeps_point_and_batch_apart(sphere):
    x = sphere.sample_array(1, 5)[0]
    batch = x[None, :]
    assert x.tobytes() == batch.tobytes()
    for order in ((x, batch), (batch, x)):
        M = ManifoldSpec(sphere.name, sphere.coords, sphere.domain, sphere.metric)
        for p in order:
            assert M.metric_at(p).shape == p.shape + (2,)
            assert M.inverse_metric_at(p).shape == p.shape + (2,)
            assert M.metric_derivatives_at(p).shape == p.shape + (2, 2)
            assert M.metric_second_derivatives_at(p).shape == p.shape + (2, 2, 2)


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def test_singular_row_raises_the_first_point_error():
    M = ManifoldSpec.from_strings("pinched", ("x", "y"), [(-1, 1), (-1, 1)],
                                  [["x^2", "0"], ["0", "1"]])
    X = np.array([[0.5, 0.1], [0.0, 0.2], [0.0, 0.3], [0.4, 0.4]])

    def loop():
        for x in X:
            M.inverse_metric_at(x)

    _, want = _outcome(loop)
    assert want is not None and want[0] is SingularMetricError
    fresh = ManifoldSpec.from_strings("pinched", ("x", "y"), [(-1, 1), (-1, 1)],
                                      [["x^2", "0"], ["0", "1"]])
    _, got = _outcome(lambda: fresh.inverse_metric_at(X))
    assert got == want
    assert "[0.  0.2]" in got[1]


def test_batch_residuals_are_the_worst_point(euclid2):
    # a torsionful connection against a perturbed dual: every point has a
    # nonzero l1 residual, so a norm summed over the batch would read larger
    C = explicit_connection(euclid2, {(0, 0, 1): "0.5 + 0.1*x", (1, 1, 1): "0.2*y"})
    Cs = explicit_connection(euclid2, {(0, 1, 0): "0.3", (1, 0, 0): "0.1*x*y"})
    X = euclid2.sample_array(6, 11)

    def residuals(x):
        g = euclid2.metric_at(x)
        return (curvature_duality_residual(g, riemann_at(C, x), riemann_at(Cs, x)),
                torsion_relation_residual(g, torsion_at(C, x), torsion_at(Cs, x),
                                          cubic_form_at(euclid2, Cs, x)))

    per_point = np.array([residuals(x) for x in X])
    assert np.all(per_point > 0.0)
    assert residuals(X) == tuple(per_point.max(axis=0))
