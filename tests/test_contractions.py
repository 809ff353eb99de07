"""Each contraction written as batched matmul equals its einsum formula.

The formulas are the ones kept as comments beside the rewrites in
``connections.py`` and ``curvature.py``.  Every case is checked at d = 1..4,
for one point and for a batch, to 1e-14 (1 + max|einsum|), on random
operands with entries in [-1, 1].  The Weyl tensor's outer products are
single multiplies either way, so ``_weyl`` equals its einsum formula bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgeo.connections import _d2ginv, _dginv, _lower_first, _raise_last, _raise_middle
from dualgeo.curvature import (_compose, _lower_riemann, _ricci, _riemann, _riemann_derivative,
                               _scalar, _sectional_numerator, _weyl)


def _lift(a, *axes):
    """``a`` with new axes inserted at the given negative positions, as ``a[..., None, ...]``."""
    for axis in axes:
        a = np.expand_dims(a, axis)
    return a


# (einsum formula, rewrite); the rewrite takes the operands in the formula's order
CASES = {
    "dginv": ("...ab,...qbc,...cd->...qad", lambda g, dg, _: -_dginv(g, dg)),
    "lc-gamma": ("...kl,...ijl->...kij", _raise_last),
    "lc-dgamma-dginv": ("...qkl,...ijl->...qkij", lambda A, T: _raise_last(A, _lift(T, -4))),
    "lc-dgamma-ginv": ("...kl,...qijl->...qkij", lambda A, T: _raise_last(_lift(A, -3), T)),
    "lc-d2gamma-d2ginv": ("...pqkl,...ijl->...pqkij",
                          lambda A, T: _raise_last(A, _lift(T, -4, -4))),
    "lc-d2gamma-q": ("...qkl,...pijl->...pqkij",
                     lambda A, T: _raise_last(_lift(A, -4), _lift(T, -4))),
    "lc-d2gamma-p": ("...pkl,...qijl->...pqkij",
                     lambda A, T: _raise_last(_lift(A, -3), _lift(T, -5))),
    "lc-d2gamma-ginv": ("...kl,...pqijl->...pqkij",
                        lambda A, T: _raise_last(_lift(A, -3, -3), T)),
    "lower": ("...mij,...mk->...ijk", _lower_first),
    "lower-dgamma": ("...qmij,...mk->...qijk", lambda G, g: _lower_first(G, _lift(g, -3))),
    "lower-dg": ("...mij,...qmk->...qijk", lambda G, dg: _lower_first(_lift(G, -4), dg)),
    "lower-dual": ("...mik,...jm->...ijk",
                   lambda G, g: _lower_first(G, g.swapaxes(-1, -2)).swapaxes(-2, -1)),
    "raise-middle": ("...lj,...ijk->...lik", _raise_middle),
    "raise-middle-dginv": ("...qlj,...ijk->...qlik", lambda A, T: _raise_middle(A, _lift(T, -4))),
    "raise-middle-ginv": ("...lj,...qijk->...qlik", lambda A, T: _raise_middle(_lift(A, -3), T)),
    "compose": ("...lim,...mjk->...lijk", _compose),
    "lower-riemann": ("...lijk,...lm->...ijkm", _lower_riemann),
    "ricci": ("...ia,...lajk,...lm,...im->...jk", lambda E, R, g, _: _ricci(R, g, E)),
    "scalar": ("...ij,...ik,...jk->...", lambda E, _, ric: _scalar(ric, E)),
    "sectional": ("...lijk,...i,...j,...k,...lm,...m->...",
                  lambda R, X, Y, _, g, __: _sectional_numerator(R, g, X, Y)),
}
CASES["sectional-per-point"] = CASES["sectional"]
# operand index: the earlier operand it repeats (g^-1, the frame E, the plane X, Y)
REPEATS = {"dginv": {2: 0}, "ricci": {3: 0}, "scalar": {1: 0}, "sectional": {3: 2, 5: 1},
           "sectional-per-point": {3: 2, 5: 1}}
# operands shared by every point of a batch: the plane of "sectional"; the
# plane of "sectional-per-point" is one per point
SHARED = {"sectional": (1, 2)}


def _operands(case, d, batch, rng):
    formula = CASES[case][0]
    ops = []
    for index, spec in enumerate(formula.split("->")[0].split(",")):
        if index in REPEATS.get(case, {}):
            ops.append(ops[REPEATS[case][index]])
            continue
        lead = () if index in SHARED.get(case, ()) else batch
        ops.append(rng.uniform(-1.0, 1.0, lead + (d,) * len(spec.removeprefix("..."))))
    return ops


def _close(got, want):
    assert got.shape == want.shape
    bound = 1e-14 * (1.0 + float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= bound


point_or_batch = st.one_of(st.just(()), st.tuples(st.integers(1, 4)))


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=12, deadline=None)
@given(d=st.integers(1, 4), batch=point_or_batch, seed=st.integers(0, 2**32 - 1))
def test_rewrite_equals_its_einsum(case, d, batch, seed):
    formula, rewrite = CASES[case]
    ops = _operands(case, d, batch, np.random.default_rng(seed))
    _close(np.asarray(rewrite(*ops)), np.einsum(formula, *ops))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sectional_plane_per_point_when_points_equal_dim(n):
    # n == d, where a contraction over the point axis would give numbers of
    # the right shape; each point's plane is its own
    rng = np.random.default_rng(n)
    R, g = rng.uniform(-1.0, 1.0, (n,) + (n,) * 4), rng.uniform(-1.0, 1.0, (n, n, n))
    X, Y = rng.uniform(-1.0, 1.0, (2, n, n))
    want = np.einsum("...lijk,...i,...j,...k,...lm,...m->...", R, X, Y, Y, g, X)
    _close(_sectional_numerator(R, g, X, Y), want)
    for i in range(n):
        _close(_sectional_numerator(R[i], g[i], X[i], Y[i]), want[i])


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 4), batch=point_or_batch, seed=st.integers(0, 2**32 - 1))
def test_second_inverse_metric_derivative(d, batch, seed):
    rng = np.random.default_rng(seed)
    ginv, dg, dginv, d2g = (rng.uniform(-1.0, 1.0, batch + (d,) * k) for k in (2, 3, 3, 4))
    want = -(np.einsum("...pab,...qbc,...cd->...pqad", dginv, dg, ginv)
             + np.einsum("...ab,...pqbc,...cd->...pqad", ginv, d2g, ginv)
             + np.einsum("...ab,...qbc,...pcd->...pqad", ginv, dg, dginv))
    _close(_d2ginv(ginv, dg, dginv, d2g), want)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 4), batch=point_or_batch, seed=st.integers(0, 2**32 - 1))
def test_riemann_and_its_derivative(d, batch, seed):
    rng = np.random.default_rng(seed)
    gam, dgam, d2gam = (rng.uniform(-1.0, 1.0, batch + (d,) * k) for k in (3, 4, 5))
    d_gam = dgam.swapaxes(-4, -3)
    want = (d_gam - d_gam.swapaxes(-3, -2) + np.einsum("...lim,...mjk->...lijk", gam, gam)
            - np.einsum("...ljm,...mik->...lijk", gam, gam))
    _close(_riemann(gam, dgam), want)
    d2_gam = d2gam.swapaxes(-4, -3)
    want = (d2_gam - d2_gam.swapaxes(-3, -2)
            + np.einsum("...qlim,...mjk->...qlijk", dgam, gam)
            + np.einsum("...lim,...qmjk->...qlijk", gam, dgam)
            - np.einsum("...qljm,...mik->...qlijk", dgam, gam)
            - np.einsum("...ljm,...qmik->...qlijk", gam, dgam))
    _close(_riemann_derivative(gam, dgam, d2gam), want)


def _weyl_einsum(g, ginv, R, ric, S, variant):
    """``_weyl`` with each outer product written as its einsum formula."""
    m = g.shape[-1]
    Q, eye = ginv @ ric, np.eye(m)
    second = (np.einsum("...jk,li->...lijk", ric, eye) if variant == "standard"
              else np.einsum("...ljki->...lijk", R))
    corr = (np.einsum("...ik,lj->...lijk", ric, eye) - second
            + np.einsum("...ik,...lj->...lijk", g, Q) - np.einsum("...jk,...li->...lijk", g, Q))
    trace_part = np.einsum("...ik,lj->...lijk", g, eye) - np.einsum("...jk,li->...lijk", g, eye)
    S_part = np.asarray(S / ((m - 1) * (m - 2)))[..., None, None, None, None]
    return R + corr / (m - 2) - S_part * trace_part


@pytest.mark.parametrize("variant", ["standard", "as-printed"])
@settings(max_examples=20, deadline=None)
@given(m=st.integers(3, 5), batch=point_or_batch, seed=st.integers(0, 2**32 - 1))
def test_weyl_products_equal_their_einsums_bitwise(variant, m, batch, seed):
    rng = np.random.default_rng(seed)
    g, ginv, ric = (rng.uniform(-1.0, 1.0, batch + (m, m)) for _ in range(3))
    R = rng.uniform(-1.0, 1.0, batch + (m,) * 4)
    S = rng.uniform(-1.0, 1.0, batch)
    got = _weyl(g, ginv, R, ric, S, variant)
    assert got.shape == batch + (m,) * 4
    assert got.tobytes() == _weyl_einsum(g, ginv, R, ric, S, variant).tobytes()
