"""Exact third-order jets against finite-difference oracles.

``d3g``, ``dR`` and the covariant derivative of the Weyl tensor are built
from symbolic metric derivatives.  Here each is held to a 4th-order central
difference of the next lower exact array (``numdiff`` serves only as a test
oracle), on generated charts of dimension 2-4 and on the 4-D twist fixtures.
The second Bianchi identity of the Levi-Civita connection is checked as a
whole tensor equation on the same charts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgeo import fixtures as fx
from dualgeo import numdiff
from dualgeo.curvature import riemann_at, riemann_derivative_at, weyl_at, weyl_derivative_at
from dualgeo.geometry import ManifoldSpec
from strategies import charts

_TWISTS = dict(fx.standard_twists())
_FIXTURE_CHARTS = {name: _TWISTS[name].manifold
                   for name in ("direct-4d", "hyperbolic-4d", "twisted-4d")}


def _fd(f, x: np.ndarray) -> np.ndarray:
    """[..., q, ...]: the 4th-order central difference of f along each coordinate."""
    return np.stack([numdiff.central_diff(f, x, q, order=4) for q in range(x.shape[-1])],
                    axis=1)


def _assert_fd_close(exact: np.ndarray, fd: np.ndarray, rel: float = 1e-9) -> None:
    assert exact.shape == fd.shape
    scale = 1.0 + float(np.max(np.abs(fd)))
    assert float(np.max(np.abs(exact - fd))) <= rel * scale


def _nabla(gam: np.ndarray, T: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """[..., q, l, i, j, k] = (nabla_q T)^l_ijk from a (1,3)-tensor and its partials."""
    gam_q = gam.swapaxes(-3, -2)  # [q, l, m] = Gamma^l_qm
    return (dT + np.einsum("...qlm,...mijk->...qlijk", gam_q, T)
            - np.einsum("...qmi,...lmjk->...qlijk", gam_q, T)
            - np.einsum("...qmj,...limk->...qlijk", gam_q, T)
            - np.einsum("...qmk,...lijm->...qlijk", gam_q, T))


def _check_jets(M: ManifoldSpec, seed: int) -> None:
    x = M.sample_array(2, seed)
    C = M.levi_civita_connection
    _assert_fd_close(M.metric_third_derivatives_at(x),
                     _fd(M.metric_second_derivatives_at, x))
    _assert_fd_close(riemann_derivative_at(C, x), _fd(lambda z: riemann_at(C, z), x))
    if M.dim >= 3:
        gam, W = C.gamma_at(x), weyl_at(M, C, x)
        fd = _nabla(gam, W, _fd(lambda z: weyl_at(M, C, z), x))
        _assert_fd_close(_nabla(gam, W, weyl_derivative_at(M, C, x)), fd)


def _bianchi_defect(M: ManifoldSpec, seed: int) -> tuple[float, float]:
    """(max |cyclic sum of nabla R|, max |nabla R|) at two sample points."""
    x = M.sample_array(2, seed)
    C = M.levi_civita_connection
    N = _nabla(C.gamma_at(x), riemann_at(C, x), riemann_derivative_at(C, x))
    # nabla_q R^l_ijk + nabla_i R^l_jqk + nabla_j R^l_qik
    cyc = (N + np.einsum("...iljqk->...qlijk", N) + np.einsum("...jlqik->...qlijk", N))
    return float(np.max(np.abs(cyc))), float(np.max(np.abs(N)))


@settings(max_examples=25, deadline=None)
@given(charts(), st.integers(0, 2**16))
def test_jets_match_finite_differences(M, seed):
    _check_jets(M, seed)


@pytest.mark.parametrize("name", sorted(_FIXTURE_CHARTS))
def test_fixture_jets_match_finite_differences(name):
    for seed in (1, 3):
        _check_jets(_FIXTURE_CHARTS[name], seed)


@settings(max_examples=25, deadline=None)
@given(charts(), st.integers(0, 2**16))
def test_second_bianchi_identity(M, seed):
    cyc, size = _bianchi_defect(M, seed)
    assert cyc <= 1e-12 * (1.0 + size)


_BIANCHI_CHARTS = {**_FIXTURE_CHARTS, "sphere2": fx.sphere2(),
                   "bumpy-sphere2": fx.bumpy_sphere2()}


@pytest.mark.parametrize("name", sorted(_BIANCHI_CHARTS))
def test_second_bianchi_identity_on_fixtures(name):
    cyc, size = _bianchi_defect(_BIANCHI_CHARTS[name], 5)
    assert cyc <= 1e-12 * (1.0 + size)
    if name in ("twisted-4d", "bumpy-sphere2"):
        assert size > 1e-3  # nabla R does not vanish, so the sum is a real test


def test_second_derivatives_are_levi_civita_only():
    M = fx.sphere2()
    C = fx.connection_suite(M)[1][1]
    with pytest.raises(NotImplementedError, match="explicit"):
        C.d2gamma_at(M.center())
