"""Finite-difference helpers.

These exist as independent cross-checks of the exact symbolic derivative
path, never as the primary derivative route (two stacked FD layers would
destroy curvature-level tolerances).  The library uses them in one FD
cross-check, ``connections.dgamma_fd_defect``; the test suite uses them as
an oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def step_for(x):
    """Step 1e-4 times the coordinate scale, floored at 1e-4; elementwise."""
    return 1e-4 * np.maximum(1.0, np.abs(x))


def central_diff(f: Callable[[np.ndarray], float | np.ndarray], x, i: int,
                 h=None, order: int = 2):
    """Central difference of f along coordinate i at x.

    order=2 is the classic two-point stencil, order=4 the five-point one.
    Works for scalar- or array-valued f.  x is one point (d,) or a batch of
    points (N, d), which f must accept; h is one step, or one step per point
    of the batch, and each stencil offset is one call of f.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(step_for(x[..., i]) if h is None else h, dtype=float)
    e = np.zeros_like(x)
    e[..., i] = 1.0

    def f_at(offset) -> np.ndarray:
        return np.asarray(f(x + (offset * h)[..., None] * e))

    if order == 2:
        diff, scale = f_at(1) - f_at(-1), 2.0 * h
    elif order == 4:
        diff = -f_at(2) + 8.0 * f_at(1) - 8.0 * f_at(-1) + f_at(-2)
        scale = 12.0 * h
    else:
        raise ValueError(f"unsupported FD order {order}")
    return diff / scale.reshape(scale.shape + (1,) * (diff.ndim - scale.ndim))
