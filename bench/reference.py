"""A fixed reference computation that measures how fast the machine is.

One chunk mixes the kinds of work dualgeo spends its time on: interpreter
arithmetic, recursive evaluation of an expression tree, dict and string
work, and small ``numpy.einsum`` calls.  It is the benchmark's own code, so
a change to the program never changes what a chunk costs; only the machine
does.  A chunk allocates almost nothing that the garbage collector tracks,
so the size of the program's heap does not change its cost either.
"""

from __future__ import annotations

import math
import time

import numpy as np

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_ENV = {"x": 0.3, "y": -0.2, "z": 0.1, "w": 0.7}
_EYE = np.eye(4)


def _tree(depth: int, k: int) -> tuple:
    """A fixed expression tree of the given depth, shaped by k."""
    if depth == 0:
        return ("var", "xyzw"[k % 4]) if k % 3 else ("num", 0.5 + k % 5)
    op = ("+", "*", "sin", "cos", "+", "exp")[k % 6]
    if op in _FUNCTIONS:
        return (op, ("*", ("num", 0.1), _tree(depth - 1, k + 1)))
    return (op, _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 3 * k + 2))


_TREE = _tree(7, 1)


def _evaluate(e: tuple, env: dict) -> float:
    op = e[0]
    if op == "num":
        return e[1]
    if op == "var":
        return env[e[1]]
    if op == "+":
        return _evaluate(e[1], env) + _evaluate(e[2], env)
    if op == "*":
        return _evaluate(e[1], env) * _evaluate(e[2], env)
    return _FUNCTIONS[op](_evaluate(e[1], env))


def chunk() -> float:
    """Run one chunk and return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for k in range(20_000):
        s += k * k % 7
    for _ in range(24):
        s += _evaluate(_TREE, _ENV)
    d = {}
    for k in range(2_400):
        d[k % 97] = float(k)
        s += d[k % 97] * 0.5 + len(str(k))
    for _ in range(160):
        s += float(np.einsum("ij,jk->ik", _EYE, _EYE)[0, 0])
    return time.perf_counter() - t0
