"""Seeded inputs for the benchmark workloads.

Every generator draws only constants and function names from the seed; the
shape of each expression, the dimensions and the mix of documents are fixed,
so the cost of a workload does not depend on which seed the run was given.
The same seed always yields byte-identical documents.
"""

from __future__ import annotations

import json

import numpy as np

COORDS = ("x", "y", "z", "w")
GRID_DIMS = (2, 3, 4) * 3


def _c(rng, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def chart_metric(rng, coords) -> list[list[str]]:
    """SPD by construction: diagonal in [1.6, 2.4], off-diagonal entries within 0.1.

    Gershgorin bounds every eigenvalue below by 1.6 - 0.1 * (d - 1) > 1.2 for d <= 4.
    """
    d = len(coords)
    rows = [["0"] * d for _ in range(d)]
    for i in range(d):
        f = rng.choice(("sin", "cos", "tanh"))
        other = coords[(i + 1) % d]
        rows[i][i] = f"2 + 0.4*{f}({_c(rng, 0.5, 1.5)}*{coords[i]} + {_c(rng, 0.5, 1.5)}*{other})"
        for j in range(i + 1, d):
            f = rng.choice(("sin", "cos"))
            rows[i][j] = rows[j][i] = f"0.1*{f}({_c(rng, 0.5, 1.5)}*{coords[i]}*{coords[j]})"
    return rows


def connection_entries(rng, coords) -> dict[str, str]:
    """Sparse explicit connection coefficients, one fixed pattern per dimension."""
    d = len(coords)
    entries = {}
    for k in range(d):
        for i in range(d):
            j = (k + i) % d
            if (k + i) % 2 == 0:
                entries[f"{k},{i},{j}"] = f"{_c(rng, -0.4, 0.4)}*{rng.choice(('sin', 'cos'))}({coords[j]})"
            else:
                entries[f"{k},{i},{j}"] = f"{_c(rng, -0.3, 0.3)}*{coords[i]}*{coords[k]}"
    return entries


def grid_charts(seed: int) -> list[dict]:
    """Manifold documents for curvature-grid: dimensions 2-4 on [-1, 1]^d."""
    rng = np.random.default_rng([seed, 1])
    charts = []
    for idx, d in enumerate(GRID_DIMS):
        coords = COORDS[:d]
        charts.append({
            "name": f"grid{idx}-{d}d",
            "coords": list(coords),
            "domain": [[-1.0, 1.0]] * d,
            "metric": chart_metric(rng, coords),
            "gamma": connection_entries(rng, coords),
        })
    return charts


# ---------------------------------------------------------------------------
# spec-cli documents


def _manifold_doc(rng, name: str, d: int, explicit: bool) -> dict:
    coords = COORDS[:d]
    doc = {"name": name, "coords": list(coords), "domain": [[-1.0, 1.0]] * d,
           "metric": chart_metric(rng, coords)}
    if explicit:
        doc["connection"] = {"kind": "explicit", "gamma": connection_entries(rng, coords)}
    return doc


def _base_doc(rng) -> dict:
    return {"name": "lineB", "coords": ["x"], "domain": [[-1.0, 1.0]],
            "metric": [[f"1 + {_c(rng, 0.1, 0.3)}*x^2"]],
            "connection": {"kind": "explicit", "gamma": {"0,0,0": _c(rng, -0.5, 0.5)}}}


def _fiber_doc(rng, curved: bool) -> dict:
    if curved:
        r2 = _c(rng, 0.8, 1.2)
        return {"name": "sphereF", "coords": ["u", "v"], "domain": [[0.5, 2.5], [0.0, 3.0]],
                "metric": [[r2, "0"], ["0", f"{r2}*sin(u)^2"]]}
    return {"name": "planeF", "coords": ["u", "v"], "domain": [[-1.0, 1.0], [-1.0, 1.0]],
            "metric": [["1", "0"], ["0", "1"]],
            "connection": {"kind": "explicit", "gamma": {}}}


def _twist(rng, kind: str, idx: int) -> str:
    a = _c(rng, 0.3, 0.9)
    if kind == "base-only":
        return f"exp({a}*x)"
    if kind == "fiber-linear":
        return f"exp({a}*x*u)"
    if idx % 2 == 0:
        return f"cosh({a}*x*u)"
    return f"exp({a}*x)*(1 + 0.2*u^2)"


def _malformed_docs(rng) -> list[tuple[str, str, dict | str, str | None]]:
    """(name, command, document, known defect) for inputs that must exit 2."""
    ok = _manifold_doc(rng, "malformed", 2, False)
    missing = {k: v for k, v in ok.items() if k != "metric"}
    syntax = dict(ok, metric=[["2 + sin(x", "0"], ["0", "1"]])
    non_spd = dict(ok, metric=[[f"-{_c(rng, 0.5, 2.0)}", "0"], ["0", "1"]])
    nonfinite = dict(ok, domain=[["nan", 1.0], [-1.0, 1.0]])
    deep = dict(ok, metric=[["(" * 3000 + _c(rng, 1.0, 2.0) + ")" * 3000, "0"], ["0", "1"]])
    twist = {"kind": "twisted_product", "base": _base_doc(rng), "fiber": _fiber_doc(rng, False),
             "twist": f"x - {_c(rng, 1.5, 3.0)}"}
    return [
        ("bad-missing-metric", "check", missing, None),
        ("bad-syntax", "check", syntax, None),
        ("bad-non-spd", "check", non_spd, None),
        ("bad-twist-nonpositive", "twist", twist, None),
        ("bad-nonfinite-bound", "check", nonfinite, "nonfinite-bound"),
        ("bad-deep-nesting", "check", deep, "deep-nesting"),
    ]


def spec_commands(seed: int) -> list[dict]:
    """The spec-cli command list: documents, commands, expected exit codes.

    A command whose input hits an entry of the known-defect ledger carries that
    entry's name in ``defect``; it is run like every other command and counted
    as failed when the defect shows.
    """
    rng = np.random.default_rng([seed, 2])
    commands = []

    def add(name, command, doc, expect, defect=None):
        commands.append({"doc": f"{name}.json", "text": render(doc), "command": command,
                         "expect": expect, "defect": defect})

    for idx, (d, explicit) in enumerate([(2, False), (2, True), (3, False), (3, True)] * 2):
        name = f"manifold{idx}-{d}d{'-explicit' if explicit else ''}"
        doc = _manifold_doc(rng, name, d, explicit)
        for command in ("check", "conjugate", "curvature"):
            add(name, command, doc, 0)
    idx = 0
    for kind in ("base-only", "fiber-linear", "fiber-nonlinear"):
        for curved in (False, True):
            doc = {"kind": "twisted_product", "base": _base_doc(rng),
                   "fiber": _fiber_doc(rng, curved), "twist": _twist(rng, kind, idx)}
            name = f"product{idx}-{kind}-{'curved' if curved else 'flat'}"
            # k = log b has a nonzero fiber Hessian unless it is affine in flat
            # fiber coordinates.
            hessian = kind == "fiber-nonlinear" or (kind == "fiber-linear" and curved)
            add(name, "twist", doc, 0, "twist-fiber-hessian" if hessian else None)
            add(name, "flatness", doc, 0)
            idx += 1
    for name, command, doc, defect in _malformed_docs(rng):
        add(name, command, doc, 2, defect)
    return commands


def render(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
