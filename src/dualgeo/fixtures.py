"""Built-in fixture library.

Chart manifolds with known curvature, sparse test connections, and the
product/dualistic suites that the verification report and the acceptance
tests run over.  Domains are chosen to keep metrics uniformly positive
definite (e.g. the sphere chart stays away from the poles).
"""

from __future__ import annotations

import functools

from .geometry import ManifoldSpec
from .connections import ConnectionField, explicit_connection
from .products import ProductSpec, twisted_product
from . import dualistic as _du

__all__ = [
    "euclidean", "sphere2", "hyperbolic2", "fisher_normal", "hessian_exp2",
    "bumpy_sphere2", "Fixtures", "connection_suite", "standard_twists",
]


def euclidean(d: int, coords=None, name: str | None = None) -> ManifoldSpec:
    if coords is None:
        coords = tuple("xyzw"[:d]) if d <= 4 else tuple(f"x{i + 1}" for i in range(d))
    metric = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    return ManifoldSpec.from_strings(name or f"euclidean{d}", coords, [(-1.0, 1.0)] * d, metric)


def sphere2() -> ManifoldSpec:
    """Unit sphere away from the poles: S = 2, K = 1, Ric = g."""
    return ManifoldSpec.from_strings(
        "sphere2", ("th", "ph"), [(0.3, 2.8), (0.0, 3.0)],
        [["1", "0"], ["0", "sin(th)^2"]])


def hyperbolic2() -> ManifoldSpec:
    """Upper half-plane: S = -2, K = -1, Ric = -g."""
    return ManifoldSpec.from_strings(
        "hyperbolic2", ("x", "y"), [(-1.0, 1.0), (0.5, 3.0)],
        [["1/y^2", "0"], ["0", "1/y^2"]])


def fisher_normal() -> ManifoldSpec:
    """Fisher information metric of the location-scale normal family: K = -1/2."""
    return ManifoldSpec.from_strings(
        "fisher-normal", ("m", "s"), [(-1.0, 1.0), (0.5, 3.0)],
        [["1/s^2", "0"], ["0", "2/s^2"]])


def hessian_exp2() -> ManifoldSpec:
    """Hessian metric of e^x + e^y; carries a non-trivial dually flat pair."""
    return ManifoldSpec.from_strings(
        "hessian-exp2", ("x", "y"), [(-1.0, 1.0), (-1.0, 1.0)],
        [["exp(x)", "0"], ["0", "exp(y)"]])


def bumpy_sphere2() -> ManifoldSpec:
    """Rotationally perturbed sphere; sectional curvature is not constant."""
    return ManifoldSpec.from_strings(
        "bumpy-sphere2", ("th", "ph"), [(0.3, 2.8), (0.0, 3.0)],
        [["1", "0"], ["0", "(1 + 0.3*sin(th))^2 * sin(th)^2"]])


# name: (base, fiber, twist)
_TWISTS = {
    "direct": ("lineB", "lineF", "1"),
    "warped-exp": ("lineB", "lineF", "exp(x)"),
    "twisted-exp": ("lineB", "lineF", "exp(x*u)"),
    "twisted-poly": ("lineB", "lineF", "(1 + x^2)*(1 + u^2)"),
    "twisted-wide-fiber": ("lineB", "planeF", "exp(x*u)"),
    "twisted-4d": ("planeB", "planeF", "exp(x*u)"),
    "warped-sphere-fiber": ("lineB", "sphere2", "exp(x)"),
    "hyperbolic-4d": ("lineB", "spaceF", "exp(x)"),
    "direct-4d": ("lineB", "spaceF", "1"),
}

# factor structure: (chart, explicit connection entries), None standing for
# the chart's Levi-Civita connection
_FACTORS = {
    "constant-pair": ("lineB", {(0, 0, 0): "0.4"}),
    "flat-base": ("lineB", {}),
    "flat-fiber": ("lineF", {}),
    "plane-fiber": ("planeF", {}),
    "hessian-base": ("hessian-exp2", {}),
    "sphere-lc": ("sphere2", None),
}

# name, base, fiber, twist, expect_dually_flat, expect_agreement
SUITE = [
    ("flat-pair-direct", "constant-pair", "flat-fiber", "1", True, True),
    ("flat-fiber-twist", "flat-base", "flat-fiber", "exp(u)", True, True),
    ("hessian-base-direct", "hessian-base", "flat-fiber", "1", True, True),
    ("sphere-base-direct", "sphere-lc", "flat-fiber", "1", False, True),
    # precondition fails; no prediction
    ("proper-twisted-wide-fiber", "flat-base", "plane-fiber", "exp(x*u)", False, None),
    # documented gap in the printed biconditional
    ("curved-fiber-direct", "flat-base", "sphere-lc", "1", False, False),
]


class Fixtures:
    """The built-in fixtures of one run, over one set of charts.

    Each chart and product is built once per instance and shared, with its
    cached arrays, by every fixture over it.  ``verify_paper`` builds one
    instance per call.
    """

    def __init__(self):
        self.charts = {M.name: M for M in (
            euclidean(2), euclidean(3), sphere2(), hyperbolic2(), fisher_normal(), hessian_exp2(),
            bumpy_sphere2(), euclidean(1, ("x",), "lineB"), euclidean(1, ("u",), "lineF"),
            euclidean(2, ("x", "y"), "planeB"), euclidean(2, ("u", "v"), "planeF"),
            euclidean(3, ("u", "v", "w"), "spaceF"))}
        self.manifolds = [self.charts[name] for name in
                          ("euclidean2", "euclidean3", "sphere2", "hyperbolic2", "fisher-normal")]
        self._products: dict[tuple, ProductSpec] = {}

    @functools.cached_property
    def twists(self) -> dict[str, ProductSpec]:  # the product fixtures, built on first use
        return {name: self.product(*factors) for name, factors in _TWISTS.items()}

    def product(self, base: str, fiber: str, twist: str) -> ProductSpec:
        """The product of two named charts, built on first use."""
        if (base, fiber, twist) not in self._products:
            self._products[base, fiber, twist] = twisted_product(
                self.charts[base], self.charts[fiber], twist)
        return self._products[base, fiber, twist]

    def suite(self, samples: int, seed: int) -> list[dict]:
        """The dualistic suite; each structure validated on ``samples`` points at ``seed``."""
        factors = {name: _du.make_dualistic(M, M.levi_civita_connection if gamma is None
                                            else explicit_connection(M, gamma), None, samples, seed)
                   for name, (chart, gamma) in _FACTORS.items() for M in [self.charts[chart]]}
        return [{"name": name,
                 "structure": _du.induce_on_product(
                     self.product(_FACTORS[base][0], _FACTORS[fiber][0], twist),
                     factors[base], factors[fiber], samples, seed),
                 "expect_dually_flat": flat, "expect_agreement": agreement}
                for name, base, fiber, twist, flat, agreement in SUITE]


def connection_suite(M: ManifoldSpec) -> list[tuple[str, ConnectionField]]:
    """Levi-Civita plus two sparse explicit test connections on M, of dimension >= 2."""
    return [("levi-civita", M.levi_civita_connection),
            ("explicit-symmetric", explicit_connection(
                M, {(0, 0, 0): "0.3", (1, 0, 1): "0.2", (1, 1, 0): "0.2"})),
            ("explicit-torsionful", explicit_connection(
                M, {(0, 0, 1): "0.5", (0, 0, 0): f"0.1*{M.coords[0]}"}))]


def standard_twists() -> list[tuple[str, ProductSpec]]:
    """Product fixtures covering direct, warped and proper-twisted cases.

    Factors with the same name are one chart, shared by every product over it.
    """
    return list(Fixtures().twists.items())
