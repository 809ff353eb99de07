"""Built-in fixture library.

Chart manifolds with known curvature, sparse test connections, and the
product/dualistic suites that the verification report and the acceptance
tests run over.  Domains are chosen to keep metrics uniformly positive
definite (e.g. the sphere chart stays away from the poles).
"""

from __future__ import annotations

from .geometry import ManifoldSpec
from .connections import ConnectionField, explicit_connection
from .products import ProductSpec, twisted_product
from . import dualistic as _du

__all__ = [
    "euclidean", "sphere2", "hyperbolic2", "fisher_normal", "hessian_exp2",
    "bumpy_sphere2", "standard_manifolds", "connection_suite",
    "standard_twists", "dualistic_suite",
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


def standard_manifolds() -> list[ManifoldSpec]:
    """The five fixtures used by the conjugation and identity suites."""
    return [euclidean(2), euclidean(3), sphere2(), hyperbolic2(), fisher_normal()]


def connection_suite(M: ManifoldSpec) -> list[tuple[str, ConnectionField]]:
    """Levi-Civita plus two sparse explicit test connections on M."""
    suite = [("levi-civita", M.levi_civita_connection)]
    first = M.coords[0]
    if M.dim >= 2:
        suite.append(("explicit-symmetric", explicit_connection(
            M, {(0, 0, 0): "0.3", (1, 0, 1): "0.2", (1, 1, 0): "0.2"})))
        suite.append(("explicit-torsionful", explicit_connection(
            M, {(0, 0, 1): "0.5", (0, 0, 0): f"0.1*{first}"})))
    else:
        suite.append(("explicit-constant", explicit_connection(M, {(0, 0, 0): "0.4"})))
        suite.append(("explicit-coordinate", explicit_connection(M, {(0, 0, 0): first})))
    return suite


def standard_twists() -> list[tuple[str, ProductSpec]]:
    """Product fixtures covering direct, warped and proper-twisted cases.

    Factors with the same name are one chart, shared by every product over it.
    """
    lineB, lineF = euclidean(1, ("x",), "lineB"), euclidean(1, ("u",), "lineF")
    planeF = euclidean(2, ("u", "v"), "planeF")
    spaceF = euclidean(3, ("u", "v", "w"), "spaceF")
    return [
        ("direct", twisted_product(lineB, lineF, "1")),
        ("warped-exp", twisted_product(lineB, lineF, "exp(x)")),
        ("twisted-exp", twisted_product(lineB, lineF, "exp(x*u)")),
        ("twisted-poly", twisted_product(lineB, lineF, "(1 + x^2)*(1 + u^2)")),
        ("twisted-wide-fiber", twisted_product(lineB, planeF, "exp(x*u)")),
        ("twisted-4d", twisted_product(euclidean(2, ("x", "y"), "planeB"), planeF, "exp(x*u)")),
        ("warped-sphere-fiber", twisted_product(lineB, sphere2(), "exp(x)")),
        ("hyperbolic-4d", twisted_product(lineB, spaceF, "exp(x)")),
        ("direct-4d", twisted_product(lineB, spaceF, "1")),
    ]


def dualistic_suite() -> list[dict]:
    """Induced product structures with the expected analyzer outcomes.

    ``expect_agreement`` marks fixtures where the warped biconditional is
    expected to hold; the curved-fiber direct product is the documented
    counterexample to the biconditional as printed and is reported
    informationally.  Factors with the same name are one structure.
    """
    lineB, lineF = euclidean(1, ("x",), "lineB"), euclidean(1, ("u",), "lineF")
    planeF, sphere, hessian = euclidean(2, ("u", "v"), "planeF"), sphere2(), hessian_exp2()
    flat_base, flat_fiber, plane_fiber, hessian_base = (
        _du.make_dualistic(M, explicit_connection(M, {}), samples=16)
        for M in (lineB, lineF, planeF, hessian))
    sphere_lc = _du.make_dualistic(sphere, sphere.levi_civita_connection, samples=16)
    constant_pair = _du.make_dualistic(lineB, explicit_connection(lineB, {(0, 0, 0): "0.4"}),
                                       samples=16)
    entries = [
        # name, base, fiber, twist, expect_dually_flat, expect_agreement
        ("flat-pair-direct", constant_pair, flat_fiber, "1", True, True),
        ("flat-fiber-twist", flat_base, flat_fiber, "exp(u)", True, True),
        ("hessian-base-direct", hessian_base, flat_fiber, "1", True, True),
        ("sphere-base-direct", sphere_lc, flat_fiber, "1", False, True),
        # precondition fails; no prediction
        ("proper-twisted-wide-fiber", flat_base, plane_fiber, "exp(x*u)", False, None),
        # documented gap in the printed biconditional
        ("curved-fiber-direct", flat_base, sphere_lc, "1", False, False),
    ]
    return [{"name": name,
             "structure": _du.induce_on_product(base, fiber, twist, samples=16),
             "expect_dually_flat": flat,
             "expect_agreement": agreement}
            for name, base, fiber, twist, flat, agreement in entries]
