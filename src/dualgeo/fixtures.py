"""Built-in fixture library.

Chart manifolds with known curvature, sparse test connections, and the
product/dualistic suites that the verification report and the acceptance
tests run over.  Domains are chosen to keep metrics uniformly positive
definite (e.g. the sphere chart stays away from the poles).
"""

from __future__ import annotations

from .geometry import ManifoldSpec
from .connections import ConnectionField, explicit_connection, levi_civita
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
    suite = [("levi-civita", levi_civita(M))]
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
    """Product fixtures covering direct, warped and proper-twisted cases."""
    def line(name, coord):
        return euclidean(1, (coord,), name)

    fixtures = [
        ("direct", twisted_product(line("lineB", "x"), line("lineF", "u"), "1")),
        ("warped-exp", twisted_product(line("lineB", "x"), line("lineF", "u"), "exp(x)")),
        ("twisted-exp", twisted_product(line("lineB", "x"), line("lineF", "u"), "exp(x*u)")),
        ("twisted-poly", twisted_product(line("lineB", "x"), line("lineF", "u"),
                                         "(1 + x^2)*(1 + u^2)")),
        ("twisted-wide-fiber", twisted_product(
            line("lineB", "x"), euclidean(2, ("u", "v"), "planeF"), "exp(x*u)")),
        ("twisted-4d", twisted_product(
            euclidean(2, ("x", "y"), "planeB"), euclidean(2, ("u", "v"), "planeF"),
            "exp(x*u)")),
        ("warped-sphere-fiber", twisted_product(
            line("lineB", "x"), sphere2(), "exp(x)")),
        ("hyperbolic-4d", twisted_product(
            line("lineB", "x"), euclidean(3, ("u", "v", "w"), "spaceF"), "exp(x)")),
        ("direct-4d", twisted_product(
            line("lineB", "x"), euclidean(3, ("u", "v", "w"), "spaceF"), "1")),
    ]
    return fixtures


def _flat_line(name: str, coord: str) -> _du.DualisticStructure:
    M = euclidean(1, (coord,), name)
    return _du.make_dualistic(M, explicit_connection(M, {}), samples=16)


def _constant_pair_line(name: str, coord: str, c: float) -> _du.DualisticStructure:
    M = euclidean(1, (coord,), name)
    return _du.make_dualistic(M, explicit_connection(M, {(0, 0, 0): repr(c)}), samples=16)


def _hessian_structure() -> _du.DualisticStructure:
    M = hessian_exp2()
    return _du.make_dualistic(M, explicit_connection(M, {}), samples=16)


def _lc_structure(M: ManifoldSpec) -> _du.DualisticStructure:
    return _du.make_dualistic(M, M.levi_civita_connection, samples=16)


def dualistic_suite() -> list[dict]:
    """Induced product structures with the expected analyzer outcomes.

    ``expect_agreement`` marks fixtures where the warped biconditional is
    expected to hold; the curved-fiber direct product is the documented
    counterexample to the biconditional as printed and is reported
    informationally.
    """
    flat_fiber = _flat_line("lineF", "u")
    planeF = euclidean(2, ("u", "v"), "planeF")
    plane_fiber = _du.make_dualistic(planeF, explicit_connection(planeF, {}), samples=16)
    entries = [
        {
            "name": "flat-pair-direct",
            "structure": _du.induce_on_product(_constant_pair_line("lineB", "x", 0.4),
                                               flat_fiber, "1", samples=16),
            "expect_dually_flat": True,
            "expect_agreement": True,
        },
        {
            "name": "flat-fiber-twist",
            "structure": _du.induce_on_product(_flat_line("lineB", "x"),
                                               flat_fiber, "exp(u)", samples=16),
            "expect_dually_flat": True,
            "expect_agreement": True,
        },
        {
            "name": "hessian-base-direct",
            "structure": _du.induce_on_product(_hessian_structure(), flat_fiber, "1",
                                               samples=16),
            "expect_dually_flat": True,
            "expect_agreement": True,
        },
        {
            "name": "sphere-base-direct",
            "structure": _du.induce_on_product(_lc_structure(sphere2()), flat_fiber, "1",
                                               samples=16),
            "expect_dually_flat": False,
            "expect_agreement": True,
        },
        {
            "name": "proper-twisted-wide-fiber",
            "structure": _du.induce_on_product(
                _flat_line("lineB", "x"), plane_fiber, "exp(x*u)", samples=16),
            "expect_dually_flat": False,
            "expect_agreement": None,  # precondition fails; no prediction
        },
        {
            "name": "curved-fiber-direct",
            "structure": _du.induce_on_product(_flat_line("lineB", "x"),
                                               _lc_structure(sphere2()), "1", samples=16),
            "expect_dually_flat": False,
            "expect_agreement": False,  # documented gap in the printed biconditional
        },
    ]
    return entries
