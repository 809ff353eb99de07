"""Hypothesis strategies for the property tests.

``charts()`` draws a chart on [-1, 1]^d, d in 2..4, whose metric is
positive definite on the whole box.

``twisted_products()`` draws a twisted product of Euclidean line or plane
charts over [-1, 1], so ``r, s`` are 1 or 2, with one of four twist
families.  Every draw is valid by construction: each twist is positive on
the whole box for every drawn ``a`` and ``b``.
"""

from typing import NamedTuple

from hypothesis import strategies as st

from dualgeo import fixtures as fx
from dualgeo.geometry import ManifoldSpec
from dualgeo.products import ProductSpec, twisted_product

_NAMES = ("x", "y", "z", "w")

# Smooth terms in two coordinates a and b, each bounded by 1 on [-1, 1]^2.
_TERMS = ("sin({a} + {c}*{b})", "cos({c}*{a}*{b})", "{a}*{b}", "{a}^2",
          "exp(0.3*({a} - {c}*{b})) - 1", "tanh({c}*{a})")


@st.composite
def charts(draw):
    """A chart on [-1, 1]^d, d in 2..4, with a diagonally dominant metric.

    Each diagonal entry is 3 plus a term of size at most 0.3; each
    off-diagonal entry has size at most 0.2, so every row has a margin of at
    least 2.7 - 0.6 and the metric is positive definite on the box.
    """
    d = draw(st.integers(2, 4))
    names = _NAMES[:d]

    def term(i, j):
        a, b = names[i], names[j]
        source = draw(st.sampled_from(_TERMS))
        c = draw(st.sampled_from(("0.5", "1.5", "2")))
        return source.format(a=a, b=b, c=c)

    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = f"3 + 0.3*({term(i, (i + 1) % d)})"
        for j in range(i + 1, d):
            rows[i][j] = rows[j][i] = f"0.2*({term(i, j)})"
    return ManifoldSpec.from_strings(f"gen{d}", names, [(-1.0, 1.0)] * d, rows)


# one chart per name, shared by every draw
_BASES = (fx.euclidean(1, ("x",), "lineB"), fx.euclidean(2, ("x", "y"), "planeB"))
_FIBERS = (fx.euclidean(1, ("u",), "lineF"), fx.euclidean(2, ("u", "v"), "planeF"))

# (twist, whether k = log b is affine in the fiber coordinates), for a != 0 and b > 0
TWISTS = (("exp({a}*x)", True), ("exp({a}*x*u)", True), ("cosh({a}*x*u)", False),
          ("exp({a}*x)*(1 + {b}*u^2)", False))


class TwistDraw(NamedTuple):
    product: ProductSpec
    affine_in_fiber: bool  # k has no second derivative along the fiber

    @property
    def exact_fiber_display(self) -> bool:
        """The display of R(U,V)W is exact: s = 1, or k affine in the flat fiber's coordinates."""
        return self.product.s == 1 or self.affine_in_fiber


@st.composite
def twisted_products(draw) -> TwistDraw:
    twist, affine = draw(st.sampled_from(TWISTS))
    a = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.25, 1.0))
    b = draw(st.floats(0.25, 2.0))
    base, fiber = draw(st.sampled_from(_BASES)), draw(st.sampled_from(_FIBERS))
    return TwistDraw(twisted_product(base, fiber, twist.format(a=a, b=b)), affine)
