"""Hypothesis strategies for the property tests.

``twisted_products()`` draws a twisted product of Euclidean line or plane
charts over [-1, 1], so ``r, s`` are 1 or 2, with one of four twist
families.  Every draw is valid by construction: each twist is positive on
the whole box for every drawn ``a`` and ``b``.
"""

from typing import NamedTuple

from hypothesis import strategies as st

from dualgeo import fixtures as fx
from dualgeo.products import ProductSpec, twisted_product

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
