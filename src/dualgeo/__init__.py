"""Dualistic structures on chart manifolds and twisted products.

A numpy-backed tensor-calculus engine for information geometry: metrics and
conjugate connection pairs on single-chart manifolds, twisted/warped/direct
products, curvature-type tensors, and a verification suite that checks every
structural identity against independent direct computation.
"""

from .exprlang import Expr, parse, differentiate, evaluate, simplify, to_source
from .geometry import ManifoldSpec, validate_metric
from .connections import (ConnectionField, levi_civita, explicit_connection, conjugate,
                          duality_residual, torsion_at, cubic_form_at, is_statistical)
from .curvature import (riemann_at, ricci_at, scalar_at, weyl_at, sectional_at,
                        is_constant_sectional, curvature_report)
from .products import (ProductSpec, twisted_product, block_levi_civita,
                       hessian_at, curvature_block_report, mixed_ricci_at,
                       mixed_weyl_report, separability_test, to_warped)
from .dualistic import (DualisticStructure, make_dualistic, induce_on_product,
                        projection_check, dually_flat_verdict, ReductionChain,
                        reduction_chain, theorem41_analyze, theorem42_analyze,
                        theorem43_analyze)
from .report import RunConfig, VerificationReport
from .verify import VERSION, verify_paper

__version__ = VERSION
