"""Chart-based manifolds: coordinates, box domain, metric field.

A manifold is a single global chart over a closed box, with the metric given
as a symmetric matrix of expressions.  Boxes are chosen by callers to avoid
metric degeneracies, which keeps sampling and SPD validation trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exprlang import Expr, compile_array, differentiate, evaluate, parse

__all__ = [
    "ManifoldSpec", "Point", "TangentVector",
    "GeometryError", "SingularMetricError", "validate_metric",
]

_COND_LIMIT = 1e12


class GeometryError(ValueError):
    """Manifold description violates its contract (symmetry, SPD, domain)."""


class SingularMetricError(ArithmeticError):
    """Metric is numerically singular at the requested point."""


@dataclass(eq=False)
class ManifoldSpec:
    """A named chart: ordered coordinates, box domain, metric expression matrix.

    Treat instances as immutable after construction; all pointwise operations
    are pure and may be called concurrently.
    """

    name: str
    coords: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    metric: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        self.coords = tuple(self.coords)
        self.domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        self.metric = tuple(tuple(row) for row in self.metric)
        d = len(self.coords)
        if d < 1:
            raise GeometryError("manifold needs at least one coordinate")
        if len(set(self.coords)) != d:
            raise GeometryError(f"duplicate coordinate names in {self.coords}")
        if len(self.domain) != d or any(lo >= hi for lo, hi in self.domain):
            raise GeometryError("domain must be one non-empty interval per coordinate")
        if len(self.metric) != d or any(len(row) != d for row in self.metric):
            raise GeometryError(f"metric must be {d}x{d}")

    @classmethod
    def from_strings(cls, name: str, coords, domain, metric_sources) -> "ManifoldSpec":
        coords = tuple(coords)
        metric = tuple(tuple(parse(src, coords) for src in row) for row in metric_sources)
        return cls(name, coords, tuple(domain), metric)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def env(self, coords_array) -> dict[str, float]:
        x = np.asarray(coords_array, dtype=float)
        return dict(zip(self.coords, x.tolist()))

    def point(self, coords_array) -> "Point":
        return Point(self, np.asarray(coords_array, dtype=float))

    def center(self) -> "Point":
        return self.point([(lo + hi) / 2.0 for lo, hi in self.domain])

    def contains(self, coords_array) -> bool:
        x = np.asarray(coords_array, dtype=float)
        return bool(np.all([lo <= xi <= hi for xi, (lo, hi) in zip(x, self.domain)]))

    # -- cached symbolic derivative data -----------------------------------

    @cached_property
    def _metric_d1(self):
        # d1[i][j][k] = d_i g_jk
        d = self.dim
        return [[[differentiate(self.metric[j][k], self.coords[i])
                  for k in range(d)] for j in range(d)] for i in range(d)]

    @cached_property
    def _metric_d2(self):
        # d2[i][j][k][l] = d_i d_j g_kl
        d = self.dim
        return [[[[differentiate(self._metric_d1[j][k][l], self.coords[i])
                   for l in range(d)] for k in range(d)] for j in range(d)] for i in range(d)]

    # Kernels are compiled on first evaluation, not at construction.

    @cached_property
    def _metric_kernel(self):
        return compile_array(self.metric, self.coords)

    @cached_property
    def _metric_d1_kernel(self):
        return compile_array(self._metric_d1, self.coords)

    @cached_property
    def _metric_d2_kernel(self):
        return compile_array(self._metric_d2, self.coords)

    # -- pointwise metric algebra ------------------------------------------
    # Evaluations are memoized per point (callers repeatedly visit the same
    # seeded samples); cached arrays are treated as read-only internally.

    def _memo(self, kind: str, x: np.ndarray, build):
        cache = self.__dict__.setdefault("_point_cache", {})
        key = (kind, x.tobytes())
        hit = cache.get(key)
        if hit is None:
            if len(cache) > 16384:
                cache.clear()
            hit = cache[key] = build()
        return hit

    def metric_at(self, p) -> np.ndarray:
        x = _coords_of(p)
        return self._memo("g", x, lambda: self._metric_kernel(x))

    def inverse_metric_at(self, p) -> np.ndarray:
        x = _coords_of(p)

        def build():
            g = self.metric_at(x)
            if np.linalg.cond(g) > _COND_LIMIT:
                raise SingularMetricError(
                    f"metric of {self.name!r} is near-singular at {x}")
            return np.linalg.inv(g)
        return self._memo("ginv", x, build)

    def metric_derivatives_at(self, p) -> np.ndarray:
        """Rank-3 array dG[i, j, k] = d_i g_jk (exact symbolic derivatives)."""
        x = _coords_of(p)
        return self._memo("dg", x, lambda: self._metric_d1_kernel(x))

    def metric_second_derivatives_at(self, p) -> np.ndarray:
        """Rank-4 array d2G[i, j, k, l] = d_i d_j g_kl."""
        x = _coords_of(p)
        return self._memo("d2g", x, lambda: self._metric_d2_kernel(x))

    def gradient_at(self, f: Expr, p) -> "TangentVector":
        """Metric gradient: components g^{ij} d_j f, so that g(grad f, X) = X(f)."""
        x = _coords_of(p)
        env = self.env(x)
        df = np.array([evaluate(differentiate(f, c), env) for c in self.coords])
        return TangentVector(self.point(x), self.inverse_metric_at(x) @ df)

    def sample_points(self, n: int, seed: int) -> list["Point"]:
        """Deterministic interior samples, 5% margin from every box face."""
        if n < 1:
            raise GeometryError("need at least one sample")
        rng = np.random.default_rng(seed)
        lo = np.array([l for l, _ in self.domain])
        hi = np.array([h for _, h in self.domain])
        margin = 0.05 * (hi - lo)
        raw = rng.uniform(lo + margin, hi - margin, size=(n, self.dim))
        return [Point(self, row) for row in raw]

    def __repr__(self) -> str:
        return f"ManifoldSpec({self.name!r}, dim={self.dim})"


@dataclass(frozen=True)
class Point:
    manifold: ManifoldSpec
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if self.coords.shape != (self.manifold.dim,):
            raise GeometryError(
                f"point has {self.coords.shape} coordinates, expected {self.manifold.dim}")
        if not self.manifold.contains(self.coords):
            raise GeometryError(
                f"point {self.coords.tolist()} outside domain of {self.manifold.name!r}")

    def __repr__(self) -> str:
        return f"Point({self.manifold.name}, {np.round(self.coords, 6).tolist()})"


@dataclass(frozen=True)
class TangentVector:
    point: Point
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        if self.components.shape != (self.point.manifold.dim,):
            raise GeometryError("component count does not match manifold dimension")
        if not np.all(np.isfinite(self.components)):
            raise GeometryError("tangent vector components must be finite")

    def __repr__(self) -> str:
        return f"TangentVector({np.round(self.components, 6).tolist()} at {self.point})"


def _coords_of(p) -> np.ndarray:
    if isinstance(p, Point):
        return p.coords
    return np.asarray(p, dtype=float)


def validate_metric(M: ManifoldSpec, samples: int = 64, seed: int = 42,
                    sym_tol: float = 1e-12, eig_floor: float = 1e-10) -> None:
    """Check value-level symmetry and positive-definiteness on interior samples."""
    for pt in M.sample_points(samples, seed):
        g = M.metric_at(pt)
        asym = float(np.max(np.abs(g - g.T)))
        if asym >= sym_tol:
            raise GeometryError(
                f"metric of {M.name!r} asymmetric by {asym:.3e} at {pt.coords.tolist()}")
        smallest = float(np.min(np.linalg.eigvalsh(0.5 * (g + g.T))))
        if smallest <= eig_floor:
            raise GeometryError(
                f"metric of {M.name!r} not positive definite at {pt.coords.tolist()} "
                f"(smallest eigenvalue {smallest:.3e})")
