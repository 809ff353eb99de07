"""Chart-based manifolds: coordinates, box domain, metric field.

A manifold is a single global chart over a closed box, with the metric given
as a symmetric matrix of expressions.  Boxes are chosen by callers to avoid
metric degeneracies, which keeps sampling and SPD validation trivial.
"""

from __future__ import annotations

import collections
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprlang import Expr, _Jets, derivative_table, evaluate, parse

__all__ = [
    "ManifoldSpec", "GeometryError", "SingularMetricError", "validate_metric",
]

_COND_LIMIT = 1e12


class GeometryError(ValueError):
    """Manifold description violates its contract (symmetry, SPD, domain)."""


class SingularMetricError(ArithmeticError):
    """Metric is numerically singular, or not positive definite, at the requested point."""


def one_batch(owner, kind: str, x, build) -> np.ndarray:
    """owner's array of this kind at x, read from its sample streams or built as build(x).

    x is a point (d,) or a batch (N, d) in any form ``np.asarray`` takes; it
    is converted to floats here, so an accessor passes its point through.

    An owner keeps up to ``_STREAMS_KEPT`` sample streams, newest first, in
    ``_last_batch``: each is a point or a batch, with the arrays built on it
    or on a row-prefix of it.  A chart (``ManifoldSpec``) holds g, g^-1, dg,
    d2g, d3g, d(g^-1) and the orthonormal frame, and a product chart also its
    twist data; a ``ConnectionField`` holds Gamma, the lowered Gamma_ijk =
    Gamma^m_ij g_mk, dGamma, R, Ric, the scalar curvature and the cubic form
    nabla g (Levi-Civita also d2Gamma and dR).  Each connection keeps its
    own streams, so a connection built per call is freed with its arrays and
    the chart's entries stay fixed; it keeps its conjugate only weakly
    (``connections.conjugate``).

    The key carries the shape: a (1, d) batch and the (d,) point have equal
    bytes.  An (n, d) batch whose bytes begin a stream's reads the first n
    rows of its arrays.  The sample sets of one seed are row-prefixes of one
    draw (``ManifoldSpec.sample_array``), so checks at 12, 16 and 32 points
    share one build when the largest is read first.  A read is served by
    the newest stream that x begins and that holds the kind on at least
    x's rows.  When none does, the kind is built on all of x, on the newest
    stream x begins; when x begins no stream (a new point, a batch of other
    rows, or one that extends a stream), it starts a new stream.  A new
    stream drops, when all are taken, the stream with the fewest rows (a
    point has none), the oldest of those if several tie: a large sample
    set outlives the small ones and the points read after it.

    Streams are replaced in one assignment, and each dict holds only builds
    on row-prefixes of its own key: a concurrent caller never pairs one
    stream's key with another's arrays.  Kinds are filled lazily.  Every
    stored array is read-only, since callers share it: an in-place edit
    raises instead of changing later reads.
    """
    x = np.asarray(x, dtype=float)
    key = (x.shape, x.tobytes())
    rows = len(x) if x.ndim == 2 else None
    streams = owner._last_batch or ()
    home = None  # the newest stream x begins
    for stream in streams:
        # one tuple == settles x's own stream; a point begins no other
        if stream[0] == key or (rows is not None and _begins(key, stream[0])):
            hit = stream[1].get(kind)
            if hit is not None and (rows is None or len(hit) >= rows):
                return hit if rows is None or len(hit) == rows else hit[:rows]
            home = home or stream
    if home is None:
        home = (key, {})
        if len(streams) == _STREAMS_KEPT:  # an oldest point has no rows: no search
            streams = streams[:-1] if len(streams[-1][0][0]) == 1 else _drop_one(streams)
        owner._last_batch = (home,) + streams
    hit = build(x)
    hit.flags.writeable = False
    home[1][kind] = hit
    return hit


def _begins(key, stream) -> bool:
    """Whether the point or batch of ``key`` is ``stream``'s or a row-prefix of its batch."""
    (shape, data), (stream_shape, stream_data) = key, stream
    if shape == stream_shape:
        return data == stream_data
    return (len(shape) == len(stream_shape) == 2 and shape[1] == stream_shape[1]
            and shape[0] < stream_shape[0] and stream_data.startswith(data))


def _rows(stream) -> int:
    shape = stream[0][0]
    return shape[0] if len(shape) == 2 else 0


def _drop_one(streams: tuple) -> tuple:
    """streams less the one with the fewest rows, the oldest of those if several tie."""
    dropped = min(reversed(streams), key=_rows)
    return tuple(s for s in streams if s is not dropped)


# sample_array's largest draw per (domain, seed), oldest first
_DRAWS = collections.OrderedDict()
_DRAWS_KEPT = 64
# sample streams per owner (one_batch)
_STREAMS_KEPT = 3


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

    def point(self, coords_array) -> np.ndarray:
        """The coordinates as a (d,) float array, checked against the chart's box."""
        x = np.asarray(coords_array, dtype=float)
        if x.shape != (self.dim,):
            raise GeometryError(f"point has {x.shape} coordinates, expected {self.dim}")
        if not self.contains(x):
            raise GeometryError(f"point {x.tolist()} outside domain of {self.name!r}")
        return x

    def center(self) -> np.ndarray:
        return self.point([(lo + hi) / 2.0 for lo, hi in self.domain])

    def contains(self, coords_array) -> bool | np.ndarray:
        """Whether a point (d,) lies in the closed box, or an (N,) mask for a batch (N, d).

        False when the last axis is not the chart's dimension; NaN is outside.
        """
        x = np.asarray(coords_array, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            return False
        lo, hi = np.array(self.domain).T
        inside = np.all((lo <= x) & (x <= hi), axis=-1)
        return bool(inside) if x.ndim == 1 else inside

    @cached_property
    def _jets(self) -> _Jets:
        return _Jets(tuple(e for row in self.metric for e in row), (self.dim,) * 2, self.coords)

    @cached_property
    def levi_civita_connection(self):
        """The chart's Levi-Civita connection; one per chart, so callers share its arrays."""
        from .connections import levi_civita  # connections builds on this module
        return levi_civita(self)

    # -- pointwise metric algebra ------------------------------------------
    # Each accessor takes one point (d,) or a batch of points (N, d) and
    # returns its arrays with the same leading shape, through the chart's
    # sample streams (see one_batch).

    _last_batch = None  # one_batch's streams, newest first: (((shape, bytes), {kind: array}), ...)

    def metric_at(self, p) -> np.ndarray:
        return one_batch(self, "g", p, self._jets.kernel)

    def inverse_metric_at(self, p) -> np.ndarray:
        return one_batch(self, "ginv", p, self._inverse_metric)

    def _inverse_metric(self, x: np.ndarray) -> np.ndarray:
        g = self.metric_at(x)
        # condition number of the symmetric metric, compared without a division;
        # a zero metric has no finite one
        eig = np.abs(np.linalg.eigvalsh(g))
        top = eig.max(axis=-1)
        singular = (top > _COND_LIMIT * eig.min(axis=-1)) | (top == 0)
        if singular.any():
            first = np.argwhere(singular)[0]
            raise SingularMetricError(
                f"metric of {self.name!r} is near-singular at {x[tuple(first)]}")
        return np.linalg.inv(g)

    def metric_derivatives_at(self, p) -> np.ndarray:
        """Rank-3 array dG[i, j, k] = d_i g_jk (exact symbolic derivatives)."""
        return one_batch(self, "dg", p, self._jets.d1_kernel)

    def inverse_metric_derivatives_at(self, p) -> np.ndarray:
        """Rank-3 array dGinv[q, a, b] = d_q g^ab."""
        return one_batch(self, "dginv", p, self._inverse_metric_derivatives)

    def _inverse_metric_derivatives(self, x: np.ndarray) -> np.ndarray:
        from .connections import _dginv  # connections builds on this module
        return _dginv(self.inverse_metric_at(x), self.metric_derivatives_at(x))

    def metric_second_derivatives_at(self, p) -> np.ndarray:
        """Rank-4 array d2G[i, j, k, l] = d_i d_j g_kl."""
        return one_batch(self, "d2g", p, self._jets.d2_kernel)

    def metric_third_derivatives_at(self, p) -> np.ndarray:
        """Rank-5 array d3G[i, j, k, l, m] = d_i d_j d_k g_lm."""
        return one_batch(self, "d3g", p, self._jets.d3_kernel)

    def gradient_at(self, f: Expr, p) -> np.ndarray:
        """Metric gradient at a point: components g^{ij} d_j f, so that g(grad f, X) = X(f)."""
        x = self.point(p)
        env = self.env(x)
        df = np.array([evaluate(d, env) for c in self.coords for d in derivative_table((f,), c)])
        return self.inverse_metric_at(x) @ df

    def sample_array(self, n: int, seed: int) -> np.ndarray:
        """Deterministic interior samples as an (n, d) batch, 5% margin from every box face.

        A copy of the first n rows of the process's largest draw for this box
        and seed: ``_DRAWS`` keeps one draw per (domain, seed) for at most 64
        pairs, dropping the one first drawn longest ago, and a request for
        more rows draws again.  ``Generator.uniform`` fills row by row, so
        this equals a fresh draw of n rows byte for byte, whichever chart of
        the box asked first.
        """
        if n < 1:
            raise GeometryError("need at least one sample")
        key = (self.domain, operator.index(seed))
        draw = _DRAWS.get(key)
        if draw is None or len(draw) < n:
            lo, hi = np.array(self.domain).T
            margin = 0.05 * (hi - lo)
            draw = np.random.default_rng(key[1]).uniform(lo + margin, hi - margin,
                                                         size=(n, self.dim))
            _DRAWS[key] = draw
            if len(_DRAWS) > _DRAWS_KEPT:
                _DRAWS.popitem(last=False)
        return draw[:n].copy()

    def __repr__(self) -> str:
        return f"ManifoldSpec({self.name!r}, dim={self.dim})"


def validate_metric(M: ManifoldSpec, samples: int = 64, seed: int = 42) -> None:
    """Check value-level symmetry and positive-definiteness on interior samples.

    The error names the first failing sample; an expression error at any
    sample is raised first, by the evaluation of the whole sample set.
    """
    x = M.sample_array(samples, seed)
    g = M.metric_at(x)
    gT = g.swapaxes(-1, -2)
    asym = np.max(np.abs(g - gT), axis=(-2, -1))
    smallest = np.min(np.linalg.eigvalsh(0.5 * (g + gT)), axis=-1)
    asymmetric = asym >= 1e-12
    failing = asymmetric | (smallest <= 1e-10)
    if failing.any():
        i = int(np.argmax(failing))
        if asymmetric[i]:
            raise GeometryError(
                f"metric of {M.name!r} asymmetric by {asym[i]:.3e} at {x[i].tolist()}")
        raise GeometryError(
            f"metric of {M.name!r} not positive definite at {x[i].tolist()} "
            f"(smallest eigenvalue {smallest[i]:.3e})")
