"""Per-layer tracing of dualgeo from outside the package.

The tracer rebinds the public functions of every ``dualgeo`` module (and
``numpy.einsum``) to recording wrappers while it is installed, and puts the
originals back when it is removed.  A function imported with
``from .x import y`` lives in several module namespaces, so every namespace
that holds the same function object is rebound.

Each recorded call is a span: name, start, end, parent span and operation id.
Spans stay in memory and are written out once, at the end of a traced run.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PROVENANCES = ("levi-civita", "explicit", "conjugate-of", "induced-product")

# (module, function, metric prefix, recursive).  A recursive function records
# only its outermost call, so `calls` counts calls made from other code.
FUNCTIONS = [
    ("exprlang", "evaluate", "exprlang.evaluate", False),
    ("exprlang", "parse", "exprlang.parse", False),
    ("exprlang", "differentiate", "exprlang.differentiate", True),
    ("connections", "conjugate", "connections.conjugate", False),
    ("connections", "duality_residual", "connections.duality_residual", False),
    ("connections", "cubic_form_at", "connections.cubic_form_at", False),
    ("connections", "torsion_at", "connections.torsion_at", False),
    ("connections", "torsion_relation_residual", "connections.torsion_relation_residual", False),
    ("curvature", "riemann_at", "curvature.riemann_at", False),
    ("curvature", "ricci_at", "curvature.ricci_at", False),
    ("curvature", "scalar_at", "curvature.scalar_at", False),
    ("curvature", "weyl_at", "curvature.weyl_at", False),
    ("curvature", "orthonormal_frame_at", "curvature.orthonormal_frame_at", False),
    ("products", "hessian_at", "products.hessian_at", False),
    ("products", "curvature_block_report", "products.curvature_block_report", False),
    ("products", "mixed_ricci_table", "products.mixed_ricci_table", False),
    ("products", "mixed_weyl_report", "products.mixed_weyl_report", False),
    ("products", "block_levi_civita_defect", "products.block_levi_civita_defect", False),
    ("products", "weyl_parallel_defect", "products.weyl_parallel_defect", False),
    ("dualistic", "make_dualistic", "dualistic.make_dualistic", False),
    ("dualistic", "induce_on_product", "dualistic.induce_on_product", False),
    ("dualistic", "dually_flat_verdict", "dualistic.dually_flat_verdict", False),
    ("dualistic", "projection_check", "dualistic.projection_check", False),
    ("dualistic", "theorem41_analyze", "dualistic.theorem41_analyze", False),
    ("dualistic", "theorem42_analyze", "dualistic.theorem42_analyze", False),
    ("dualistic", "theorem43_analyze", "dualistic.theorem43_analyze", False),
    ("numdiff", "central_diff", "numdiff.central_diff", False),
    ("cli", "load_spec", "cli.load_spec", True),
    ("cli", "cmd_check", "cli.cmd_check", False),
    ("cli", "cmd_conjugate", "cli.cmd_conjugate", False),
    ("cli", "cmd_curvature", "cli.cmd_curvature", False),
    ("cli", "cmd_twist", "cli.cmd_twist", False),
    ("cli", "cmd_flatness", "cli.cmd_flatness", False),
]

# (module, class, method, metric prefix); the geometry methods also feed
# geometry.point_reuse.
METHODS = [
    ("geometry", "ManifoldSpec", "metric_at", "geometry.metric_at"),
    ("geometry", "ManifoldSpec", "inverse_metric_at", "geometry.inverse_metric_at"),
    ("geometry", "ManifoldSpec", "metric_derivatives_at", "geometry.metric_derivatives_at"),
    ("geometry", "ManifoldSpec", "metric_second_derivatives_at",
     "geometry.metric_second_derivatives_at"),
    ("products", "ProductSpec", "twist_data_at", "products.twist_data_at"),
    ("report", "VerificationReport", "to_json", "report.to_json"),
    ("report", "VerificationReport", "render_table", "report.render_table"),
]
GEOMETRY_METHODS = {prefix for _, _, _, prefix in METHODS if prefix.startswith("geometry.")}

# verify-paper sections, each opened by the first check it reports; the
# analyzer section opens at the first theorem-* check.
SECTION_STARTS = {
    "metric-spd": "charts",
    "conjugation-duality": "conjugation",
    "statistical-verdicts": "statistical",
    "classical-curvature": "classical",
    "first-bianchi": "identities",
    "lift-lemma": "products",
    "induced-duality": "dualistic",
}
SECTIONS = ("charts", "conjugation", "statistical", "classical", "identities",
            "products", "dualistic", "analyzers")


def _layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []

    def timed(prefix, fields):
        for f in fields:
            out.append((f"{prefix}.{f}", "count" if f == "calls" else "s", "lower"))

    timed("exprlang.evaluate", ("calls", "self_s"))
    timed("exprlang.parse", ("calls", "self_s", "total_s"))
    timed("exprlang.differentiate", ("calls", "self_s", "total_s"))
    for _, _, _, prefix in METHODS[:4]:
        timed(prefix, ("calls", "self_s"))
    out.append(("geometry.point_reuse", "ratio", "higher"))
    for method in ("gamma_at", "dgamma_at"):
        for prov in PROVENANCES:
            timed(f"connections.{method}.{prov}", ("calls", "self_s"))
    for fn in ("conjugate", "duality_residual", "cubic_form_at", "torsion_at",
               "torsion_relation_residual"):
        timed(f"connections.{fn}", ("calls", "total_s"))
    for fn in ("riemann_at", "ricci_at", "scalar_at", "weyl_at", "orthonormal_frame_at"):
        timed(f"curvature.{fn}", ("calls", "self_s", "total_s"))
    out.append(("curvature.riemann_per_point", "calls/point", "lower"))
    for fn in ("twist_data_at", "hessian_at", "curvature_block_report", "mixed_ricci_table",
               "mixed_weyl_report", "block_levi_civita_defect", "weyl_parallel_defect"):
        timed(f"products.{fn}", ("calls", "total_s"))
    for fn in ("make_dualistic", "induce_on_product", "dually_flat_verdict", "projection_check",
               "theorem41_analyze", "theorem42_analyze", "theorem43_analyze"):
        timed(f"dualistic.{fn}", ("calls", "total_s"))
    timed("numdiff.central_diff", ("calls", "total_s"))
    for section in SECTIONS:
        out.append((f"verify.section.{section}.s", "s", "lower"))
    timed("report.to_json", ("self_s",))
    timed("report.render_table", ("self_s",))
    timed("cli.load_spec", ("calls", "self_s", "total_s"))
    for cmd in ("check", "conjugate", "curvature", "twist", "flatness"):
        timed(f"cli.cmd_{cmd}", ("total_s",))
    timed("numpy.einsum", ("calls", "self_s"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


LAYER_METRICS = _layer_metrics()


def current_bindings() -> dict:
    """The objects bound now at every place a tracer would rebind, by (owner id, name)."""
    return {(id(owner), attr): owner.__dict__[attr]
            for owner, attr, _ in Tracer()._targets()}


def _point_bytes(p) -> bytes:
    return np.asarray(getattr(p, "coords", p), dtype=float).tobytes()


class Tracer:
    """Records spans around dualgeo's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.agg: dict[str, list] = {}        # name -> [calls, total_s, self_s]
        self.checks: list[tuple[int, str, float]] = []  # (op, check id, time)
        self.ops: dict[int, tuple[float, float]] = {}
        self._stack: list[list] = []          # [span index, name, child time]
        self._op = -1
        self._serials: dict[int, tuple[int, object]] = {}
        self._geometry_keys: set = set()
        self._geometry_calls = 0
        self._riemann_keys: set = set()
        self._riemann_calls = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _serial(self, obj) -> int:
        # Keeps obj alive so its id is never reused within a traced run.
        hit = self._serials.get(id(obj))
        if hit is None:
            hit = self._serials[id(obj)] = (len(self._serials), obj)
        return hit[0]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self._op)
        frame = [idx, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.span_end[idx] = end
            if stack:
                stack[-1][2] += dur
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[2]

    @contextmanager
    def operation(self, op_id: int):
        """Record the spans of one benchmark operation under op_id."""
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops[op_id] = (start, time.perf_counter())
            self._op = -1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, recursive: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0 or (recursive and tracer._stack
                                  and tracer._stack[-1][1] == name):
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)
        return wrapper

    def _wrap_geometry(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, p, *args, **kwargs):
            if tracer._op < 0:
                return fn(spec, p, *args, **kwargs)
            tracer._geometry_calls += 1
            tracer._geometry_keys.add((tracer._serial(spec), name, _point_bytes(p)))
            return tracer._call(name, fn, (spec, p) + args, kwargs)
        return wrapper

    def _wrap_connection(self, fn, method: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(conn, p):
            if tracer._op < 0:
                return fn(conn, p)
            return tracer._call(f"connections.{method}.{conn.provenance}", fn, (conn, p), {})
        return wrapper

    def _wrap_riemann(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(conn, p):
            if tracer._op < 0:
                return fn(conn, p)
            tracer._riemann_calls += 1
            tracer._riemann_keys.add((tracer._serial(conn), _point_bytes(p)))
            return tracer._call(name, fn, (conn, p), {})
        return wrapper

    def _wrap_check(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(report, check_id, *args, **kwargs):
            if tracer._op >= 0:
                tracer.checks.append((tracer._op, check_id, time.perf_counter()))
            return fn(report, check_id, *args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every binding install() replaces."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dualgeo" or n.startswith("dualgeo.")]
        for module, func, name, recursive in FUNCTIONS:
            original = getattr(sys.modules[f"dualgeo.{module}"], func)
            if func == "riemann_at":
                make = functools.partial(self._wrap_riemann, name=name)
            else:
                make = functools.partial(self._wrap, name=name, recursive=recursive)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    yield m, attr, make
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"dualgeo.{module}"], cls_name)
            wrap = self._wrap_geometry if name in GEOMETRY_METHODS else self._wrap
            yield cls, method, functools.partial(wrap, name=name)
        conn_cls = sys.modules["dualgeo.connections"].ConnectionField
        for method in ("gamma_at", "dgamma_at"):
            yield conn_cls, method, functools.partial(self._wrap_connection, method=method)
        report_cls = sys.modules["dualgeo.report"].VerificationReport
        for method in ("add", "add_flag"):
            yield report_cls, method, self._wrap_check
        yield np, "einsum", functools.partial(self._wrap, name="numpy.einsum")

    def install(self) -> None:
        """Rebind every traced function in every dualgeo namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, make in list(self._targets()):
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def sections(self) -> dict[str, float]:
        """verify-paper section times from the intervals between reported checks."""
        totals = dict.fromkeys(SECTIONS, 0.0)
        by_op: dict[int, list] = {}
        for op, check_id, t in self.checks:
            by_op.setdefault(op, []).append((check_id, t))
        for op, events in by_op.items():
            if events[0][0] != "metric-spd":
                continue  # not a verify-paper run
            start, end = self.ops[op]
            section, prev = "charts", start
            for check_id, t in events:
                if check_id in SECTION_STARTS:
                    section = SECTION_STARTS[check_id]
                elif check_id.startswith("theorem-"):
                    section = "analyzers"
                totals[section] += t - prev
                prev = t
            totals[section] += end - prev
        return totals

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        """Every per-layer metric, zero for layers the traced run never reached."""
        sections = self.sections()
        fields = {"calls": 0, "total_s": 1, "self_s": 2}
        out = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "geometry.point_reuse":
                value = (1.0 - len(self._geometry_keys) / self._geometry_calls
                         if self._geometry_calls else 0.0)
            elif name == "curvature.riemann_per_point":
                value = (self._riemann_calls / len(self._riemann_keys)
                         if self._riemann_keys else 0.0)
            elif name.startswith("verify.section."):
                value = sections[name.split(".")[2]]
            elif name == "trace.overhead_s":
                value = overhead_s
            else:
                prefix, field = name.rsplit(".", 1)
                value = self.agg.get(prefix, [0, 0.0, 0.0])[fields[field]]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """Write every span as columns of one .npz file, with the name table."""
        np.savez(path, name=np.asarray(self.span_name), parent=np.asarray(self.span_parent),
                 op=np.asarray(self.span_op), start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end), names=np.array(self.names, dtype=str))
