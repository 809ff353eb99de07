"""The traced benchmark run rebinds dualgeo's functions by name from outside.

``bench/tracer.py`` names the functions and methods it wraps; a rename in
``dualgeo`` would otherwise only show when a traced benchmark run fails.
The tracer is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import dualgeo.cli  # noqa: F401  the tracer looks modules up in sys.modules
import dualgeo.numdiff  # noqa: F401
from dualgeo import conjugate, curvature, curvature_report, levi_civita
from dualgeo import fixtures as fx

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("dualgeo_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = load_tracer()
    bound = {attr for _, attr in tracer.current_bindings()}
    expected = ({func for _, func, _, _ in tracer.FUNCTIONS}
                | {method for _, _, method, _ in tracer.METHODS})
    assert expected <= bound


def test_traced_call_shapes():
    tracer = load_tracer()
    M = fx.sphere2()
    C = conjugate(levi_civita(M), M)
    t = tracer.Tracer()
    t.install()
    try:
        with t.operation(0):
            curvature_report(M, C, M.center())
    finally:
        t.uninstall()
    metrics = t.metrics(0.0)
    assert metrics["curvature.riemann_at.calls"]["value"] == 1
    assert metrics["connections.gamma_at.conjugate-of.calls"]["value"] >= 1
    assert metrics["geometry.metric_at.calls"]["value"] >= 1


def test_traced_batch_is_one_call():
    tracer = load_tracer()
    M = fx.sphere2()
    C = conjugate(levi_civita(M), M)
    X = M.sample_array(8, 3)
    t = tracer.Tracer()
    t.install()
    try:
        with t.operation(0):
            R = curvature.riemann_at(C, X)  # looked up when called, as traced
    finally:
        t.uninstall()
    assert R.shape == (8, 2, 2, 2, 2)
    metrics = t.metrics(0.0)
    assert metrics["curvature.riemann_at.calls"]["value"] == 1
    assert metrics["curvature.riemann_per_point"]["value"] == 1.0
    assert metrics["connections.gamma_at.conjugate-of.calls"]["value"] == 1
    assert metrics["connections.dgamma_at.conjugate-of.calls"]["value"] == 1
