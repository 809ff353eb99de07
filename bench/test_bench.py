"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""

import argparse
import json
import time

import numpy as np
import pytest

import program

program.load()

import run  # noqa: E402  (the imports below need the sources on sys.path)
import specgen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_counts(workload, n):
    t = tracing.Tracer()
    t.install()
    try:
        tally = run.run_ops(workload, 0, count=n, tracer=t)
    finally:
        t.uninstall()
    assert tally.correct
    return {name: m["value"] for name, m in t.metrics(0.0).items()
            if m["unit"] in ("count", "ratio", "calls/point")}


def test_same_seed_same_documents(tmp_path):
    a = workloads.SpecCli(11, tmp_path / "a")
    b = workloads.SpecCli(11, tmp_path / "b")
    c = workloads.SpecCli(12, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in names)
    assert specgen.grid_charts(11) == specgen.grid_charts(11) != specgen.grid_charts(12)
    for w in (a, b, c):
        w.close()


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_generator_keeps_every_known_defect(seed):
    defects = {cmd["defect"] for cmd in specgen.spec_commands(seed)} - {None}
    assert defects == set(workloads.KNOWN_DEFECTS)


def test_traced_call_counts_repeat(tmp_path):
    grid = workloads.CurvatureGrid(3, tmp_path)
    first = _traced_counts(grid, 2 * grid.block)
    assert first["curvature.riemann_at.calls"] > 0
    assert first == _traced_counts(workloads.CurvatureGrid(3, tmp_path), 2 * grid.block)

    commands = specgen.spec_commands(3)
    picked = [commands[0], commands[1], next(c for c in commands if c["command"] == "twist")]
    counts = []
    for n in range(2):
        spec = workloads.SpecCli(3, tmp_path / f"spec{n}", commands=[dict(c) for c in picked])
        counts.append(_traced_counts(spec, len(picked)))
        spec.close()
    assert counts[0]["cli.load_spec.calls"] == len(picked)
    assert counts[0] == counts[1]

    verify = [_traced_counts(workloads.VerifyPaper(3, tmp_path, samples=2), 1) for _ in range(2)]
    assert verify[0]["exprlang.evaluate.calls"] > 0
    assert verify[0] == verify[1]


def test_verify_sections_cover_the_run(tmp_path):
    t = tracing.Tracer()
    t.install()
    try:
        run.run_ops(workloads.VerifyPaper(3, tmp_path, samples=2), 0, count=1, tracer=t)
    finally:
        t.uninstall()
    sections = t.sections()
    start, end = t.ops[0]
    assert all(v > 0 for v in sections.values())
    assert sum(sections.values()) == pytest.approx(end - start)


def test_every_known_defect_reproducer_is_counted_as_failed(tmp_path):
    commands = workloads.ledger_commands()
    assert {c["defect"] for c in commands} == set(workloads.KNOWN_DEFECTS)
    spec = workloads.SpecCli(0, tmp_path / "ledger", commands=commands)
    tally = run.run_ops(spec, 0, count=len(commands))
    spec.close()
    assert tally.attempted == len(commands)
    assert [f.known for f in tally.failures] == [c["defect"] for c in commands]
    assert tally.correct


def test_unexpected_failure_makes_the_run_incorrect(tmp_path):
    cmd = dict(workloads.ledger_commands()[0], defect=None)
    spec = workloads.SpecCli(0, tmp_path / "one", commands=[cmd])
    tally = run.run_ops(spec, 0, count=1)
    spec.close()
    assert len(tally.failures) == 1 and not tally.correct


def test_untraced_timings_never_pass_through_a_wrapper(tmp_path, monkeypatch):
    originals = tracing.current_bindings()
    assert np.einsum is originals[(id(np), "einsum")]

    # A traced pass puts every original back.
    grid = workloads.CurvatureGrid(5, tmp_path)
    _traced_counts(grid, grid.block)
    assert tracing.current_bindings() == originals

    # The untraced path never installs a tracer, and every timed operation
    # runs against the original functions.
    def refuse(self):
        raise AssertionError("tracer installed during an untraced run")
    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    seen = []
    inner = grid.run

    def run_and_look(i):
        now = tracing.current_bindings()
        seen.append(now.keys() == originals.keys()
                    and all(now[key] is originals[key] for key in now))
        return inner(i)
    monkeypatch.setattr(grid, "run", run_and_look)
    args = argparse.Namespace(workload="curvature-grid", seed=5, seconds=0.05, trace=0)
    tally, metrics, _ = run.end_to_end(args, grid)
    assert seen and all(seen)
    assert tally.correct and tally.attempted == len(seen)
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_scaling():
    host = run.HostSpeed()
    nominal = run.REF_NOMINAL_S
    # Chunks at twice the nominal time, one of them inside [1.0, 1.5].
    host.mid, host.took = [0.9, 1.2, 1.6, 5.0], [2 * nominal] * 4
    assert host.own(1.0, 1.5) == pytest.approx(0.5 - 2 * nominal)
    assert host.index(1.0, 1.5) == pytest.approx(2.0)
    assert host.normalized(1.0, 1.5) == pytest.approx((0.5 - 2 * nominal) / 2)
    # Only chunks within REF_WINDOW_S of the operation count.
    host.took[-1] = 4 * nominal
    assert host.index(4.6, 4.7) == pytest.approx(4.0)


def test_host_speed_samples_inside_an_operation():
    host = run.HostSpeed()
    host.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * run.REF_INTERVAL_S:
            pass
        t1 = time.perf_counter()
    finally:
        host.stop()
    assert len(host.took) >= 2
    assert host.own(t0, t1) == pytest.approx(t1 - t0 - sum(host.took))
