"""Run one dualgeo benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-paper --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every workload runs in this one process as a closed loop: the next operation
starts when the previous one has ended.  The operation's output is checked
after its timer stops.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics, measured with no tracing installed and scaled to a
nominal host speed (see HostSpeed).  With ``--trace 1``
it carries the per-layer metrics of one fixed-size traced pass, preceded by
an untraced pass of the same size that gives ``trace.overhead_s``.  The lines
before it name the workload's own metrics (``verify_s``, ``points_per_s``,
``command_ms.p50`` and so on) and any failures.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import program
import reference

SETUP_PROBES = 7

# The host-speed reference (see HostSpeed and reference.py).  REF_NOMINAL_S is
# a fixed scale, about what a chunk takes on a shared 2-vCPU Xeon host; the
# timer runs a chunk every REF_INTERVAL_S, which costs about 3% of a run.
REF_NOMINAL_S = 0.004
REF_INTERVAL_S = 0.125
REF_WINDOW_S = 0.5
REF_AROUND_PROBE = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-paper", "curvature-grid", "spec-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Attempts, failures and the start and end times of the operations that count."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.spans = []     # (start, end) perf_counter times of the timed operations
        self.elapsed = 0.0  # sum of every operation's duration
        self.rss_mb = None  # peak RSS once the workload's memory_ops had run

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        self.spans += other.spans
        self.elapsed += other.elapsed

    @property
    def correct(self) -> bool:
        """True when every failure is one the known-defect ledger predicts."""
        return all(f.known for f in self.failures)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, start: int, count: int | None = None, seconds: float | None = None,
            tracer=None, between_rounds=None) -> Tally:
    """Run operations start, start+1, ... until count ran or seconds passed.

    A timed run ends on a whole round, so every run sees the same mix of inputs.
    between_rounds, if given, is called after each round, outside any timing.
    """
    from workloads import Failure

    tally = Tally()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = start
    while (i - start < count) if count is not None else (
            (i - start) % workload.block != 0 or i == start
            or time.perf_counter() < deadline):
        workload.prepare(i)
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(i)
            else:
                with tracer.operation(i):
                    result = workload.run(i)
        except Exception as exc:  # the operation failed; count it and go on
            error = exc
        t1 = time.perf_counter()
        tally.attempted += 1
        tally.elapsed += t1 - t0
        if workload.timed(i):
            tally.spans.append((t0, t1))
        failure = (Failure(f"operation {i} raised {type(error).__name__}: {error}")
                   if error is not None else workload.check(i, result))
        if failure is not None:
            tally.failures.append(failure)
        i += 1
        if between_rounds is not None and (i - start) % workload.block == 0:
            between_rounds()
        if i - start == workload.memory_ops:
            tally.rss_mb = peak_rss_mb()
    return tally


class HostSpeed:
    """How fast this machine runs the reference chunk, sampled through a run.

    On a shared machine other processes slow this one down by up to a factor
    of two, for seconds or for minutes at a time, and the slowdown shows in
    CPU time as much as in wall time.  While sampling is on, a timer signal
    runs one reference chunk every REF_INTERVAL_S of wall time, in the middle
    of an operation too.  An operation's time is then taken without the
    chunks that ran inside it, and scaled by REF_NOMINAL_S over the mean
    chunk time within REF_WINDOW_S of the operation: the time the operation
    would take on a machine where a chunk takes REF_NOMINAL_S.
    """

    def __init__(self):
        self.mid = []    # perf_counter time at the middle of each chunk
        self.took = []   # wall time of each chunk
        self._busy = False

    def sample(self) -> float:
        t0 = time.perf_counter()
        took = reference.chunk()
        self.mid.append(t0 + took / 2)
        self.took.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late signal must not nest a chunk inside a chunk
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.mid, t0), bisect.bisect_right(self.mid, t1))

    def index(self, t0: float, t1: float) -> float:
        """Mean chunk time near [t0, t1], over REF_NOMINAL_S: above 1 on a slow machine."""
        near = self.took[self._between(t0 - REF_WINDOW_S, t1 + REF_WINDOW_S)]
        return statistics.fmean(near) / REF_NOMINAL_S

    def own(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, less the chunks that ran inside it."""
        return t1 - t0 - sum(self.took[self._between(t0, t1)])

    def normalized(self, t0: float, t1: float) -> float:
        """own(t0, t1) at the nominal speed."""
        return self.own(t0, t1) / self.index(t0, t1)


class SetupProbes:
    """Times of fresh interpreters that import dualgeo and build the inputs.

    The probes are spread over the run, between rounds, so that they do not
    all fall into one stretch of interference from other processes.  Sampling
    is paused while a probe runs; reference chunks run just before and after
    it instead, and each probe's time is scaled like an operation's.
    """

    def __init__(self, workload: str, seed: int, seconds: float, host: HostSpeed):
        self.argv = [sys.executable, str(program.BENCH_DIR / "setup_probe.py"),
                     workload, str(seed)]
        self.host = host
        self.start = time.perf_counter()
        self.interval = seconds / (SETUP_PROBES - 1)
        self.raw = []
        self.times = []

    def probe(self) -> None:
        self.host.stop()
        for _ in range(REF_AROUND_PROBE):
            self.host.sample()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
        # would round every probe up to the next poll.
        t0 = time.perf_counter()
        subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL, cwd=program.ROOT)
        t1 = time.perf_counter()
        for _ in range(REF_AROUND_PROBE):
            self.host.sample()
        self.raw.append(t1 - t0)
        self.times.append(self.host.normalized(t0, t1))
        self.host.start()

    def when_due(self) -> None:
        if time.perf_counter() - self.start >= len(self.times) * self.interval:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def quantile(values, q: int) -> float:
    """The q-th percentile, by the inclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, workload) -> tuple[Tally, dict, list[str]]:
    host = HostSpeed()
    probes = SetupProbes(args.workload, args.seed, args.seconds, host)
    probes.probe()
    try:
        tally = run_ops(workload, 0, seconds=args.seconds, between_rounds=probes.when_due)
        setup_s = probes.median()
    finally:
        host.stop()
    rss_mb = tally.rss_mb or peak_rss_mb()
    times = [host.normalized(t0, t1) for t0, t1 in tally.spans]
    raw = [host.own(t0, t1) for t0, t1 in tally.spans]
    p50, p90, rate = quantile(times, 50), quantile(times, 90), len(times) / sum(times)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms.p50": {"value": p50 * 1e3, "unit": "ms"},
        "op_ms.p90": {"value": p90 * 1e3, "unit": "ms"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    fail_ratio = len(tally.failures) / tally.attempted
    speed = statistics.median(host.took) / REF_NOMINAL_S
    lines = [f"host index {speed:.3f} (median of {len(host.took)} reference chunks over "
             f"{REF_NOMINAL_S * 1e3:g} ms; the times below are scaled to index 1)",
             f"setup_s {setup_s:.4f} s (median of {SETUP_PROBES} fresh interpreters, "
             f"spread over the run; unscaled {statistics.median(probes.raw):.4f} s)"]
    unscaled = (f"unscaled p50 {quantile(raw, 50) * 1e3:.4f} ms, "
                f"p90 {quantile(raw, 90) * 1e3:.4f} ms, {len(raw) / sum(raw):.3f} 1/s")
    if args.workload == "verify-paper":
        lines.append(f"verify_s {p50:.4f} s (median of {len(times)} suite runs; {unscaled})")
        lines += [f"report_sha256 {digest}" for digest in sorted(workload.digests)]
    else:
        noun = "point" if args.workload == "curvature-grid" else "command"
        lines += [f"{noun}s_per_s {rate:.2f} 1/s ({len(times)} {noun}s; {unscaled})",
                  f"{noun}_ms.p50 {p50 * 1e3:.4f} ms",
                  f"{noun}_ms.p90 {p90 * 1e3:.4f} ms ({len(times) - int(0.9 * len(times))} beyond)"]
    lines += [f"peak_rss_mb {rss_mb:.2f} MB (after {min(workload.memory_ops, tally.attempted)} "
              f"operations)",
              f"fail_ratio {fail_ratio:.4f} ({len(tally.failures)}/{tally.attempted})"]
    return tally, metrics, lines


def per_layer(args, workload) -> tuple[Tally, dict, list[str]]:
    from tracer import Tracer

    n = workload.trace_ops
    tally = run_ops(workload, 0, count=n)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, n, count=n, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = traced.elapsed - tally.elapsed
    tally.merge(traced)
    out_dir = program.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.npz"
    tracer.write_spans(spans)
    lines = [f"traced {n} operations: {traced.elapsed:.3f} s traced, "
             f"{traced.elapsed - overhead:.3f} s untraced",
             f"{len(tracer.span_start)} spans written to {spans.relative_to(program.ROOT)}"]
    return tally, tracer.metrics(overhead), lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program.load()
    except (program.ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, program.workdir(args.workload, str(os.getpid())))
    try:
        measure = per_layer if args.trace else end_to_end
        tally, metrics, lines = measure(args, workload)
    finally:
        workload.close()
    for failure in tally.failures:
        tag = f"known defect {failure.known}" if failure.known else "UNEXPECTED"
        print(f"failed ({tag}): {failure.reason}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
