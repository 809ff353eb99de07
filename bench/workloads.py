"""The three benchmark workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up that
``setup_s`` times), runs one operation per call of ``run`` (the only timed
code), and judges that operation's output in ``check``, outside the timed
region.  ``check`` returns None when the output is correct, or a Failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dualgeo import RunConfig, verify_paper
from dualgeo import cli, fixtures
from dualgeo.connections import conjugate, explicit_connection, levi_civita
from dualgeo.curvature import ricci_at, riemann_at, scalar_at, weyl_at
from dualgeo.geometry import ManifoldSpec
from dualgeo.report import sha256_of

import specgen

BENCH_DIR = Path(__file__).resolve().parent

# Known defects of the program that the generated inputs hit, each with the
# outcome that shows it: an exit code or the exception that escapes main.  A
# failure that matches its ledger entry is counted as failed but is not a
# surprise; any other failure makes the run incorrect.  README.md describes
# each entry, and defects/ holds one reproducer per entry.
KNOWN_DEFECTS = {
    "twist-fiber-hessian": 1,
    "nonfinite-bound": "OverflowError",
    "deep-nesting": "RecursionError",
}


@dataclass(frozen=True)
class Failure:
    reason: str
    known: str | None = None  # ledger entry the failure matches


class Workload:
    name = ""
    trace_ops = 1    # operations in one traced pass; fixed, so call counts repeat
    block = 1        # operations in one round over every input; a timed run ends on a whole round
    memory_ops = 1   # operations after which peak RSS is read

    def prepare(self, i: int) -> None:
        """Untimed work that must precede operation i."""

    def timed(self, i: int) -> bool:
        """Whether operation i counts towards the latency metrics."""
        return True

    def close(self) -> None:
        """Remove whatever the set-up wrote."""


# ---------------------------------------------------------------------------
# verify-paper


class VerifyPaper(Workload):
    """``verify_paper`` at the default 64 samples; fixtures are rebuilt in each call."""

    name = "verify-paper"

    def __init__(self, seed: int, workdir: Path, samples: int = 64):
        self.config = RunConfig(samples=samples, seed=seed)
        self.expected = json.loads((BENCH_DIR / "verify_fingerprint.json").read_text())
        self.digests: set[str] = set()

    def run(self, i: int):
        return verify_paper(self.config)

    def check(self, i: int, report) -> Failure | None:
        self.digests.add(sha256_of(report.to_json().encode()))
        statuses = {c.check_id: c.status for c in report.checks}
        if len(statuses) != len(report.checks):
            return Failure("duplicate check ids in the report")
        if statuses != self.expected:
            changed = sorted(set(statuses.items()) ^ set(self.expected.items()))
            return Failure(f"check statuses differ from the fingerprint: {changed[:4]}")
        return None


# ---------------------------------------------------------------------------
# curvature-grid


@dataclass(eq=False)
class _Chart:
    manifold: ManifoldSpec
    lc: object
    explicit: object
    dual: object
    lo: np.ndarray
    hi: np.ndarray
    hyperbolic: bool = False


def _chart(M: ManifoldSpec, gamma: dict, hyperbolic: bool = False) -> _Chart:
    C = explicit_connection(M, gamma)
    lo = np.array([a for a, _ in M.domain])
    hi = np.array([b for _, b in M.domain])
    margin = 0.05 * (hi - lo)
    return _Chart(M, levi_civita(M), C, conjugate(C, M), lo + margin, hi - margin, hyperbolic)


class CurvatureGrid(Workload):
    """Curvature at fresh points of generated charts and three product fixtures."""

    name = "curvature-grid"
    trace_ops = 600
    fixture_names = ("twisted-4d", "warped-sphere-fiber", "hyperbolic-4d")

    def __init__(self, seed: int, workdir: Path):
        self.charts = []
        for doc in specgen.grid_charts(seed):
            M = ManifoldSpec.from_strings(doc["name"], doc["coords"],
                                          [tuple(iv) for iv in doc["domain"]], doc["metric"])
            gamma = {tuple(int(n) for n in key.split(",")): src
                     for key, src in doc["gamma"].items()}
            self.charts.append(_chart(M, gamma))
        twists = dict(fixtures.standard_twists())
        for name in self.fixture_names:
            M = twists[name].manifold
            gamma = {(0, 0, 0): "0.3", (1, 0, 1): f"0.2*{M.coords[0]}"}
            self.charts.append(_chart(M, gamma, hyperbolic=name == "hyperbolic-4d"))
        self.block = len(self.charts)  # one round: a point on every chart
        # The memo keeps every visited point, so memory is read after a fixed
        # number of points rather than at the end of a run of fixed length.
        self.memory_ops = 500 * self.block
        self.seed = seed
        self._points: dict[int, np.ndarray] = {}

    def point(self, i: int) -> tuple[_Chart, np.ndarray]:
        """Op i visits chart i mod len(charts) at a point no other op visits."""
        chart = self.charts[i % len(self.charts)]
        x = self._points.pop(i, None)
        if x is None:
            x = np.random.default_rng([self.seed, 3, i]).uniform(chart.lo, chart.hi)
        return chart, x

    def prepare(self, i: int) -> None:
        # Draw op i's point before the timer starts.
        self._points[i] = self.point(i)[1]

    def run(self, i: int):
        chart, x = self.point(i)
        M, lc = chart.manifold, chart.lc
        out = {
            "x": x,
            "R": riemann_at(lc, x),
            "ric": ricci_at(M, lc, x),
            "S": scalar_at(M, lc, x),
            "W": weyl_at(M, lc, x) if M.dim >= 3 else None,
            "Rc": riemann_at(chart.explicit, x),
            "Rs": riemann_at(chart.dual, x),
        }
        return chart, out

    def check(self, i: int, result) -> Failure | None:
        chart, out = result
        M = chart.manifold
        g = M.metric_at(out["x"])
        ginv = np.linalg.inv(g)
        R, ric, S, W, Rc, Rs = (out[k] for k in ("R", "ric", "S", "W", "Rc", "Rs"))
        scale = 1.0 + max(float(np.max(np.abs(a))) for a in (R, Rc, Rs))
        residuals = {
            "antisymmetry": max(float(np.max(np.abs(a + a.transpose(0, 2, 1, 3))))
                                for a in (R, Rc, Rs)),
            "first-bianchi": float(np.max(np.abs(
                R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)))),
            "ricci-two-routes": float(np.max(np.abs(ric - np.trace(R, axis1=0, axis2=1)))),
            "scalar-trace": abs(S - float(np.sum(ginv * ric))),
            "curvature-duality": float(np.max(np.abs(
                np.einsum("lm,lijk->ijkm", g, Rc) + np.einsum("lk,lijm->ijkm", g, Rs)))),
        }
        if W is not None:
            low = np.einsum("lm,mijk->lijk", g, W)
            traces = [np.trace(W, axis1=0, axis2=a) for a in (1, 2, 3)]
            traces += [np.einsum(f"{pair},lijk->{rest}", ginv, low)
                       for pair, rest in (("li", "jk"), ("lj", "ik"), ("lk", "ij"),
                                          ("ij", "lk"), ("ik", "lj"), ("jk", "li"))]
            residuals["weyl-trace-free"] = max(float(np.max(np.abs(t))) for t in traces)
        if chart.hyperbolic:
            residuals["hyperbolic-weyl"] = float(np.max(np.abs(W)))
            residuals["hyperbolic-scalar"] = abs(S + 12.0)
        for name, value in residuals.items():
            if not value <= 1e-8 * scale:
                return Failure(f"{name} residual {value:.3e} on {M.name} at {out['x'].tolist()}")
        return None


# ---------------------------------------------------------------------------
# spec-cli


class SpecCli(Workload):
    """Generated spec documents run through ``dualgeo.cli.main`` in process."""

    name = "spec-cli"

    def __init__(self, seed: int, workdir: Path, commands: list[dict] | None = None):
        self.commands = specgen.spec_commands(seed) if commands is None else commands
        self.trace_ops = self.memory_ops = self.block = len(self.commands)
        self.workdir = workdir
        workdir.mkdir(parents=True)
        for n, cmd in enumerate(self.commands):
            path = workdir / cmd["doc"]
            path.write_text(cmd["text"])
            cmd["argv"] = [cmd["command"], str(path), "--report", str(workdir / f"report{n}.json")]

    def prepare(self, i: int) -> None:
        # A report left by an earlier visit must not pass for this one.
        Path(self.commands[i % len(self.commands)]["argv"][3]).unlink(missing_ok=True)

    def run(self, i: int):
        cmd = self.commands[i % len(self.commands)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cmd, cli.main(cmd["argv"]), None
            except SystemExit as exc:
                return cmd, exc.code, None
            except Exception as exc:  # an escape is the failure being counted
                return cmd, None, type(exc).__name__

    def check(self, i: int, result) -> Failure | None:
        cmd, code, escaped = result
        outcome = escaped or code
        if escaped:
            failure = f"{cmd['command']} {cmd['doc']} escaped main with {escaped}"
        elif code != cmd["expect"]:
            failure = f"{cmd['command']} {cmd['doc']} exited {code}, expected {cmd['expect']}"
        else:
            return self._check_report(cmd)
        known = cmd["defect"] if KNOWN_DEFECTS.get(cmd["defect"]) == outcome else None
        return Failure(failure, known)

    def _check_report(self, cmd) -> Failure | None:
        if cmd["expect"] != 0:
            return None
        try:
            report = json.loads(Path(cmd["argv"][3]).read_text())
        except (OSError, ValueError) as exc:
            return Failure(f"{cmd['command']} {cmd['doc']} left no readable report: {exc}")
        if cmd["command"] != "curvature" and report.get("overall") != "pass":
            return Failure(f"{cmd['command']} {cmd['doc']} exited 0 with a failing report")
        return None

    def timed(self, i: int) -> bool:
        """command_ms is taken over the valid documents only."""
        return self.commands[i % len(self.commands)]["expect"] == 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def ledger_commands() -> list[dict]:
    """One spec-cli command per reproducer in defects/ledger.json."""
    commands = []
    for entry in json.loads((BENCH_DIR / "defects" / "ledger.json").read_text()):
        text = (BENCH_DIR / "defects" / entry["spec"]).read_text()
        commands.append({"doc": entry["spec"], "text": text, "command": entry["command"],
                         "expect": entry["expect"], "defect": entry["defect"]})
    return commands


WORKLOADS = {w.name: w for w in (VerifyPaper, CurvatureGrid, SpecCli)}
