"""Run configuration and verification-report machinery.

Reports are deterministic: identical inputs, seed and version produce
byte-identical JSON and tables (no timestamps, sorted keys, fixed float
formatting in the table, repr-based floats in JSON).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .exprlang import Expr, to_source

__all__ = ["RunConfig", "CheckRecord", "VerificationReport", "jsonable", "sha256_of"]

PASS, FAIL, INFO = "pass", "fail", "info"


@dataclass(frozen=True)
class RunConfig:
    samples: int = 64
    seed: int = 42
    report_path: str | None = None
    point: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    statement: str
    max_residual: float | None
    tolerance: float | None
    status: str  # pass | fail | info
    notes: str = ""


@dataclass
class VerificationReport:
    tool: str
    version: str
    config: dict
    inputs: dict
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, check_id: str, statement: str, residual: float | None,
            tolerance: float | None, notes: str = "",
            informational: bool = False) -> CheckRecord:
        if informational or residual is None or tolerance is None:
            status = INFO
        else:
            status = PASS if residual < tolerance else FAIL
        rec = CheckRecord(check_id, statement, residual, tolerance, status, notes)
        self.checks.append(rec)
        return rec

    def add_flag(self, check_id: str, statement: str, ok: bool, notes: str = "") -> CheckRecord:
        rec = CheckRecord(check_id, statement, None, None, PASS if ok else FAIL, notes)
        self.checks.append(rec)
        return rec

    @property
    def overall(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    def counts(self) -> tuple[int, int, int]:
        p = sum(1 for c in self.checks if c.status == PASS)
        f = sum(1 for c in self.checks if c.status == FAIL)
        i = sum(1 for c in self.checks if c.status == INFO)
        return p, f, i

    def render_table(self) -> str:
        width = max([len(c.check_id) for c in self.checks] + [20])
        lines = [f"{'CHECK':<{width}}  {'RESIDUAL':>12}  {'TOL':>9}  STATUS",
                 "-" * (width + 36)]
        for c in self.checks:
            res = f"{c.max_residual:.4e}" if c.max_residual is not None else "-"
            tol = f"{c.tolerance:.1e}" if c.tolerance is not None else "-"
            lines.append(f"{c.check_id:<{width}}  {res:>12}  {tol:>9}  {c.status}")
            if c.notes:
                lines.append(f"{'':<{width}}    note: {c.notes}")
        p, f, i = self.counts()
        lines.append("-" * (width + 36))
        lines.append(f"overall: {self.overall.upper()} "
                     f"({p} passed, {f} failed, {i} informational)")
        return "\n".join(lines)

    def payload(self) -> dict:
        """The report as a fresh JSON-serializable dict; ``to_json`` is its text."""
        return {**jsonable(self), "overall": self.overall}

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True)


# JSON leaves as they are, by exact type: a numpy scalar (``np.float64`` is a float
# subclass) still takes ``.item()`` below
_LEAVES = frozenset({str, int, float, bool, type(None)})


def jsonable(obj):
    """Recursively convert report payloads to JSON-serializable structures."""
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, Expr):
        return to_source(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
