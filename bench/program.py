"""Locate and import the dualgeo sources of the checkout the benchmark sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable dualgeo sources."""


def load():
    """Import dualgeo from ``<checkout>/src`` and nowhere else."""
    if not (SRC / "dualgeo" / "__init__.py").is_file():
        raise ProgramMissing(f"no dualgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    dualgeo = importlib.import_module("dualgeo")
    if Path(dualgeo.__file__).resolve().parent != SRC / "dualgeo":
        raise ProgramMissing(f"dualgeo imported from {dualgeo.__file__}, not from {SRC}")
    return dualgeo


def workdir(workload: str, tag: str) -> Path:
    """Scratch directory for one process's generated inputs, inside the checkout."""
    return ROOT / ".bench_work" / f"{workload}-{tag}"
