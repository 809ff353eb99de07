"""Write the golden byte corpus, ``tests/golden/corpus.json``.

    python tests/golden/regenerate.py

The corpus holds, for each run, the exit code and the sha256 of its stdout,
its stderr and its ``--report`` file, with the report's check ids and
statuses.  The runs are the five spec commands on each ``specs/*.json``
(those that exit 1 or 2 too) and ``verify-paper`` at four seeds and three
sample counts.  Each runs in this process through ``cli.main``, from the
root of the checkout with a relative spec path, so that a message naming the
path reads the same on any machine.  The numpy version and the BLAS it was
made under are recorded beside the runs: ``tests/test_golden.py`` compares
bytes only under that configuration.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "corpus.json"
SPEC_COMMANDS = ("check", "conjugate", "curvature", "twist", "flatness")


def cases() -> list[list[str]]:
    """The argv of every run, without its ``--report``."""
    specs = sorted(p.name for p in (ROOT / "specs").glob("*.json"))
    runs = [[command, f"specs/{spec}"] for spec in specs for command in SPEC_COMMANDS]
    runs += [["verify-paper", "--seed", str(seed), "--samples", str(samples)]
             for seed in (1, 3, 42, 2024) for samples in (16, 64, 200)]
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], report_dir: Path) -> dict:
    """One run of ``argv`` from the checkout root: its exit code and its output's digests.

    ``report`` and ``checks`` are ``None`` when the run writes no report;
    ``checks`` is ``None`` too for a report without check rows.
    """
    from dualgeo.cli import main

    report = report_dir / "report.json"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--report", str(report)])
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    data = report.read_bytes() if report.exists() else None
    checks = None
    if data is not None and "checks" in (payload := json.loads(data)):
        checks = [[c["check_id"], c["status"]] for c in payload["checks"]]
    return {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()),
            "report": None if data is None else _sha256(data), "checks": checks}


def _blas_core() -> str | None:
    """The kernel family OpenBLAS picked at run time, when numpy's OpenBLAS names it."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            try:
                corename = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def configuration() -> dict:
    """The numpy version and the BLAS (name, version, run-time kernels) in this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": _blas_core()}


def build() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run(argv, Path(tmp)) for argv in cases()]
    return {"configuration": configuration(), "runs": runs}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    corpus = build()
    runs = ",\n".join(f"  {json.dumps(r)}" for r in corpus["runs"])  # one line per run
    CORPUS.write_text(f'{{"configuration": {json.dumps(corpus["configuration"])},\n'
                      f' "runs": [\n{runs}\n]}}\n')
    print(f"wrote {len(corpus['runs'])} runs to {CORPUS}")
