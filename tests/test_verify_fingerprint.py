"""verify-paper's verdicts, pinned to the benchmark's fingerprint.

The verify-paper benchmark workload judges each run by the check statuses in
``bench/verify_fingerprint.json``; this test holds the tier-1 suite to the
same file, read by path and never written.
"""

import json
from pathlib import Path

from dualgeo import RunConfig, verify_paper

FINGERPRINT = Path(__file__).resolve().parents[1] / "bench" / "verify_fingerprint.json"


def test_verify_paper_matches_the_benchmark_fingerprint():
    expected = json.loads(FINGERPRINT.read_text())
    report = verify_paper(RunConfig(seed=42))
    assert report.config["samples"] == 64
    statuses = {c.check_id: c.status for c in report.checks}
    assert len(statuses) == len(report.checks)
    assert statuses == expected
