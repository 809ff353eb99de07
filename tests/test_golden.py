"""Every run of the golden corpus (``tests/golden/corpus.json``) gives the same bytes.

Under the numpy and BLAS configuration the corpus was made under, each
run's exit code and the sha256 of its stdout, stderr and report must match
exactly.  Under any other configuration residuals may move at round-off
level, so only exit codes and each report's check ids and statuses are
compared, and a warning says that bytes were not.  After a deliberate change
of output, ``python tests/golden/regenerate.py`` rewrites the corpus; the
change logs the old and new digests and the reason.
"""

import json
import warnings

import pytest

from golden import regenerate

CORPUS = json.loads(regenerate.CORPUS.read_text())
SAME_CONFIGURATION = CORPUS["configuration"] == regenerate.configuration()


def test_the_corpus_covers_every_case():
    assert [run["argv"] for run in CORPUS["runs"]] == regenerate.cases()


@pytest.mark.parametrize("expected", CORPUS["runs"], ids=lambda run: " ".join(run["argv"]))
def test_a_run_gives_the_golden_output(expected, tmp_path):
    got = regenerate.run(expected["argv"], tmp_path)
    if SAME_CONFIGURATION:
        assert got == expected
        return
    warnings.warn(f"bytes were not compared: the corpus was made under "
                  f"{CORPUS['configuration']}, this run has {regenerate.configuration()}")
    assert (got["exit"], got["checks"]) == (expected["exit"], expected["checks"])
