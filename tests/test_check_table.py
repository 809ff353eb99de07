"""The check table: one row per check id, shared by verify-paper and the spec commands.

A check id that two commands report reads and judges the same in both: the
same statement and the same tolerance, its row's default.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from dualgeo import verify
from dualgeo.report import RunConfig
from dualgeo.verify import CHECKS, FLAG, INFO, TOL, Check, Checks, verify_paper

# ids reported by verify-paper and a spec command, or by two spec commands
SHARED_IDS = {
    "inverse-metric", "conjugation-involution", "duality-residual", "lift-lemma",
    "block-levi-civita", "curvature-block R(X,Y)Z", "curvature-block R(X,Y)U",
    "curvature-block R(X,U)Y", "curvature-block R(U,V)X", "curvature-block R(X,U)V",
    "curvature-block R(U,V)W", "mixed-weyl-display C(X,Y)V", "mixed-weyl-display C(V,W)X",
    "induced-duality",
}


def test_shared_ids_read_and_judge_the_same(check_reports):
    seen: dict[str, dict[str, set]] = {}
    for (command, _), report in check_reports.items():
        for c in report["checks"]:
            by_command = seen.setdefault(c["check_id"], {})
            by_command.setdefault(command, set()).add((c["statement"], c["tolerance"]))
    shared = {cid: by_command for cid, by_command in seen.items() if len(by_command) > 1}
    assert set(shared) == SHARED_IDS
    for cid, by_command in shared.items():
        assert len(set().union(*by_command.values())) == 1, (cid, by_command)


def test_each_row_reports_its_table_tolerance(check_reports):
    """Every command, at every seed, judges a row against its ``CHECKS`` default alone."""
    runs = dict(check_reports)
    runs["verify-paper", "seed 3"] = json.loads(verify_paper(RunConfig(seed=3)).to_json())
    judged = set()
    for run, report in runs.items():
        for c in report["checks"]:
            row = CHECKS.get(c["check_id"])  # a theorem-* id has variant rows, none judged
            assert c["tolerance"] == (row.default if row else None), (run, c["check_id"])
            if c["tolerance"] is not None:
                judged.add(c["check_id"])
    assert judged == {key for key, row in CHECKS.items() if row.rule == TOL}


def test_count_and_tolerance_rules():
    config = RunConfig(samples=20)
    assert Check("s", INFO, cap=16).count(config) == 16
    assert Check("s", INFO, cap=32).count(config) == 20
    assert Check("s", INFO, fixed=40).count(config) == 40
    assert Check("s", INFO).count(config) == 20
    # one tolerance rule: a TOL row has its default, and the other rows have none
    assert {row.rule for row in CHECKS.values()} == {TOL, INFO, FLAG}
    for key, row in CHECKS.items():
        assert (row.default is not None) == (row.rule == TOL), key


def test_rows_of_one_batch_share_their_count():
    ck = Checks(RunConfig(), {})
    assert ck.n("first-bianchi", "weyl-trace-free", "scalar-two-routes") == 12
    with pytest.raises(ValueError, match="share one batch"):
        ck.n("first-bianchi", "lift-lemma")


def test_flag_and_variant_rows_record_their_id():
    ck = Checks(RunConfig(), {})
    ck.add("theorem-mixed-ricci/agrees", True, name="flat-pair-direct")
    ck.add("theorem-mixed-ricci/gap", None, notes="n", name="x")
    ck.add("inverse-metric", 2e-12)
    flag, gap, fail = ck.report.checks
    assert (flag.check_id, flag.status, flag.tolerance) == (
        "theorem-mixed-ricci [flat-pair-direct]", "pass", None)
    assert (gap.check_id, gap.status, gap.notes) == ("theorem-mixed-ricci [x]", "info", "n")
    assert (fail.status, fail.tolerance) == ("fail", 1e-12)


def test_a_row_reduces_over_the_values_of_its_structures():
    """Residuals report their max, flags pass when all hold, one value passes through."""
    ck = Checks(RunConfig(), {})
    single = np.float64(5e-11)
    ck.add("inverse-metric", 1e-13, 3e-12, 2e-13)
    ck.add("conjugation-duality", 1e-12, float("nan"), 0.0)
    ck.add("metric-spd", True, np.bool_(True), np.bool_(False))
    ck.add("flat-iff-dual-flat", np.bool_(True), True)
    ck.add("lift-lemma", single)
    ck.add("torsion-inheritance", np.bool_(False))
    ck.add("twist-classification", None, notes="direct")
    ck.add("theorem-mixed-weyl/reported", 0.25, name="s")
    worst, nan, flags, all_flags, one, one_flag, info, named = ck.report.checks
    assert (worst.max_residual, worst.status) == (3e-12, "fail")
    assert math.isnan(nan.max_residual) and nan.status == "fail"
    assert (flags.status, all_flags.status) == ("fail", "pass")
    assert one.max_residual is single and one.status == "pass"
    assert one_flag.status == "fail"
    assert (info.max_residual, info.status, info.notes) == (None, "info", "direct")
    assert (named.check_id, named.max_residual, named.status) == (
        "theorem-mixed-weyl [s]", 0.25, "info")


def test_rows_added_out_of_order_are_reported_in_table_order():
    ck = Checks(RunConfig(), {})
    ck.add("inverse-metric", 1e-13)
    ck.add("theorem-mixed-ricci/agrees", True, name="a")
    ck.add("theorem-weyl-parallel/reported", 0.5, name="a")
    ck.add("theorem-mixed-ricci/gap", None, name="b")
    ck.add("metric-spd", True)
    ck.add("dual-curvature-blocks", 0.0)
    assert [c.check_id for c in ck.report.checks][:2] == ["inverse-metric",
                                                           "theorem-mixed-ricci [a]"]
    assert [c.check_id for c in ck.in_table_order().checks] == [
        "metric-spd", "inverse-metric", "dual-curvature-blocks", "theorem-mixed-ricci [a]",
        "theorem-weyl-parallel [a]", "theorem-mixed-ricci [b]"]


def test_reports_list_their_rows_in_table_order(check_reports):
    """Every command reports its rows in ``CHECKS`` order (theorem-* rows aside)."""
    order = {key: i for i, key in enumerate(CHECKS)}
    for run, report in check_reports.items():
        rows = [order[c["check_id"]] for c in report["checks"]
                if not c["check_id"].startswith("theorem-")]
        assert rows == sorted(set(rows)), run


def test_reported_mixed_weyl_rows_keep_a_nan(monkeypatch):
    # a NaN in the second hypothesis value, not only the first, reaches each row
    analyze = verify.theorem42_analyze

    def with_nan(*args, **kwargs):
        rec = analyze(*args, **kwargs)
        return dataclasses.replace(rec, hypothesis={**rec.hypothesis, "weyl_vwx_max": math.nan})
    monkeypatch.setattr(verify, "theorem42_analyze", with_nan)
    rows = [c for c in verify_paper(RunConfig(samples=4, seed=3)).checks
            if c.check_id.startswith("theorem-mixed-weyl [") and c.status == INFO]
    assert rows and all(math.isnan(c.max_residual) for c in rows)
