import json

import numpy as np
import pytest

from dualgeo.report import CheckRecord, RunConfig, VerificationReport, jsonable
from dualgeo.exprlang import parse


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.samples == 64 and cfg.seed == 42
        assert cfg.report_path is None and cfg.point is None

    def test_validation(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            RunConfig(samples=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RunConfig(seed=-1)
        assert RunConfig(seed=0).seed == 0


class TestVerificationReport:
    def make(self):
        return VerificationReport("dualgeo", "0.1.0", {"samples": 4}, {"digest": "x"})

    def test_status_assignment(self):
        rep = self.make()
        assert rep.add("a", "s", 1e-12, 1e-10).status == "pass"
        assert rep.add("b", "s", 1e-8, 1e-10).status == "fail"
        assert rep.add("c", "s", 1.0, None, informational=True).status == "info"
        assert rep.overall == "fail"
        assert rep.counts() == (1, 1, 1)

    def test_flag_records(self):
        rep = self.make()
        rep.add_flag("f", "statement", True)
        assert rep.overall == "pass"
        rep.add_flag("g", "statement", False)
        assert rep.overall == "fail"

    def test_json_round_trip_and_stability(self):
        rep = self.make()
        rep.add("check", "statement", 1.5e-11, 1e-10, notes="n")
        first = rep.to_json()
        second = rep.to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["overall"] == "pass"
        assert payload["checks"][0]["max_residual"] == 1.5e-11

    def test_table_contains_every_check(self):
        rep = self.make()
        rep.add("alpha", "s", 0.0, 1e-9)
        rep.add_flag("beta", "s", True)
        table = rep.render_table()
        assert "alpha" in table and "beta" in table and "overall: PASS" in table


class TestJsonable:
    def test_numpy_and_expr(self):
        data = {"arr": np.arange(3.0), "val": np.float64(1.5),
                "expr": parse("x^2", ["x"]), "nested": (1, [2, np.int64(3)])}
        out = jsonable(data)
        assert out["arr"] == [0.0, 1.0, 2.0]
        assert out["val"] == 1.5
        assert out["expr"] == "x^2.0"
        json.dumps(out)

    def test_dataclass(self):
        rec = CheckRecord("id", "stmt", 0.5, 1.0, "pass", "")
        out = jsonable(rec)
        assert out["check_id"] == "id" and out["status"] == "pass"
