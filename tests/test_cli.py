import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dualgeo import geometry
from dualgeo.cli import (LoadedManifold, LoadedProduct, SpecFileError, _finish, cmd_check,
                         cmd_curvature, load_spec, main)
from dualgeo.report import RunConfig, VerificationReport, jsonable
from dualgeo.verify import CHECKS, verify_paper


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MANIFOLD_DOC = {
    "name": "plane",
    "coords": ["x", "y"],
    "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    "metric": [["1", "0"], ["0", "1"]],
}


LINE_DOC = {"name": "line", "coords": ["x"], "domain": [[-1.0, 1.0]], "metric": [["1"]]}


class TestLoadSpec:
    def test_manifold_file(self, spec_dir):
        loaded = load_spec(str(spec_dir / "sphere2.json"))
        assert isinstance(loaded, LoadedManifold)
        assert loaded.manifold.dim == 2
        assert loaded.connection.provenance == "levi-civita"

    def test_product_file_with_paths(self, spec_dir):
        loaded = load_spec(str(spec_dir / "warped_sphere.json"))
        assert isinstance(loaded, LoadedProduct)
        assert loaded.product.classification == "warped"
        assert loaded.product.n == 3

    def test_inline_product_classified(self, spec_dir):
        loaded = load_spec(str(spec_dir / "twisted_xu.json"))
        assert loaded.product.classification == "proper-twisted"

    def test_declared_pair(self, spec_dir):
        loaded = load_spec(str(spec_dir / "line_pair.json"))
        assert loaded.dual_connection is not None
        assert loaded.dual_connection.gamma_at([0.0])[0, 0, 0] == -0.7

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFileError, match="does not exist"):
            load_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError, match="invalid JSON"):
            load_spec(str(path))

    def test_missing_field(self, tmp_path):
        doc = dict(MANIFOLD_DOC)
        del doc["metric"]
        with pytest.raises(SpecFileError, match="missing required field"):
            load_spec(write(tmp_path, "m.json", doc))

    def test_non_symmetric_metric_rejected(self, tmp_path):
        doc = dict(MANIFOLD_DOC)
        doc["metric"] = [["1", "0.1"], ["0", "1"]]
        with pytest.raises(SpecFileError, match="asymmetric"):
            load_spec(write(tmp_path, "m.json", doc))

    def test_expression_error_reported_with_location(self, tmp_path):
        doc = dict(MANIFOLD_DOC)
        doc["metric"] = [["1", "0"], ["0", "1 +* y"]]
        with pytest.raises(SpecFileError, match="position"):
            load_spec(write(tmp_path, "m.json", doc))

    def test_bad_gamma_key(self, tmp_path):
        doc = dict(MANIFOLD_DOC)
        doc["connection"] = {"kind": "explicit", "gamma": {"0;0;0": "1"}}
        with pytest.raises(SpecFileError, match="k,i,j"):
            load_spec(write(tmp_path, "m.json", doc))

    def test_unknown_connection_kind(self, tmp_path):
        doc = dict(MANIFOLD_DOC)
        doc["connection"] = {"kind": "mystery"}
        with pytest.raises(SpecFileError, match="unknown connection kind"):
            load_spec(write(tmp_path, "m.json", doc))

    @pytest.mark.parametrize("field, value", [("connection", ["kind"]),
                                              ("dual_connection", "kind")])
    def test_connection_that_is_not_an_object(self, tmp_path, capsys, field, value):
        path = write(tmp_path, "m.json", dict(MANIFOLD_DOC, **{field: value}))
        with pytest.raises(SpecFileError, match=f"^m.json.{field}: expected an object$"):
            load_spec(path)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: m.json.{field}: expected an object\n"

    @pytest.mark.parametrize("field", ["connection", "dual_connection"])
    def test_a_domain_error_in_gamma_names_the_field(self, tmp_path, capsys, field):
        doc = dict(LINE_DOC, **{field: {"kind": "explicit", "gamma": {"0,0,0": "log(x)"}}})
        path = write(tmp_path, "m.json", doc)
        with pytest.raises(SpecFileError, match=f"^m.json.{field}.gamma: log of non-positive"):
            load_spec(path)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: m.json.{field}.gamma: log of non-positive value -")
        assert err.count("\n") == 1

    def test_a_domain_error_in_a_factor_gamma_names_the_factor(self, tmp_path, capsys):
        base = dict(LINE_DOC, connection={"kind": "explicit", "gamma": {"0,0,0": "sqrt(x)"}})
        fiber = dict(LINE_DOC, name="lineF", coords=["u"])
        path = write(tmp_path, "p.json", {"kind": "twisted_product", "base": base,
                                          "fiber": fiber, "twist": "1"})
        assert main(["flatness", path, "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: p.json.base.connection.gamma: sqrt of negative value -")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_check_passes(self, spec_dir):
        assert main(["check", str(spec_dir / "sphere2.json"), "--samples", "16"]) == 0

    def test_fisher_metric_pair_is_statistical(self, spec_dir, capsys):
        code = main(["check", str(spec_dir / "fisher_normal.json"), "--samples", "16"])
        assert code == 0
        assert "statistical=True" in capsys.readouterr().out

    def test_check_fails_on_bad_pair(self, spec_dir, capsys):
        code = main(["check", str(spec_dir / "line_bad_pair.json"), "--samples", "8"])
        assert code == 1
        out = capsys.readouterr().out
        assert "1.4000e+00" in out and "fail" in out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "{d}"],
        ["twist", "--base", "{d}", "--fiber", "{spec_dir}/line.json", "--twist", "1"],
        ["flatness", "{d}/product.json"],
        ["check", "{d}/" + "a" * 300 + ".json"],
    ], ids=["spec", "base-flag", "factor", "name-too-long"])
    def test_unreadable_path_is_usage_error(self, spec_dir, tmp_path, capsys, argv):
        d = tmp_path / "specs"
        d.mkdir()
        write(d, "product.json", {"kind": "twisted_product", "base": ".", "fiber": ".",
                                  "twist": "1"})
        assert main([a.format(d=d, spec_dir=spec_dir) for a in argv]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "{spec_dir}/sphere2.json"],
        ["curvature", "{spec_dir}/sphere2.json"],
        ["verify-paper", "--samples", "2"],
    ], ids=["check", "curvature", "verify-paper"])
    @pytest.mark.parametrize("target", ["missing/r.json", ""], ids=["missing-dir", "dir"])
    def test_unwritable_report_is_usage_error(self, spec_dir, tmp_path, capsys, argv, target):
        report = tmp_path / target  # a file in a directory that does not exist, or a directory
        argv = [a.format(spec_dir=spec_dir) for a in argv] + ["--report", str(report)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --report: cannot write: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    # A metric can pass the SPD validation and still be near-singular where
    # g^-1 is taken: an ill-conditioned chart, or a product whose twist is so
    # small that b^2 = 1e-14 is far below the base block.
    @pytest.mark.parametrize("command, doc, chart", [
        *((command, {"name": "ill", "coords": ["x", "y"], "domain": [[0.5, 1], [0.5, 1]],
                     "metric": [["1e300", "0"], ["0", "1"]]}, "ill")
          for command in ("check", "curvature", "conjugate")),
        *((command, {"kind": "twisted_product",
                     "base": {"name": "lineB", "coords": ["x"], "domain": [[-1, 1]],
                              "metric": [["1"]]},
                     "fiber": {"name": "lineF", "coords": ["u"], "domain": [[-1, 1]],
                               "metric": [["1"]]},
                     "twist": "1e-7"}, "lineB*lineF")
          for command in ("twist", "flatness")),
    ], ids=["check-ill", "curvature-ill", "conjugate-ill", "twist-tiny", "flatness-tiny"])
    def test_singular_metric_is_usage_error(self, tmp_path, capsys, command, doc, chart):
        assert main([command, write(tmp_path, "spec.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: metric of {chart!r} is near-singular at [")
        assert "Traceback" not in err

    def test_trig_of_an_infinite_value_names_the_field(self, tmp_path, capsys):
        doc = {"name": "m", "coords": ["x", "y"], "domain": [[0.5, 1], [0.5, 1]],
               "metric": [["2 + sin(1e308*10*x)", "0"], ["0", "1"]]}
        assert main(["check", write(tmp_path, "m.json", doc)]) == 2
        assert capsys.readouterr().err == "error: m.json.metric: sin of inf is undefined\n"

    @pytest.mark.parametrize("command, spec, kind", [
        ("check", "twisted_xu.json", "manifold"),
        ("conjugate", "twisted_xu.json", "manifold"),
        ("curvature", "warped_sphere.json", "manifold"),
        ("twist", "fisher_normal.json", "product"),
        ("flatness", "sphere2.json", "product"),
    ], ids=["check", "conjugate", "curvature", "twist", "flatness"])
    def test_wrong_spec_kind(self, spec_dir, capsys, command, spec, kind):
        path = spec_dir / spec
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {command} expects a {kind} spec\n"

    def test_bad_point_flag(self, spec_dir):
        assert main(["curvature", str(spec_dir / "sphere2.json"),
                     "--point", "1.0,abc"]) == 2

    @pytest.mark.parametrize("command", ["curvature", "conjugate"])
    @pytest.mark.parametrize("point, message", [
        ("1.0,0.5,0.2", "point has (3,) coordinates, expected 2"),
        ("9,9", "point [9.0, 9.0] outside domain of 'fisher-normal'"),
        ("nan,0.5", "point [nan, 0.5] outside domain of 'fisher-normal'"),
        ("inf,1", "point [inf, 1.0] outside domain of 'fisher-normal'"),
        ("1.0,abc", "--point: expected comma-separated numbers"),
        ("", "--point: expected comma-separated numbers"),
    ], ids=["wrong-length", "outside", "nan", "inf", "malformed", "empty"])
    def test_point_flag_errors_name_the_point(self, spec_dir, tmp_path, capsys, command,
                                              point, message):
        report = tmp_path / "r.json"
        assert main([command, str(spec_dir / "fisher_normal.json"), "--point", point,
                     "--report", str(report)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not report.exists()

    @pytest.mark.parametrize("command, heading, reported_point", [
        ("curvature", "curvature at [0.3, 1.2] on 'fisher-normal' (levi-civita):",
         lambda payload: payload["point"]),
        ("conjugate", "conjugate connection at [0.3, 1.2] (entries Gamma*^k_ij, upper index "
                      "first):", lambda payload: payload["details"]["point"]),
    ], ids=["curvature", "conjugate"])
    def test_point_flag_names_the_point_it_reports(self, spec_dir, tmp_path, capsys, command,
                                                   heading, reported_point):
        report = tmp_path / "r.json"
        assert main([command, str(spec_dir / "fisher_normal.json"), "--point", "0.3,1.2",
                     "--report", str(report)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == heading
        assert reported_point(json.loads(report.read_text())) == [0.3, 1.2]

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


# The run options each command reads; it must refuse the others.
READS = {
    "check": {"--samples", "--seed", "--report"},
    "conjugate": {"--samples", "--seed", "--point", "--report"},
    "curvature": {"--point", "--report"},
    "twist": {"--samples", "--seed", "--report"},
    "flatness": {"--samples", "--seed", "--report"},
    "verify-paper": {"--samples", "--seed", "--report"},
}
# option: (argument, RunConfig field, value the field takes); the options
# with no field were removed, and every command refuses them: a row's
# tolerance is its CHECKS default, and the Weyl tensor is reported from dim 3
OPTION_VALUES = {
    "--samples": ("7", "samples", 7),
    "--seed": ("5", "seed", 5),
    "--tol-exact": ("1e-9", None, None),
    "--tol-fd": ("1e-5", None, None),
    "--weyl": ("", None, None),
    "--point": ("1.0,0.5", "point", (1.0, 0.5)),
    "--report": ("out.json", "report_path", "out.json"),
}
COMMAND_SPECS = {"check": "sphere2.json", "conjugate": "sphere2.json",
                 "curvature": "sphere2.json", "twist": "twisted_xu.json",
                 "flatness": "twisted_xu.json", "verify-paper": None}


@pytest.mark.parametrize("command, flag", [(c, f) for c in READS for f in OPTION_VALUES],
                         ids=lambda value: value)
def test_each_command_accepts_only_the_options_it_reads(spec_dir, monkeypatch, capsys,
                                                        command, flag):
    """An option a command reads reaches its RunConfig; any other is a usage error."""
    seen = []
    target = "verify_paper" if command == "verify-paper" else "cmd_" + command
    monkeypatch.setattr(f"dualgeo.cli.{target}", lambda *args: seen.append(args) or 0)
    monkeypatch.setattr("dualgeo.cli._finish", lambda rep, config: rep)
    spec = COMMAND_SPECS[command]
    argument, field, value = OPTION_VALUES[flag]
    argv = [command] + ([str(spec_dir / spec)] if spec else []) + [flag, argument]
    if flag in READS[command]:
        main(argv)
        config = seen[0][0] if command == "verify-paper" else seen[0][1]
        assert getattr(config, field) == value
    else:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert seen == []


def test_check_builds_each_metric_array_once(spec_dir, monkeypatch, capsys):
    """``check`` reads its metric rows as a prefix of the duality batch, not a second build."""
    loaded = load_spec(str(spec_dir / "sphere2.json"))
    builds = []
    one_batch = geometry.one_batch

    def counting(owner, kind, x, build):
        def counted(z):
            builds.append((owner, kind))
            return build(z)
        return one_batch(owner, kind, x, counted)

    monkeypatch.setattr(geometry, "one_batch", counting)
    assert cmd_check(loaded, RunConfig()) == 0
    chart_builds = [kind for owner, kind in builds if owner is loaded.manifold]
    assert chart_builds.count("g") == 1
    assert chart_builds.count("ginv") == 1


@pytest.mark.parametrize("extra", [None, {"point": np.array([0.5, -0.0]), 3: (1, np.int64(2)),
                                            "nested": {"b": [1e-300, float("inf")]}}])
def test_report_is_the_text_of_one_serialization(tmp_path, capsys, extra):
    """``_finish`` writes the bytes the former to_json -> loads -> dump round trip wrote."""
    rep = VerificationReport("dualgeo", "0.1.0", {"samples": 4, "point": (0.5, -0.0)},
                             {"spec_digest": "x", 7: np.float64(2.5)})
    rep.add("a", "s", float("nan"), 1e-9, notes="n")
    rep.add("b", "s", 1.5e-11, 1e-10)
    path = tmp_path / "report.json"
    assert _finish(rep, RunConfig(report_path=str(path)), extra) == 1
    payload = json.loads(rep.to_json())
    if extra:
        payload["details"] = jsonable(extra)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestCurvatureCommand:
    def test_sphere_scalar(self, spec_dir, capsys, tmp_path):
        report = tmp_path / "curv.json"
        code = main(["curvature", str(spec_dir / "sphere2.json"),
                     "--point", f"{math.pi / 3},1.0", "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "scalar = 2" in out
        payload = json.loads(report.read_text())
        assert payload["scalar"] == pytest.approx(2.0, abs=1e-10)
        assert payload["weyl"] is None

    def test_flat_space_zeros(self, tmp_path, capsys):
        doc = {
            "name": "euclid3",
            "coords": ["x", "y", "z"],
            "domain": [[-1, 1]] * 3,
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
        code = main(["curvature", write(tmp_path, "e3.json", doc)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flat at point: True" in out
        assert "max |Weyl| = 0.000000e+00" in out

    def test_ricci_layout_depends_on_the_dimension_only(self, spec_dir, monkeypatch, capsys):
        """A round-off entry that is 0, -0 or +-3.5e-18 prints in the others' layout."""
        loaded = load_spec(str(spec_dir / "sphere2.json"))
        layouts = set()
        for entry in (3.5e-18, -3.5e-18, 0.0, -0.0):
            ricci = np.array([[-0.344, entry, 0.25], [entry, 1.5, -0.125], [0.25, -0.125, 0.75]])
            report = SimpleNamespace(riemann=np.zeros((3, 3, 3, 3)), flat_at_point=False,
                                     ricci=ricci, scalar=1.906, weyl=None)
            monkeypatch.setattr("dualgeo.cli.curvature_report", lambda *args, **kw: report)
            assert cmd_curvature(loaded, RunConfig()) == 0
            lines = capsys.readouterr().out.splitlines()
            start = next(n for n, line in enumerate(lines) if line.startswith("  Ricci = "))
            assert lines[start + 3].startswith("  scalar = ")
            layouts.add(tuple(len(line) for line in lines[start:start + 3]))
        assert len(layouts) == 1


    def test_report_holds_the_record_fields(self, spec_dir, tmp_path):
        report = tmp_path / "curv.json"
        assert main(["curvature", str(spec_dir / "sphere2.json"), "--report", str(report)]) == 0
        assert set(json.loads(report.read_text())) == {
            "point", "riemann", "ricci", "scalar", "weyl", "flat_at_point", "tolerance"}

    def test_metric_not_positive_definite_at_the_point_is_usage_error(self, tmp_path, capsys):
        # the 32 validation samples miss the narrow dip at x = 0.3, so the spec loads
        doc = {"name": "bump", "coords": ["x", "y"], "domain": [[-1, 1], [-1, 1]],
               "metric": [["1 - 2*exp(-100000*(x-0.3)^2)", "0"], ["0", "1"]]}
        assert main(["curvature", write(tmp_path, "bump.json", doc), "--point", "0.3,0"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: metric not positive definite while orthonormalizing "
                       "the frame of 'bump'\n")


class TestConjugateCommand:
    def test_prints_negated_constant(self, spec_dir, capsys):
        assert main(["conjugate", str(spec_dir / "line_pair.json")]) == 0
        out = capsys.readouterr().out
        assert "Gamma*^0_00 = -0.7" in out


class TestTwistCommand:
    def test_product_file(self, spec_dir, tmp_path):
        report = tmp_path / "twist.json"
        code = main(["twist", str(spec_dir / "twisted_xu.json"),
                     "--samples", "8", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        ids = {c["check_id"]: c for c in payload["checks"]}
        assert ids["block-levi-civita"]["status"] == "pass"
        assert ids["curvature-block R(U,V)X"]["max_residual"] < 1e-7
        # both fiber-block pairings are reported
        assert "as-printed" in ids["curvature-block R(U,V)W variants"]["notes"]
        assert "index-consistent" in ids["curvature-block R(U,V)W variants"]["notes"]

    def test_base_fiber_flags(self, spec_dir, tmp_path):
        report = tmp_path / "warped.json"
        code = main(["twist", "--base", str(spec_dir / "line.json"),
                     "--fiber", str(spec_dir / "sphere2.json"),
                     "--twist", "exp(x)", "--samples", "8",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        for check in payload["checks"]:
            if check["check_id"].startswith("curvature-block R(") \
                    and check["max_residual"] is not None:
                assert check["max_residual"] < 1e-8

    def test_direct_classification(self, spec_dir, capsys):
        code = main(["twist", "--base", str(spec_dir / "line.json"),
                     "--fiber", str(spec_dir / "sphere2.json"),
                     "--twist", "1", "--samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "note: direct" in out
        assert "mixed flat: True" in out

    def test_coordinate_clash_is_usage_error(self, spec_dir, tmp_path, capsys):
        # the fiber's coordinates clash with the base's: an error of the fiber, not the twist
        base, fiber = str(spec_dir / "line.json"), str(spec_dir / "hyperbolic2.json")
        assert main(["twist", "--base", base, "--fiber", fiber, "--twist", "1"]) == 2
        message = "factor coordinate names clash: ['x']\n"
        assert capsys.readouterr().err == f"error: --fiber: {message}"
        doc = {"kind": "twisted_product", "base": base, "fiber": fiber, "twist": "1"}
        assert main(["twist", write(tmp_path, "p.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: p.json.fiber: {message}"

    @pytest.mark.parametrize("flag, base, fiber", [
        ("--base", "twisted_xu.json", "sphere2.json"),
        ("--fiber", "line.json", "twisted_xu.json"),
    ])
    def test_product_spec_as_factor_is_usage_error(self, spec_dir, capsys, flag, base, fiber):
        code = main(["twist", "--base", str(spec_dir / base), "--fiber", str(spec_dir / fiber),
                     "--twist", "1"])
        assert code == 2
        assert f"{flag}: factor file must describe a manifold" in capsys.readouterr().err

    @pytest.mark.parametrize("twist, message", [
        ("x+", "unexpected end of input (at position 2)\n"),
        ("q", "unknown identifier 'q' (at position 0)\n"),
        ("log(x-5)", "log of non-positive value -"),
        ("x", "twist x is not positive at ["),
    ], ids=["syntax", "unknown-identifier", "domain", "not-positive"])
    def test_bad_twist_names_its_field_in_both_forms(self, spec_dir, tmp_path, capsys,
                                                     twist, message):
        base, fiber = str(spec_dir / "line.json"), str(spec_dir / "sphere2.json")
        assert main(["twist", "--base", base, "--fiber", fiber, "--twist", twist]) == 2
        flags = capsys.readouterr().err
        doc = {"kind": "twisted_product", "base": base, "fiber": fiber, "twist": twist}
        assert main(["twist", write(tmp_path, "p.json", doc)]) == 2
        spec = capsys.readouterr().err
        assert spec.startswith(f"error: p.json.twist: {message}")
        assert flags == spec.replace("error: p.json.twist: ", "error: --twist: ")

    def test_missing_arguments(self, capsys):
        assert main(["twist"]) == 2
        assert "provide a product spec" in capsys.readouterr().err

    @pytest.mark.parametrize("docs, spec, field", [
        ({"self.json": ("self.json", "self.json")}, "self.json", "self.json.base"),
        ({"a.json": ("line.json", "b.json"), "b.json": ("a.json", "line.json")},
         "a.json", "a.json.fiber"),
    ], ids=["names-itself", "name-each-other"])
    def test_product_named_as_factor_is_usage_error(self, spec_dir, tmp_path, capsys,
                                                    docs, spec, field):
        (tmp_path / "line.json").write_text((spec_dir / "line.json").read_text())
        for name, (base, fiber) in docs.items():
            write(tmp_path, name, {"kind": "twisted_product", "base": base, "fiber": fiber,
                                   "twist": "1"})
        assert main(["twist", str(tmp_path / spec)]) == 2
        assert f"{field}: factor file must describe a manifold" in capsys.readouterr().err


class TestFlatnessCommand:
    def test_flat_fixture(self, spec_dir, capsys):
        code = main(["flatness", str(spec_dir / "flat_dual_product.json"),
                     "--samples", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dually flat: True" in out

    def test_curved_base_identified(self, spec_dir, tmp_path, capsys):
        doc = {
            "kind": "twisted_product",
            "base": "sphere2.json",
            "fiber": "line.json",
            "twist": "1",
        }
        # place next to the referenced factor files
        path = spec_dir / "_tmp_sphere_base.json"
        path.write_text(json.dumps(doc))
        try:
            code = main(["flatness", str(path), "--samples", "12"])
            out = capsys.readouterr().out
            assert code == 0
            assert "dually flat: False" in out
            assert "failing factors: base 'sphere2'" in out
        finally:
            path.unlink()


    @pytest.mark.parametrize("spec", ["warped_sphere.json", "twisted_xu.json",
                                      "flat_dual_product.json"])
    def test_analyzers_report_the_direct_verdict(self, spec_dir, tmp_path, capsys, spec):
        report = tmp_path / "flatness.json"
        main(["flatness", str(spec_dir / spec), "--samples", "16", "--report", str(report)])
        details = json.loads(report.read_text())["details"]
        plane = spec == "flat_dual_product.json"  # dimension 2: no theorem-4.2 record
        analyses = {"mixed_ricci_analysis", "weyl_parallel_analysis"}
        if not plane:
            analyses.add("mixed_weyl_analysis")
        assert set(details) == analyses | {"direct_verdict"}
        chain = details["mixed_ricci_analysis"]["chain"]
        assert chain is not None
        for name in analyses:
            assert details[name]["direct"] == details["direct_verdict"], name
            assert set(details[name]) == set(details["mixed_ricci_analysis"]), name
            assert details[name]["chain"] == chain, name
        if plane:
            rec43 = details["weyl_parallel_analysis"]
            assert rec43["branch"] == 2
            assert rec43["chain"] is not None
            assert rec43["chain"] == details["mixed_ricci_analysis"]["chain"]


    def test_mixed_weyl_row_notes_a_disagreement(self, spec_dir, tmp_path):
        report = tmp_path / "flatness.json"
        main(["flatness", str(spec_dir / "twisted_xu.json"), "--report", str(report)])
        payload = json.loads(report.read_text())
        row = next(c for c in payload["checks"] if c["check_id"] == "analyzer-mixed-weyl")
        assert row["notes"].startswith("hypothesis=holds, predicted=True, direct=False, "
                                       "agreement=False; DISAGREEMENT: ")
        assert payload["details"]["mixed_weyl_analysis"]["agreement"] is False


    def test_a_split_that_does_not_reconstruct_the_metric_is_noted(self, tmp_path, capsys):
        # the sampled mixed Hessian (5e-11) is under the separability threshold, but the
        # split's metric residual is not under the 1e-9 that to_warped accepts
        factor = {"domain": [[-1, 1]], "metric": [["1"]]}
        path = write(tmp_path, "p.json", {
            "kind": "twisted_product", "base": dict(factor, name="lineB", coords=["x"]),
            "fiber": dict(factor, name="lineF", coords=["u"]),
            "twist": "exp(2*x + 2*u + 5e-11*x*u)"})
        report = tmp_path / "flatness.json"
        assert main(["flatness", path, "--report", str(report)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        details = json.loads(report.read_text())["details"]
        chains = [record["chain"] for record in details.values() if "chain" in record]
        assert chains
        for chain in chains:
            assert chain["separable"] is True and chain["reconstruction_residual"] >= 1e-9
            assert any(note.startswith("the sampled split does not reconstruct the metric")
                       for note in chain["notes"])


class TestVerifyPaper:
    def test_full_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = main(["verify-paper", "--samples", "24", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["overall"] == "pass"
        statuses = {c["check_id"]: c["status"] for c in payload["checks"]}
        assert statuses["curvature-block R(U,V)W as-printed"] == "info"
        assert statuses["mixed-ricci-sign"] == "info"

    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify-paper", "--samples", "16", "--report", str(a)]) == 0
        assert main(["verify-paper", "--samples", "16", "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == verify_paper(RunConfig(samples=16)).to_json() + "\n"

    def test_seed_changes_points_not_verdicts(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify-paper", "--samples", "16", "--report", str(a)])
        main(["verify-paper", "--samples", "16", "--seed", "7", "--report", str(b)])
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        assert a.read_bytes() != b.read_bytes()
        assert [c["status"] for c in pa["checks"]] == [c["status"] for c in pb["checks"]]

    @pytest.mark.parametrize("samples", [1, 8])
    def test_few_samples_keep_every_verdict(self, samples):
        # in dimension 2 only the spread of kappa over 16 points tells the bumpy sphere apart
        assert verify_paper(RunConfig(samples=samples)).counts() == (58, 0, 11)

    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_fixtures():
            raise AssertionError("fixtures built before the seed was checked")

        monkeypatch.setattr("dualgeo.fixtures.Fixtures", no_fixtures)
        report = tmp_path / "r.json"
        assert main(["verify-paper", "--seed", "-1", "--report", str(report)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not report.exists()

    def test_impossible_tolerance_fails_honestly(self, capsys, monkeypatch):
        row = CHECKS["curvature-duality"]
        monkeypatch.setitem(CHECKS, "curvature-duality", dataclasses.replace(row, default=1e-30))
        code = main(["verify-paper", "--samples", "8"])
        assert code == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.endswith("  fail")]
        assert len(failed) == 1 and failed[0].startswith("curvature-duality ")
