"""``dualgeo.cli.main`` builds the parser of the command it runs, and only that one.

Help, an unknown command and every usage error still come from the full
parser (``build_parser``), word for word; a valid command is parsed by its
own parser alone, built afresh on each call, and runs the module-level
``cmd_*`` handler that ``main`` finds when it runs.
"""

import argparse

import pytest

from dualgeo import cli
from dualgeo.cli import build_parser, main
from dualgeo.report import RunConfig

COMMAND_NAMES = ("check", "conjugate", "curvature", "twist", "flatness", "verify-paper")


def outcome(call, capsys):
    """(exit code, stdout, stderr) of ``call``, which may exit through SystemExit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


USAGE_ARGVS = [
    [], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "s.json"], ["--seed", "1", "check"],
    *([name, "-h"] for name in COMMAND_NAMES),
    ["check"], ["flatness"], ["conjugate", "--point", "1"],
    ["check", "s.json", "--point", "1"], ["check", "s.json", "--samples", "x"],
    ["curvature", "s.json", "--samples", "4"], ["verify-paper", "s.json"],
    ["verify-paper", "--tol-fd", "small"], ["check", "a.json", "b.json"],
    ["twist", "--base"], ["twist", "--base", "b.json", "--fiber"],
    ["twist", "--base", "b.json", "--fiber", "f.json", "--twist", "exp(x)", "--weyl"],
    ["twist", "--base", "b.json", "--fiber", "f.json", "--twist", "exp(x)", "--point", "1"],
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "<none>")
def test_usage_output_is_the_full_parsers(argv, capsys):
    expected = outcome(lambda: build_parser().parse_args(argv), capsys)
    assert expected[0] in (0, 2)  # every case ends in the parser
    assert outcome(lambda: main(argv), capsys) == expected


VALID_ARGVS = [
    ["check", "{specs}/sphere2.json"],
    ["conjugate", "{specs}/line_pair.json", "--point", "0.5"],
    ["curvature", "{specs}/sphere2.json"],
    ["twist", "{specs}/twisted_xu.json"],
    ["twist", "--base", "{specs}/line.json", "--fiber", "{specs}/sphere2.json",
     "--twist", "exp(x)"],
    ["flatness", "{specs}/flat_dual_product.json"],
    ["verify-paper"],
]


@pytest.fixture
def built(monkeypatch):
    """The ``prog`` of every ArgumentParser constructed while the test runs."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return progs


@pytest.mark.parametrize("argv", VALID_ARGVS,
                         ids=lambda argv: " ".join(argv[:2]).replace("{specs}/", ""))
def test_a_valid_command_builds_only_its_own_parser(spec_dir, built, capsys, argv):
    samples = [] if argv[0] == "curvature" else ["--samples", "8"]
    code = main([a.format(specs=spec_dir) for a in argv] + samples)
    assert code == 0, capsys.readouterr()
    assert built == [f"dualgeo {argv[0]}"]


def test_no_parser_outlives_its_call(spec_dir, built, capsys):
    argv = ["curvature", str(spec_dir / "sphere2.json")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert built == ["dualgeo curvature"] * 2


@pytest.mark.parametrize("handler, argv", [
    ("cmd_check", ["check", "sphere2.json", "--seed", "5"]),
    ("cmd_twist", ["twist", "twisted_xu.json", "--seed", "5"]),
])
def test_main_runs_the_handler_bound_when_it_runs(spec_dir, monkeypatch, handler, argv):
    """A rebound ``cli.cmd_*`` (as the traced benchmark rebinds them) is the one called."""
    calls = []
    monkeypatch.setattr(cli, handler, lambda loaded, config: calls.append((loaded, config)) or 0)
    assert main([argv[0], str(spec_dir / argv[1])] + argv[2:]) == 0
    assert len(calls) == 1
    loaded, config = calls[0]
    assert loaded.digest and config == RunConfig(seed=5)
