"""One run builds each array once, and each chart once.

The gate wraps ``geometry.one_batch`` during one warm ``verify_paper`` and
during one run of each spec command on ``specs/``.  A build of a kind that
the owner's stream already holds on a shorter row-prefix is a second build
of that kind on one stream: reading the larger batch first would have made
the smaller read a slice.  Charts are counted as ``ManifoldSpec``s built,
against the distinct ones by name, coordinates, domain and metric source.
"""

import sys

import pytest

from dualgeo import geometry
from dualgeo.cli import LoadedProduct, load_spec, main
from dualgeo.exprlang import to_source
from dualgeo.geometry import ManifoldSpec
from dualgeo.report import RunConfig
from dualgeo.verify import verify_paper


class Recorder:
    """Second builds of a held kind, and every chart built, while installed."""

    def __init__(self, monkeypatch):
        self.rebuilds, self.charts = [], []
        original = geometry.one_batch

        def recording(owner, kind, x, build):
            key, last = (x.shape, x.tobytes()), owner._last_batch
            held = last is not None and kind in last[1] and (
                geometry._begins(key, last[0]) or geometry._begins(last[0], key))

            def counted(z):
                if held:
                    self.rebuilds.append((repr(owner), kind, x.shape))
                return build(z)
            return original(owner, kind, x, counted)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dualgeo")
                    and getattr(module, "one_batch", None) is original):
                monkeypatch.setattr(module, "one_batch", recording)
        post_init = ManifoldSpec.__post_init__

        def recorded(chart):
            post_init(chart)
            self.charts.append((chart.name, chart.coords, chart.domain,
                                tuple(to_source(e) for row in chart.metric for e in row)))
        monkeypatch.setattr(ManifoldSpec, "__post_init__", recorded)

    def check(self):
        assert self.rebuilds == []
        assert len(self.charts) == len(set(self.charts))
        self.rebuilds.clear()
        self.charts.clear()


@pytest.mark.parametrize("seed", [42, 3])
def test_verify_paper_builds_each_array_and_chart_once(monkeypatch, seed):
    # the suite is validated at the run's seed: make_dualistic's default 42, and 3
    verify_paper(RunConfig(seed=seed))
    recorder = Recorder(monkeypatch)
    verify_paper(RunConfig(seed=seed))
    assert len(recorder.charts) > 20
    recorder.check()


def test_spec_commands_build_each_array_and_chart_once(monkeypatch, spec_dir, capsys):
    recorder = Recorder(monkeypatch)
    for spec in sorted(spec_dir.glob("*.json")):
        product = isinstance(load_spec(str(spec)), LoadedProduct)
        recorder.check()
        for command in (("twist", "flatness") if product else ("check", "conjugate", "curvature")):
            main([command, str(spec)])
            assert recorder.charts, (command, spec.name)
            recorder.check()
    capsys.readouterr()
