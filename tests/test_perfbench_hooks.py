"""The benchmark's tracer hooks name only what ``criteria`` defines, and a
pipeline still calls what they hook.

``perfbench/layers.py`` wraps the package's functions by name, and the tracer
reads each one as ``vars(owner)[attr]``, so a renamed or deleted function
makes ``install`` fail. A hooked function that nothing calls any more makes
its per-layer metrics read zero instead. Both files are loaded by path and
the hooks are installed on the modules already imported here, then
restored; nothing is re-imported.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from criteria import bench, cli, geom, io, map_model, metrics, report, scenario
from criteria.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _crit() -> SimpleNamespace:
    return SimpleNamespace(bench=bench, cli=cli, geom=geom, io=io,
                           map_model=map_model, metrics=metrics, report=report,
                           scenario=scenario)


def test_install_finds_every_name_and_restore_puts_it_back():
    layers, tracer = _load("layers"), _load("tracer")
    crit = _crit()
    owners = [*vars(crit).values(), map_model.RoadMap, geom.GridIndex]
    before = [dict(vars(owner)) for owner in owners]
    tr = tracer.Tracer()
    try:
        layers.install(tr, crit)
        patched = [
            (owner, name)
            for owner, names in zip(owners, before)
            for name, value in vars(owner).items()
            if names.get(name) is not value
        ]
    finally:
        tr.restore()
    assert len(patched) >= 40
    assert [dict(vars(owner)) for owner in owners] == before


# hooked functions that the pipeline below never calls: the grid index has no
# caller left in the package, the two single-ring kernels only phrase map
# errors, eval takes DAC from the triad, and report aggregates through cli
IDLE = {"GridIndex.min_distance", "GridIndex.query_radius",
        "geom.distance_to_ring", "geom.points_in_polygon", "metrics.dac",
        "report.aggregate"}
MODELS = ("const_vel", "lane_fan", "noisy")


def test_no_hooked_function_goes_idle(tmp_path):
    """synth -> tag -> eval of each model -> report on a CROSSROADS map calls
    every hooked function but the ``IDLE`` ones."""
    layers, tracer = _load("layers"), _load("tracer")

    class ByOwner(tracer.Tracer):
        """Names each span after the owner and attribute it wraps, and
        times the counted functions too."""

        def __init__(self):
            super().__init__()
            self.hooked = set()

        def patch(self, owner, attr, name, on_call=None):
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            self.hooked.add(name)
            super().patch(owner, attr, name, on_call)

        def patch_counter(self, owner, attr, counter):
            self.patch(owner, attr, counter)

    data, out = tmp_path / "data", tmp_path / "out"
    common = ["--scenarios", str(data / "scenarios.json"), "--maps", str(data / "map.json")]
    preds = [str(data / f"predictions_{m}.json") for m in MODELS]
    metrics_files = [str(out / f"metrics_{m}.json") for m in MODELS]
    tr = ByOwner()
    try:
        layers.install(tr, _crit())
        assert main(["synth", "--kind", "CROSSROADS", "--n", "3",
                     "--out", str(data)]) == EXIT_OK
        assert main(["tag", *common, "--predictions", *preds,
                     "--out", str(out / "tags.json")]) == EXIT_OK
        for pred, mfile in zip(preds, metrics_files):
            assert main(["eval", *common, "--predictions", pred,
                         "--tags", str(out / "tags.json"), "--out", mfile]) == EXIT_OK
        assert main(["report", "--metrics", *metrics_files, "--out",
                     str(out / "report"), "--balance", "aae"]) == EXIT_OK
    finally:
        tr.restore()
    assert tr.hooked - set(tr.names) == IDLE
