"""The benchmark's tracer hooks name only what ``criteria`` defines.

``perfbench/layers.py`` wraps the package's functions by name, and the tracer
reads each one as ``vars(owner)[attr]``, so a renamed or deleted function
makes ``install`` fail. Both files are loaded by path and the hooks are
installed on the modules already imported here, then restored; nothing is
re-imported and no pipeline runs.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from criteria import bench, cli, geom, io, map_model, metrics, report, scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_name_and_restore_puts_it_back():
    layers, tracer = _load("layers"), _load("tracer")
    crit = SimpleNamespace(bench=bench, cli=cli, geom=geom, io=io,
                           map_model=map_model, metrics=metrics, report=report,
                           scenario=scenario)
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
