"""Self-test of the tracer: self-time arithmetic and patch restoration.

Run from the repository root:

    python3 perfbench/test_tracer.py
"""

from __future__ import annotations

import shutil
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import layers
import run
from tracer import Tracer


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
        tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        root = tr.begin("root")
        a = tr.begin("a")
        a1 = tr.begin("a1")
        tr.end(a1)
        tr.end(a)
        b = tr.begin("b")
        tr.end(b)
        tr.end(root)
        self.assertEqual(tr.parents, [-1, root, a, root])
        self.assertEqual(tr.self_times(), {"root": 3, "a": 2, "a1": 1, "b": 4})

    def test_same_name_spans_sum(self):
        tr = Tracer(clock=FakeClock([0, 1, 2, 4, 6, 10]))
        with tr.span("outer"):
            with tr.span("leaf"):
                pass
            with tr.span("leaf"):
                pass
        self.assertEqual(tr.self_times(), {"outer": 7, "leaf": 3})
        self.assertEqual(tr.calls(), {"outer": 1, "leaf": 2})

    def test_span_closes_when_the_call_raises(self):
        def boom():
            raise KeyError("x")

        box = SimpleNamespace(boom=boom)
        tr = Tracer()
        tr.patch(box, "boom", "box.boom")
        with self.assertRaises(KeyError):
            box.boom()
        tr.restore()
        self.assertIs(box.boom, boom)
        self.assertEqual(tr.calls(), {"box.boom": 1})
        self.assertGreaterEqual(tr.self_times()["box.boom"], 0.0)


def namespace(obj) -> dict:
    return dict(vars(obj))


class RestoreTest(unittest.TestCase):
    def test_traced_pipeline_restores_every_patched_name(self):
        wl = dict(kind="STRAIGHT", n=1, k=3, models=run.SYNTH_MODELS)
        work_root = run.ROOT / ".perfbench_work"
        work_root.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
        try:
            crit, _ = run.setup_once(wl, 0, work / "fx")
            owners = [getattr(crit, m) for m in run.MODULES]
            owners += [crit.map_model.RoadMap, crit.geom.GridIndex]
            before = [namespace(o) for o in owners]

            tr = Tracer()
            layers.install(tr, crit)
            try:
                self.assertNotEqual([namespace(o) for o in owners], before)
                _, codes, _ = run.pipeline(crit, wl, work / "fx", work / "out", tr)
            finally:
                tr.restore()

            self.assertTrue(all(c == [0] for c in codes.values()), codes)
            self.assertEqual([namespace(o) for o in owners], before)
            spans = set(tr.calls())
            self.assertTrue({"metrics.dao", "geom.points_in_polygon",
                             "scenario.tag_structure", "report.render",
                             "cli.tag", "cli.eval", "cli.report"} <= spans)
            # every hook is placed where the pipeline actually calls it
            summary = layers.summarize(tr, len(wl["models"]), wl["k"])
            idle = [m for m, v in summary.items() if m.endswith("ms") and v <= 0]
            self.assertEqual(idle, [])
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work_root.rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
