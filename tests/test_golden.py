"""Golden values of one small synth -> tag -> eval -> report run.

The fixture was recorded from the per-mode, per-pair metric code, before the
metrics moved to array kernels, on a T_INTERSECTION map (seed 0, n=6), the
map kind the pipeline benchmark does not cover. Tags, report ranks, triad
flags and the metrics that must not drift (DAC, ATT, DAO, minADE, minASD)
compare exactly; the others within ``REL_TOL``.

Re-record only for a stated change of the metric definitions:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from criteria.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden_t_intersection.json"
MODELS = ("const_vel", "lane_fan", "noisy")
EXACT = ("DAC", "ATT", "DAO", "minADE", "minASD")
REL_TOL = 1e-12


def run_pipeline(root: Path) -> dict:
    """Run the four CLI stages under ``root``; return what the fixture holds."""
    data, out = root / "data", root / "out"
    assert main(["synth", "--kind", "T_INTERSECTION", "--n", "6", "--seed", "0",
                 "--out", str(data)]) == EXIT_OK
    common = ["--scenarios", str(data / "scenarios.json"),
              "--maps", str(data / "map.json")]
    preds = [str(data / f"predictions_{m}.json") for m in MODELS]
    tags = out / "tags.json"
    assert main(["tag", *common, "--predictions", *preds,
                 "--out", str(tags)]) == EXIT_OK
    metrics = {}
    for model, pred in zip(MODELS, preds):
        path = out / f"metrics_{model}.json"
        assert main(["eval", *common, "--predictions", pred, "--tags", str(tags),
                     "--out", str(path)]) == EXIT_OK
        metrics[model] = json.loads(path.read_text())["per_scenario"]
    assert main(["report", "--metrics",
                 *(str(out / f"metrics_{m}.json") for m in MODELS),
                 "--out", str(out / "report"), "--balance", "aae"]) == EXIT_OK
    report = json.loads((out / "report" / "report.json").read_text())
    return {
        "tags": json.loads(tags.read_text())["tags"],
        "ranks": report["overall_ranks"],
        "metrics": metrics,
    }


def test_pipeline_matches_golden_values(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_pipeline(tmp_path)
    assert got["tags"] == golden["tags"]
    assert got["ranks"] == golden["ranks"]
    assert got["metrics"].keys() == golden["metrics"].keys()
    for model, per_scenario in golden["metrics"].items():
        assert got["metrics"][model].keys() == per_scenario.keys()
        for sid, want in per_scenario.items():
            have = got["metrics"][model][sid]
            assert have.keys() == want.keys()
            assert have["triad"] == want["triad"], (model, sid)
            for name, value in want.items():
                if name == "triad":
                    continue
                if name in EXACT:
                    assert have[name] == value, (model, sid, name)
                else:
                    assert math.isclose(have[name], value, rel_tol=REL_TOL), (
                        model, sid, name, have[name], value)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        doc = run_pipeline(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
