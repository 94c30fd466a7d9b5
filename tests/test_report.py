import csv
import io as stdio
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from criteria.io import RunConfig
from criteria.bench import (
    METRIC_NAMES,
    EvaluationRun,
    ScenarioResult,
    WeightConfig,
    aggregate,
)
from criteria.metrics import TriadResult
from criteria.report import (
    BLOCKS,
    block_means,
    build_report,
    collect_block_tables,
    render_balance_csv,
    render_balance_svg,
    render_csv,
    render_markdown,
)
from criteria.scenario import (
    Difficulty,
    LengthClass,
    ScenarioTag,
    Structure,
)


def result(offset=0.0):
    values = {name: 1.0 + offset + 0.1 * i for i, name in enumerate(METRIC_NAMES)}
    triad = TriadResult(
        boundary_pass=(True,), alignment_pass=(True,), kinematic_pass=(True,)
    )
    return ScenarioResult(values=values, triad=triad)


def run_and_tags(name="m", n=4, offset=0.0):
    per = {f"s{i}": result(offset + i) for i in range(n)}
    tags = {
        f"s{i}": ScenarioTag(
            structure=Structure.TURN if i % 2 else Structure.CRUISING,
            difficulty=Difficulty.EASY,
            length=LengthClass.LONG if i < 2 else LengthClass.SHORT,
        )
        for i in range(n)
    }
    return EvaluationRun(name, per, RunConfig()), tags


def summaries(*runs):
    """Each run's ``aggregate`` report and ``block_means``, as ``report``
    computes them."""
    return [(aggregate(run, tags, WeightConfig()), block_means(run, tags))
            for run, tags in runs]


class TestBlockMeans:
    def test_pools_difficulties(self):
        run, tags = run_and_tags()
        means = block_means(run, tags)
        assert set(means) <= set(BLOCKS)
        # s0 (CRUISING/LONG) stands alone in its block
        for name in METRIC_NAMES:
            assert means["CRUISING/LONG"][name] == run.per_scenario["s0"].values[name]

    def test_mean_arithmetic(self):
        run, tags = run_and_tags(n=4)
        # put s1 and s3 in the same TURN/LONG block
        tags["s3"] = ScenarioTag(Structure.TURN, Difficulty.HARD, LengthClass.LONG)
        means = block_means(run, tags)
        want = np.mean([
            run.per_scenario["s1"].values["minADE"],
            run.per_scenario["s3"].values["minADE"],
        ])
        assert means["TURN/LONG"]["minADE"] == pytest.approx(want)


class TestRenderCsv:
    def test_parses_and_ranks(self):
        run_a, tags = run_and_tags("a")
        run_b, _ = run_and_tags("b", offset=1.0)
        tables = collect_block_tables(summaries((run_a, tags), (run_b, tags)))
        text = render_csv(tables["OVERALL"])
        rows = list(csv.DictReader(stdio.StringIO(text)))
        assert [r["model"] for r in rows] == ["a", "b"]
        # lower minADE wins, higher AAE wins
        assert rows[0]["minADE_rank"] == "1" and rows[1]["minADE_rank"] == "2"
        assert rows[0]["AAE_rank"] == "2" and rows[1]["AAE_rank"] == "1"

    def test_overall_table_first(self):
        run, tags = run_and_tags()
        tables = collect_block_tables(summaries((run, tags)))
        assert list(tables)[0] == "OVERALL"
        assert all(b in BLOCKS for b in list(tables)[1:])


class TestRenderMarkdown:
    def test_header_and_rows(self):
        run, tags = run_and_tags()
        tables = collect_block_tables(summaries((run, tags)))
        md = render_markdown("OVERALL", tables["OVERALL"])
        lines = md.splitlines()
        assert lines[0] == "## OVERALL"
        assert lines[2].startswith("| Model |")
        assert sum(1 for l in lines if l.startswith("| m |")) == 1
        assert "(1)" in md


class TestBuildReport:
    def test_document_shape(self):
        run_a, tags = run_and_tags("a")
        run_b, _ = run_and_tags("b", offset=1.0)
        doc = build_report(summaries((run_a, tags), (run_b, tags)))
        assert set(doc["models"]) == {"a", "b"}
        assert set(doc["overall_ranks"]) == set(METRIC_NAMES)
        assert doc["overall_ranks"]["minADE"] == {"a": 1, "b": 2}
        assert set(doc["blocks"]["a"]) <= set(BLOCKS)


    def test_shared_summaries_change_nothing(self):
        """``report`` aggregates each run once and hands the results to both
        builders, which then agree on every overall and block mean."""
        shared = summaries(run_and_tags("a"), run_and_tags("b", offset=0.5))
        doc, tables = build_report(shared), collect_block_tables(shared)
        for rep, blocks in shared:
            model = rep.model_name
            assert doc["models"][model]["overall"] == tables["OVERALL"][model]
            assert doc["blocks"][model] == blocks
            for block, means in blocks.items():
                assert tables[block][model] == means


class TestBalanceRendering:
    ROWS = [("a", 5.0, 0.9, 1.2), ("b", 2.0, 0.95, 0.8)]

    def test_csv(self):
        text = render_balance_csv(self.ROWS, "AAE")
        rows = list(csv.DictReader(stdio.StringIO(text)))
        assert rows[0]["model"] == "a"
        assert float(rows[1]["ATT"]) == pytest.approx(0.95)

    def test_svg_well_formed(self):
        svg = render_balance_svg(self.ROWS, "AAE")
        root = ET.fromstring(svg)
        tag = root.tag.split("}")[-1]
        assert tag == "svg"
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == 2

    def test_svg_empty_rows(self):
        root = ET.fromstring(render_balance_svg([], "AMV"))
        assert not [el for el in root.iter() if el.tag.endswith("circle")]
