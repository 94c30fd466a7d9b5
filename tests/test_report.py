import csv
import io as stdio
import itertools
import xml.etree.ElementTree as ET
import xml.sax.saxutils

import pytest
from hypothesis import example, given, strategies as st

from criteria.io import RunConfig
from criteria.bench import (
    BLOCK_AXES,
    METRIC_NAMES,
    EvaluationRun,
    ScenarioResult,
    WeightConfig,
    aggregate,
    level_means,
)
from criteria import report
from criteria.metrics import TriadResult
from criteria.report import (
    BLOCKS,
    build_report,
    collect_block_tables,
    render_balance_csv,
    render_balance_svg,
    render_csv,
    render_markdown,
)
from criteria.scenario import (
    AXES,
    Difficulty,
    LengthClass,
    ScenarioTag,
    Structure,
    level_keys,
)

from conftest import reference_mean


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


def reports(*runs):
    """Each run's ``aggregate`` report, as ``report`` computes it."""
    return [aggregate(run, tags, WeightConfig()) for run, tags in runs]


TAGS = st.builds(ScenarioTag, st.sampled_from(Structure),
                 st.sampled_from(Difficulty), st.sampled_from(LengthClass))
VALUES = st.lists(st.floats(-1e6, 1e6), min_size=len(METRIC_NAMES),
                  max_size=len(METRIC_NAMES))


class TestBlockMeans:
    def test_pools_difficulties(self):
        run, tags = run_and_tags()
        means = aggregate(run, tags).per_block
        assert set(means) <= set(BLOCKS)
        # s0 (CRUISING/LONG) stands alone in its block
        for name in METRIC_NAMES:
            assert means["CRUISING/LONG"][name] == run.per_scenario["s0"].values[name]

    def test_mean_arithmetic(self):
        run, tags = run_and_tags(n=4)
        # put s1 and s3 in the same TURN/LONG block
        tags["s3"] = ScenarioTag(Structure.TURN, Difficulty.HARD, LengthClass.LONG)
        means = aggregate(run, tags).per_block
        want = (run.per_scenario["s1"].values["minADE"]
                + run.per_scenario["s3"].values["minADE"]) / 2
        assert means["TURN/LONG"]["minADE"] == pytest.approx(want)


LEVELS = {"category": tuple(AXES), "block": BLOCK_AXES,
          "difficulty": ("difficulty",)}
ONE_HARD_LONG_TURN = [(ScenarioTag(Structure.TURN, Difficulty.HARD, LengthClass.LONG),
                       [0.1 * i for i in range(len(METRIC_NAMES))])]


class TestPerBlock:
    @given(st.sampled_from(list(LEVELS)),
           st.lists(st.tuples(TAGS, VALUES), min_size=1, max_size=12))
    @example("category", ONE_HARD_LONG_TURN)
    @example("block", ONE_HARD_LONG_TURN)
    @example("difficulty", ONE_HARD_LONG_TURN)
    def test_matches_a_plain_loop(self, level, drawn):
        """A level's means pool the axes it leaves out; a key with no
        scenario is absent, and keys come in the order first seen. Compared
        exactly with one filtering loop per combination of the level's
        values, and so are the category and block means of ``aggregate``."""
        run, tags = EvaluationRun("m", {}, RunConfig()), {}
        for i, (tag, values) in enumerate(drawn):
            run.per_scenario[f"s{i:02d}"] = ScenarioResult(
                dict(zip(METRIC_NAMES, values)), result().triad)
            tags[f"s{i:02d}"] = tag
        axes = LEVELS[level]
        want, first_seen = {}, {}
        for combo in itertools.product(*(AXES[axis] for axis in axes)):
            members = [
                (i, r) for i, (sid, r) in enumerate(run.per_scenario.items())
                if all(getattr(tags[sid], axis) is value
                       for axis, value in zip(axes, combo))
            ]
            if members:
                key = "/".join(value.value for value in combo)
                want[key] = {
                    name: reference_mean([r.values[name] for _, r in members])
                    for name in METRIC_NAMES
                }
                first_seen[key] = members[0][0]
        got = level_means(run, tags, axes)
        assert got == want
        assert list(got) == sorted(want, key=first_seen.get)
        rep = aggregate(run, tags)
        if level == "category":
            assert rep.per_category == want
            assert list(rep.per_category) == sorted(want)
        if level == "block":
            assert rep.per_block == want


class TestLevelKeys:
    def test_blocks_in_table_order(self):
        assert BLOCKS == ["TURN/SHORT", "TURN/LONG", "CRUISING/SHORT",
                          "CRUISING/LONG"]

    def test_the_twelve_categories(self):
        assert level_keys() == [
            "TURN/HARD/SHORT", "TURN/HARD/LONG", "TURN/MIDDLE/SHORT",
            "TURN/MIDDLE/LONG", "TURN/EASY/SHORT", "TURN/EASY/LONG",
            "CRUISING/HARD/SHORT", "CRUISING/HARD/LONG", "CRUISING/MIDDLE/SHORT",
            "CRUISING/MIDDLE/LONG", "CRUISING/EASY/SHORT", "CRUISING/EASY/LONG",
        ]


class TestRenderCsv:
    def test_parses_and_ranks(self):
        run_a, tags = run_and_tags("a")
        run_b, _ = run_and_tags("b", offset=1.0)
        tables = collect_block_tables(reports((run_a, tags), (run_b, tags)))
        text = render_csv(tables["OVERALL"])
        rows = list(csv.DictReader(stdio.StringIO(text)))
        assert [r["model"] for r in rows] == ["a", "b"]
        # lower minADE wins, higher AAE wins
        assert rows[0]["minADE_rank"] == "1" and rows[1]["minADE_rank"] == "2"
        assert rows[0]["AAE_rank"] == "2" and rows[1]["AAE_rank"] == "1"

    def test_overall_table_first(self):
        run, tags = run_and_tags()
        tables = collect_block_tables(reports((run, tags)))
        assert list(tables)[0] == "OVERALL"
        assert all(b in BLOCKS for b in list(tables)[1:])


class TestRenderMarkdown:
    def test_header_and_rows(self):
        run, tags = run_and_tags()
        tables = collect_block_tables(reports((run, tags)))
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
        doc = build_report(reports((run_a, tags), (run_b, tags)))
        assert set(doc["models"]) == {"a", "b"}
        assert set(doc["overall_ranks"]) == set(METRIC_NAMES)
        assert doc["overall_ranks"]["minADE"] == {"a": 1, "b": 2}
        assert set(doc["blocks"]["a"]) <= set(BLOCKS)


    def test_shared_summaries_change_nothing(self):
        """``report`` aggregates each run once and hands the results to both
        builders, which then agree on every overall and block mean."""
        shared = reports(run_and_tags("a"), run_and_tags("b", offset=0.5))
        doc, tables = build_report(shared), collect_block_tables(shared)
        for rep in shared:
            model = rep.model_name
            assert doc["models"][model]["overall"] == tables["OVERALL"][model]
            assert doc["blocks"][model] == rep.per_block
            for block, means in rep.per_block.items():
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


class TestModelNamesAreEscaped:
    """A model name is data: markup, commas, quotes and bars in it stay
    inside its own field of every rendered file."""

    NAMES = ["a<b & c", "x,y", 'q"|r']
    ROWS = [(name, 1.0 + i, 0.9, 1.2) for i, name in enumerate(NAMES)]

    @given(st.text())
    def test_svg_text_is_escaped_as_saxutils_escapes_it(self, text):
        assert report._xml_text(text) == xml.sax.saxutils.escape(text)

    def test_svg_parses_and_labels_each_model(self):
        root = ET.fromstring(render_balance_svg(self.ROWS, "AAE"))
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert labels == ["AAE", "ATT", *self.NAMES]

    def test_balance_csv_has_four_fields_per_row(self):
        text = render_balance_csv(self.ROWS, "AAE")
        rows = list(csv.reader(stdio.StringIO(text)))
        assert [len(row) for row in rows] == [4] * (len(self.NAMES) + 1)
        assert [row[0] for row in rows[1:]] == self.NAMES

    def test_table_csv_has_one_field_per_column(self):
        runs = [run_and_tags(name, offset=i) for i, name in enumerate(self.NAMES)]
        text = render_csv(collect_block_tables(reports(*runs))["OVERALL"])
        rows = list(csv.reader(stdio.StringIO(text)))
        assert [len(row) for row in rows] == [1 + 2 * len(METRIC_NAMES)] * len(rows)
        assert sorted(row[0] for row in rows[1:]) == sorted(self.NAMES)

    def test_markdown_bar_is_escaped(self):
        run, tags = run_and_tags("a|b")
        tables = collect_block_tables(reports((run, tags)))
        md = render_markdown("OVERALL", tables["OVERALL"])
        row = next(line for line in md.splitlines() if line.startswith("| a"))
        assert row.startswith("| a\\|b | ")
        assert len(row.replace("\\|", "").split("|")) == len(METRIC_NAMES) + 3
