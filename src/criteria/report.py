"""Report rendering: per-block tables (CSV/Markdown), JSON summary, and the
diversity/admissibility balance chart (CSV + standalone SVG)."""

from __future__ import annotations

from typing import Mapping, Sequence

from .bench import METRIC_NAMES, EvaluationRun, MetricReport, rank
# not called here: perfbench/layers.py hooks ``report.aggregate`` by name
from .bench import aggregate  # noqa: F401
from .scenario import ScenarioTag, Structure, LengthClass

BLOCKS = [
    f"{s.value}/{l.value}"
    for s in (Structure.TURN, Structure.CRUISING)
    for l in (LengthClass.SHORT, LengthClass.LONG)
]


def block_means(
    run: EvaluationRun, tags: Mapping[str, ScenarioTag]
) -> dict[str, dict[str, float]]:
    """Metric means per structure/length block (difficulties pooled)."""
    grouped: dict[str, list] = {}
    for sid, result in run.per_scenario.items():
        tag = tags[sid]
        key = f"{tag.structure.value}/{tag.length.value}"
        grouped.setdefault(key, []).append(result)
    return {
        key: {
            name: sum(r.values[name] for r in results) / len(results)
            for name in METRIC_NAMES
        }
        for key, results in grouped.items()
    }


def _table_rows(
    per_model: Mapping[str, Mapping[str, float]]
) -> list[tuple[str, list[tuple[float, int]]]]:
    """Rows of (model, [(value, rank), ...]) over METRIC_NAMES columns."""
    ranks = {
        name: rank({m: vals[name] for m, vals in per_model.items()}, name)
        for name in METRIC_NAMES
    }
    return [
        (model, [(vals[name], ranks[name][model]) for name in METRIC_NAMES])
        for model, vals in sorted(per_model.items())
    ]


def render_markdown(title: str,
                    per_model: Mapping[str, Mapping[str, float]]) -> str:
    lines = [f"## {title}", ""]
    lines.append("| Model | " + " | ".join(METRIC_NAMES) + " |")
    lines.append("|---" * (len(METRIC_NAMES) + 1) + "|")
    for model, cells in _table_rows(per_model):
        rendered = [f"{v:.4f} ({r})" for v, r in cells]
        lines.append(f"| {model} | " + " | ".join(rendered) + " |")
    lines.append("")
    return "\n".join(lines)


def render_csv(per_model: Mapping[str, Mapping[str, float]]) -> str:
    header = ["model"]
    for name in METRIC_NAMES:
        header += [name, f"{name}_rank"]
    lines = [",".join(header)]
    for model, cells in _table_rows(per_model):
        row = [model]
        for v, r in cells:
            row += [f"{v:.6f}", str(r)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_balance_csv(rows: Sequence[tuple[str, float, float, float]],
                       diversity_metric: str) -> str:
    lines = [f"model,{diversity_metric},ATT,minFDE"]
    for model, div, att_v, fde in rows:
        lines.append(f"{model},{div:.6f},{att_v:.6f},{fde:.6f}")
    return "\n".join(lines) + "\n"


def render_balance_svg(rows: Sequence[tuple[str, float, float, float]],
                       diversity_metric: str) -> str:
    """Minimal scatter: x = diversity, y = ATT, circle radius ~ minFDE."""
    width, height, margin = 640, 480, 60
    if rows:
        xs = [r[1] for r in rows]
        ys = [r[2] for r in rows]
        fdes = [r[3] for r in rows]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        fde_hi = max(fdes) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{diversity_metric}</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height // 2})">ATT</text>',
    ]
    for model, div, att_v, fde in rows:
        cx = margin + (div - x_lo) / x_span * (width - 2 * margin)
        cy = height - margin - (att_v - y_lo) / y_span * (height - 2 * margin)
        radius = 5 + 20 * fde / fde_hi
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
            f'fill="steelblue" fill-opacity="0.6" stroke="black"/>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{cy - radius - 4:.2f}" '
            f'text-anchor="middle" font-size="12">{model}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_report(summaries: Sequence[tuple[MetricReport, dict]]) -> dict:
    """Assemble the JSON report document from each evaluated model's
    ``aggregate`` report and ``block_means``."""
    reports = [rep for rep, _ in summaries]
    blocks_per_model = {rep.model_name: blocks for rep, blocks in summaries}

    overall = {rep.model_name: rep.overall for rep in reports}
    overall_ranks = {
        name: rank({m: v[name] for m, v in overall.items() if name in v}, name)
        for name in METRIC_NAMES
    }
    doc = {
        "models": {
            rep.model_name: {
                "overall": rep.overall,
                "per_category": rep.per_category,
                "att_ablation": rep.att_ablation,
            }
            for rep in reports
        },
        "overall_ranks": overall_ranks,
        "blocks": blocks_per_model,
    }
    return doc


def collect_block_tables(
    summaries: Sequence[tuple[MetricReport, dict]]
) -> dict[str, dict[str, dict[str, float]]]:
    """Table name -> model -> metric means, for CSV/Markdown rendering, from
    the summaries ``build_report`` reads."""
    tables: dict[str, dict[str, dict[str, float]]] = {}
    overall: dict[str, dict[str, float]] = {}
    for rep, blocks in summaries:
        overall[rep.model_name] = rep.overall
        for block, means in blocks.items():
            tables.setdefault(block, {})[rep.model_name] = means
    out = {"OVERALL": overall}
    for block in BLOCKS:
        if block in tables:
            out[block] = tables[block]
    for block in sorted(tables):
        if block not in out:
            out[block] = tables[block]
    return out
