"""Report rendering: per-block tables (CSV/Markdown), JSON summary, and the
diversity/admissibility balance chart (CSV + standalone SVG)."""

from __future__ import annotations

import csv
from io import StringIO
from typing import Mapping, Sequence

from .bench import BLOCK_AXES, METRIC_NAMES, MetricReport, rank
# not called here: perfbench/layers.py hooks ``report.aggregate`` by name
from .bench import aggregate  # noqa: F401
from .scenario import level_keys

BLOCKS = level_keys(BLOCK_AXES)


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
        name = model.replace("|", "\\|")  # a bare bar would split the cell
        lines.append(f"| {name} | " + " | ".join(rendered) + " |")
    lines.append("")
    return "\n".join(lines)


def _csv(rows) -> str:
    """``rows`` as CSV, quoting a field that holds a comma or a quote."""
    out = StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def render_csv(per_model: Mapping[str, Mapping[str, float]]) -> str:
    header = ["model"]
    for name in METRIC_NAMES:
        header += [name, f"{name}_rank"]
    rows = [header]
    for model, cells in _table_rows(per_model):
        row = [model]
        for v, r in cells:
            row += [f"{v:.6f}", str(r)]
        rows.append(row)
    return _csv(rows)


def render_balance_csv(rows: Sequence[tuple[str, float, float, float]],
                       diversity_metric: str) -> str:
    return _csv([("model", diversity_metric, "ATT", "minFDE")] + [
        (model, f"{div:.6f}", f"{att_v:.6f}", f"{fde:.6f}")
        for model, div, att_v, fde in rows
    ])


def _xml_text(text: str) -> str:
    """``text`` escaped as ``xml.sax.saxutils.escape`` does, without that
    module's imports (``urllib.request``, ``ssl``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
            f'text-anchor="middle" font-size="12">{_xml_text(model)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_report(reports: Sequence[MetricReport]) -> dict:
    """Assemble the JSON report document from each evaluated model's
    ``aggregate`` report."""
    overall_ranks = {
        name: rank({rep.model_name: rep.overall[name] for rep in reports}, name)
        for name in METRIC_NAMES
    }
    return {
        "models": {
            rep.model_name: {
                "overall": rep.overall,
                "per_category": rep.per_category,
                "att_ablation": rep.att_ablation,
            }
            for rep in reports
        },
        "overall_ranks": overall_ranks,
        "blocks": {rep.model_name: rep.per_block for rep in reports},
    }


def collect_block_tables(
    reports: Sequence[MetricReport]
) -> dict[str, dict[str, dict[str, float]]]:
    """Table name -> model -> metric means, for CSV/Markdown rendering: the
    overall table, then one per structure/length block in ``BLOCKS`` order."""
    out = {"OVERALL": {rep.model_name: rep.overall for rep in reports}}
    for block in BLOCKS:
        per_model = {rep.model_name: rep.per_block[block]
                     for rep in reports if block in rep.per_block}
        if per_model:
            out[block] = per_model
    return out
