"""Result rendering: metric tables, predicate frequency charts, heatmaps.

All SVG output is built from strings with fixed formatting, so rendering the
same inputs twice yields byte-identical files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping
from xml.sax.saxutils import escape

from .artifacts import write_json, write_text
from .evaluation import Metrics, PredicateDistribution
from .prompting import PromptVariant

__all__ = [
    "VARIANT_ORDER",
    "metrics_table",
    "parse_metrics_csv",
    "frequency_chart",
    "HeatmapSpec",
    "heatmap_spec_from_distributions",
    "heatmap",
    "write_report_bundle",
]

VARIANT_ORDER = tuple(variant.value for variant in PromptVariant)

# the table's rows: each mode's title, then one row per metric under it
_MODE_TITLES = {"exact": "Exact match", "semantic": "Semantic match"}
_METRIC_LABELS = {"precision": "Precision", "recall": "Recall", "f1": "F1"}


def _ordered_variants(results: Mapping[str, object]) -> list[str]:
    known = [v for v in VARIANT_ORDER if v in results]
    extra = [v for v in results if v not in VARIANT_ORDER]
    return known + extra


def metrics_table(results: Mapping[str, Mapping[str, Metrics]]) -> tuple[str, str]:
    """Render exact and semantic P/R/F1 per variant.

    ``results`` maps variant name to ``{"exact": Metrics, "semantic": Metrics}``.
    Returns ``(csv_text, aligned_text)``; every value is printed with two
    decimals, and parsing the CSV back recovers exactly those values.
    """
    variants = _ordered_variants(results)
    if not variants:
        raise ValueError("metrics_table requires at least one variant")

    col_width = max(8, *(len(v) for v in variants))
    label_width = max(
        *(len(title) for title in _MODE_TITLES.values()),
        *(len("  " + label) for label in _METRIC_LABELS.values()),
    )
    csv_lines = ["metric," + ",".join(variants)]
    lines = [" " * label_width + "  " + "  ".join(v.rjust(col_width) for v in variants)]
    for mode, title in _MODE_TITLES.items():
        lines.append(title)
        for metric, label in _METRIC_LABELS.items():
            cells = [f"{getattr(results[v][mode], metric):.2f}" for v in variants]
            csv_lines.append(f"{mode}_{metric}," + ",".join(cells))
            aligned = "  ".join(cell.rjust(col_width) for cell in cells)
            lines.append(f"{('  ' + label).ljust(label_width)}  {aligned}")
    return "\n".join(csv_lines) + "\n", "\n".join(lines) + "\n"


def parse_metrics_csv(csv_text: str) -> dict[str, dict[str, Metrics]]:
    """Inverse of the CSV half of :func:`metrics_table` (2-decimal values)."""
    lines = [line for line in csv_text.splitlines() if line.strip()]
    variants = lines[0].split(",")[1:]
    rows: dict[str, dict[str, float]] = {}
    for line in lines[1:]:
        name, *cells = line.split(",")
        rows[name] = dict(zip(variants, map(float, cells)))
    return {
        variant: {
            mode: Metrics(**{m: rows[f"{mode}_{m}"][variant] for m in _METRIC_LABELS})
            for mode in _MODE_TITLES
        }
        for variant in variants
    }


# ---------------------------------------------------------------------------
# SVG helpers
# ---------------------------------------------------------------------------


def _text(
    x: int, y: int, content: str, size: int = 12, fill: str = "#222", anchor: str = ""
) -> str:
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" fill="{fill}"{anchor_attr}>'
        f"{escape(content)}</text>"
    )


def _rect(x: int, y: int, width: int, height: int, fill: str, outlined: bool = False) -> str:
    outline = ' stroke="#cccccc" stroke-width="1"' if outlined else ""
    return f'<rect x="{x}" y="{y}" width="{width}" height="{height}" fill="{fill}"{outline}/>'


def _svg(width: int, height: int, title: str, title_at: tuple[int, int], body: list[str]) -> str:
    """A white canvas holding ``body``, under a 16-point title when one is given."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(_text(*title_at, title, size=16))
    return "\n".join([*parts, *body, "</svg>"]) + "\n"


def frequency_chart(distribution: PredicateDistribution, top_k: int, title: str = "") -> str:
    """Horizontal bar chart of predicate frequencies, sorted descending.

    Shows at most ``top_k`` bars; any remaining predicates fold into a final
    ``other (n predicates)`` bar. Raises on an empty distribution.
    """
    if distribution.total == 0 or not distribution.counts:
        raise ValueError("frequency_chart requires a non-empty distribution")
    ranked = sorted(distribution.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    shown = ranked[:top_k]
    folded = ranked[top_k:]
    rows: list[tuple[str, int]] = list(shown)
    if folded:
        rows.append((f"other ({len(folded)} predicates)", sum(c for _, c in folded)))

    bar_height, gap, top = 22, 6, 40 if title else 16
    label_width = 10 + max(len(label) for label, _ in rows) * 7
    chart_width = 420
    width = label_width + chart_width + 70
    height = top + len(rows) * (bar_height + gap) + 10
    max_count = max(count for _, count in rows)

    body = []
    for i, (label, count) in enumerate(rows):
        y = top + i * (bar_height + gap)
        bar = max(int(round(chart_width * count / max_count)), 1) if max_count else 1
        body += [
            _text(label_width - 6, y + 15, label, anchor="end"),
            _rect(label_width, y, bar, bar_height, "#4a6fa5"),
            _text(label_width + bar + 6, y + 15, str(count)),
        ]
    return _svg(width, height, title, (10, 24), body)


@dataclass(frozen=True)
class HeatmapSpec:
    """Grid data for :func:`heatmap`: rows x columns of relative frequencies."""

    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]
    column_remainders: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.rows):
            raise ValueError("cell row count does not match row labels")
        for row in self.cells:
            if len(row) != len(self.columns):
                raise ValueError("cell column count does not match column labels")
        for j in range(len(self.columns)):
            column_sum = sum(row[j] for row in self.cells)
            if column_sum > 1.0 + 1e-9:
                raise ValueError(f"column {j} sums to {column_sum}, above 1")


def heatmap_spec_from_distributions(
    distributions: Mapping[str, PredicateDistribution], top_k: int
) -> HeatmapSpec:
    """Rows are the overall top-k predicates, columns the given runs.

    Each cell is the predicate's relative frequency within its column's run,
    so a column sums to 1 minus the mass of its predicates outside the top-k;
    that remainder is reported per column.
    """
    if not distributions:
        raise ValueError("heatmap requires at least one distribution")
    columns = _ordered_variants(distributions)
    combined: Counter[str] = Counter()
    for dist in distributions.values():
        combined.update(dist.counts)
    ranked = sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    rows = tuple(predicate for predicate, _ in ranked)
    cells = []
    for predicate in rows:
        row = []
        for column in columns:
            dist = distributions[column]
            row.append(dist.counts.get(predicate, 0) / dist.total if dist.total else 0.0)
        cells.append(tuple(row))
    remainders = tuple(
        round(1.0 - sum(row[j] for row in cells), 10) if distributions[c].total else 0.0
        for j, c in enumerate(columns)
    )
    return HeatmapSpec(
        rows=rows, columns=tuple(columns), cells=tuple(cells), column_remainders=remainders
    )


def _cell_fill(value: float, max_value: float) -> str:
    intensity = value / max_value if max_value > 0 else 0.0
    shade = int(round(245 - 205 * intensity))
    return f"rgb({shade},{shade},{shade})"


def heatmap(spec: HeatmapSpec, title: str = "") -> str:
    """Monochrome heatmap; darker means higher relative frequency."""
    cell_w, cell_h = 96, 24
    top = 64 if title else 40
    label_width = 16 + (max(len(r) for r in spec.rows) * 7 if spec.rows else 40)
    width = label_width + len(spec.columns) * cell_w + 40
    legend_height = 56 + (16 if spec.column_remainders else 0)
    height = top + len(spec.rows) * cell_h + legend_height
    max_value = max((v for row in spec.cells for v in row), default=0.0)
    centers = [label_width + j * cell_w + cell_w // 2 for j in range(len(spec.columns))]

    body = [_text(x, top - 8, c, anchor="middle") for x, c in zip(centers, spec.columns)]
    for i, row_label in enumerate(spec.rows):
        y = top + i * cell_h
        body.append(_text(label_width - 8, y + 16, row_label, anchor="end"))
        for j, value in enumerate(spec.cells[i]):
            fill = _cell_fill(value, max_value)
            body.append(_rect(label_width + j * cell_w, y, cell_w, cell_h, fill, outlined=True))
    base_y = top + len(spec.rows) * cell_h
    if spec.column_remainders:
        for x, remainder in zip(centers, spec.column_remainders):
            other = f"other: {remainder:.2f}"
            body.append(_text(x, base_y + 16, other, size=10, fill="#666", anchor="middle"))
        base_y += 16
    # legend: five swatches from zero to the maximum cell value
    body.append(_text(label_width, base_y + 24, "relative frequency: 0.00", size=11))
    swatch_x = label_width + 170
    for step in range(5):
        fill = _cell_fill(max_value * step / 4, max_value)
        body.append(_rect(swatch_x + step * 26, base_y + 12, 26, 16, fill, outlined=True))
    body.append(_text(swatch_x + 5 * 26 + 8, base_y + 24, f"{max_value:.2f}", size=11))
    return _svg(width, height, title, (12, 26), body)


def write_report_bundle(
    out_dir: str | Path,
    table_results: Mapping[str, Mapping[str, Metrics]],
    distributions: Mapping[str, PredicateDistribution],
    heatmap_spec: HeatmapSpec,
    frequency_top_k: int,
) -> list[Path]:
    """Write metrics.csv/.txt, per-variant frequency charts, heatmap.svg, report.json.

    A ``freq_*.svg`` in ``out_dir`` that this call did not write is deleted, so
    the directory holds the files ``report.json`` lists and no other chart.
    """
    out = Path(out_dir)
    csv_text, table_text = metrics_table(table_results)
    files = {"metrics.csv": csv_text, "metrics.txt": table_text}
    for variant, dist in distributions.items():
        if dist.total:
            files[f"freq_{variant}.svg"] = frequency_chart(
                dist, top_k=frequency_top_k, title=f"Predicate frequency: {variant}"
            )
    files["heatmap.svg"] = heatmap(heatmap_spec, title="Predicate frequency by run")
    for name, content in files.items():
        write_text(out / name, content)
    for stale in out.glob("freq_*.svg"):
        if stale.name not in files:
            stale.unlink()
    bundle = {
        "metrics": {
            variant: {
                mode: {metric: round(getattr(m, metric), 6) for metric in _METRIC_LABELS}
                for mode, m in modes.items()
            }
            for variant, modes in table_results.items()
        },
        "predicate_distributions": {
            variant: dict(sorted(dist.counts.items()))
            for variant, dist in distributions.items()
        },
        "heatmap": {
            "rows": list(heatmap_spec.rows),
            "columns": list(heatmap_spec.columns),
            "cells": [list(row) for row in heatmap_spec.cells],
            "column_remainders": list(heatmap_spec.column_remainders),
        },
        "files": sorted(files) + ["report.json"],
    }
    write_json(out / "report.json", bundle)
    return [out / name for name in [*files, "report.json"]]
