"""Plain-text rendering of the paper's tables and figure series.

The benchmark harness computes structured results (nested dictionaries);
these helpers format them as aligned text tables so the benchmarks can print
rows that read like the paper's Tables 2, 5, 6, 7, 8, 9 and the series
behind Figures 2–4.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

__all__ = [
    "format_table",
    "format_f1_table",
    "format_alignment_table",
    "format_time_table",
    "format_error_table",
    "format_ranking_series",
    "format_pareto_points",
    "format_upset",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table."""
    columns = [str(header) for header in headers]
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in rendered_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(column.ljust(widths[index]) for index, column in enumerate(columns)))
    lines.append("  ".join("-" * widths[index] for index in range(len(columns))))
    for row in rendered_rows:
        lines.append("  ".join(value.ljust(widths[index]) for index, value in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_f1_table(
    f1_table: Mapping[str, Mapping[str, Mapping[str, Mapping[str, float]]]],
    title: str = "",
) -> str:
    """``f1_table[dataset][method][model] -> {"f1_true", "f1_false"}``."""
    rows: List[List[object]] = []
    models: List[str] = []
    for dataset, methods in f1_table.items():
        for method, by_model in methods.items():
            if not models:
                models = sorted(by_model)
            row: List[object] = [dataset, method]
            for model in models:
                scores = by_model.get(model, {})
                row.append(scores.get("f1_true", 0.0))
                row.append(scores.get("f1_false", 0.0))
            rows.append(row)
    headers = ["dataset", "method"]
    for model in models:
        headers.extend([f"{model} F1(T)", f"{model} F1(F)"])
    return format_table(headers, rows, title)


def format_alignment_table(
    alignment_table: Mapping[str, Mapping[str, Mapping[str, float]]],
    tie_rates: Mapping[str, Mapping[str, float]],
    title: str = "",
) -> str:
    """``alignment_table[dataset][method][model] -> CA``; ``tie_rates[dataset][method]``."""
    rows: List[List[object]] = []
    models: List[str] = []
    for dataset, methods in alignment_table.items():
        for method, by_model in methods.items():
            if not models:
                models = sorted(by_model)
            row: List[object] = [dataset, method, f"{tie_rates[dataset][method] * 100:.0f}%"]
            row.extend(by_model.get(model, 0.0) for model in models)
            rows.append(row)
    headers = ["dataset", "method", "ties"] + models
    return format_table(headers, rows, title)


def format_time_table(
    time_table: Mapping[str, Mapping[str, Mapping[str, float]]],
    title: str = "",
) -> str:
    """``time_table[dataset][method][model] -> seconds``."""
    rows: List[List[object]] = []
    models: List[str] = []
    for dataset, methods in time_table.items():
        for method, by_model in methods.items():
            if not models:
                models = sorted(by_model)
            row: List[object] = [dataset, method]
            row.extend(by_model.get(model, 0.0) for model in models)
            rows.append(row)
    headers = ["dataset", "method"] + models
    return format_table(headers, rows, title)


def format_error_table(
    error_counts: Mapping[str, Mapping[str, Mapping[str, int]]],
    title: str = "",
) -> str:
    """``error_counts[dataset][model] -> {E1..E6 -> count}``."""
    categories = ("E1", "E2", "E3", "E4", "E5", "E6")
    rows: List[List[object]] = []
    for dataset, by_model in error_counts.items():
        for model, counts in by_model.items():
            row: List[object] = [dataset, model]
            row.extend(counts.get(category, 0) for category in categories)
            row.append(sum(counts.get(category, 0) for category in categories))
            rows.append(row)
    headers = ["dataset", "model"] + list(categories) + ["total"]
    return format_table(headers, rows, title)


def format_ranking_series(
    series: Sequence[Mapping[str, object]],
    metric: str,
    baseline: float,
    title: str,
) -> str:
    """Ranked bars of Figure 2: one line per configuration, plus the baseline."""
    lines = [title, f"random-guess baseline: {baseline:.2f}"]
    for entry in series:
        lines.append(
            f"{str(entry['label']):<40} {float(entry[metric]):.2f}"
        )
    return "\n".join(lines)


def format_pareto_points(points, frontier, title: str) -> str:
    """Figure 3 as text: every point plus a marker for frontier members.

    A configuration is one point per dataset, so membership is decided by
    the point itself and the dataset is part of the row label.
    """
    on_frontier = set(frontier)
    lines = [title, f"{'configuration':<36} {'time(s)':>8} {'F1(T)':>7} {'F1(F)':>7}  frontier"]
    for point in sorted(points, key=lambda item: item.time_seconds):
        marker = "*" if point in on_frontier else ""
        lines.append(
            f"{point.dataset + '/' + point.label():<36} {point.time_seconds:>8.2f} "
            f"{point.f1_true:>7.2f} {point.f1_false:>7.2f}  {marker}"
        )
    return "\n".join(lines)


def format_upset(cells, title: str) -> str:
    """Figure 4 as text: one line per exclusive model-combination cell."""
    lines = [title]
    for cell in cells:
        lines.append(f"{cell.label():<60} {cell.count}")
    return "\n".join(lines)
