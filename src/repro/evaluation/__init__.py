"""Evaluation and analysis: metrics, efficiency, Pareto, UpSet, error taxonomy."""

from .efficiency import average_response_time, iqr_filter
from .error_analysis import (
    ERROR_CATEGORIES,
    ErrorAnalysis,
    ErrorAnalyzer,
    ErrorRecord,
    unique_ratio,
)
from .metrics import (
    ClasswiseF1,
    ConfusionCounts,
    classwise_f1,
    classwise_f1_from_run,
    confusion_counts,
    precision_recall_f1,
    random_guess_f1,
)
from .pareto import TradeoffPoint, build_tradeoff_points, pareto_frontier
from .significance import BootstrapInterval, McNemarResult, bootstrap_f1_interval, mcnemar_test
from .reporting import (
    format_alignment_table,
    format_error_table,
    format_f1_table,
    format_pareto_points,
    format_ranking_series,
    format_table,
    format_time_table,
    format_upset,
)
from .upset import (
    IntersectionCell,
    exclusive_intersections,
    upset_intersections,
)

__all__ = [
    "ClasswiseF1",
    "ConfusionCounts",
    "ERROR_CATEGORIES",
    "ErrorAnalysis",
    "ErrorAnalyzer",
    "ErrorRecord",
    "IntersectionCell",
    "BootstrapInterval",
    "McNemarResult",
    "bootstrap_f1_interval",
    "mcnemar_test",
    "TradeoffPoint",
    "average_response_time",
    "build_tradeoff_points",
    "classwise_f1",
    "classwise_f1_from_run",
    "confusion_counts",
    "exclusive_intersections",
    "format_alignment_table",
    "format_error_table",
    "format_f1_table",
    "format_pareto_points",
    "format_ranking_series",
    "format_table",
    "format_time_table",
    "format_upset",
    "iqr_filter",
    "pareto_frontier",
    "precision_recall_f1",
    "random_guess_f1",
    "unique_ratio",
    "upset_intersections",
]
