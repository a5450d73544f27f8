"""Efficiency metrics: IQR-filtered average response time (Table 8).

The paper measures the average response time per fact, first removing
outliers with the 1.5 x IQR rule so stragglers (e.g. retries, cold caches)
do not distort the comparison.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["iqr_filter", "average_response_time"]


def iqr_filter(values: Sequence[float], multiplier: float = 1.5) -> List[float]:
    """Drop values outside ``[Q1 - m*IQR, Q3 + m*IQR]``.

    With fewer than four observations the filter is a no-op (quartiles are
    not meaningful), which keeps small test runs intact.
    """
    data = [float(value) for value in values]
    if len(data) < 4:
        return data
    array = np.asarray(data)
    q1 = float(np.percentile(array, 25))
    q3 = float(np.percentile(array, 75))
    iqr = q3 - q1
    lower = q1 - multiplier * iqr
    upper = q3 + multiplier * iqr
    return [value for value in data if lower <= value <= upper]


def average_response_time(latencies: Sequence[float], multiplier: float = 1.5) -> float:
    """The paper's theta-bar: mean latency after IQR outlier removal."""
    filtered = iqr_filter(latencies, multiplier)
    if not filtered:
        return 0.0
    return float(np.mean(filtered))
