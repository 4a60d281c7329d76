"""Benchmark harness utilities: paper-style tables and figure series.

Time with :class:`repro.observability.Stopwatch` / ``StageClock``.
"""

from .tables import format_table, format_markdown_table
from .series import Series, format_series
from .plots import ascii_plot, sparkline

__all__ = [
    "format_table",
    "format_markdown_table",
    "Series",
    "format_series",
    "ascii_plot",
    "sparkline",
]
