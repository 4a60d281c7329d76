"""Stopwatch/StageClock, table, and series formatting tests."""

import time

import numpy as np
import pytest

from repro.bench import (
    Series,
    format_markdown_table,
    format_series,
    format_table,
)
from repro.observability import StageClock, Stopwatch


class TestTimers:
    def test_timer_measures(self):
        with Stopwatch() as t:
            time.sleep(0.01)
        assert t.seconds >= 0.009

    def test_timer_accumulates(self):
        t = Stopwatch()
        for _ in range(2):
            with t:
                time.sleep(0.005)
        assert t.seconds >= 0.009

    def test_stage_timer_fractions(self):
        st = StageClock()
        with st.stage("a"):
            time.sleep(0.01)
        with st.stage("b"):
            time.sleep(0.01)
        fr = st.fractions()
        assert set(fr) == {"a", "b"}
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_stage_timer_empty(self):
        assert StageClock().fractions() == {}


class TestTables:
    ROWS = [{"name": "reddit", "nnz": 95_000_000, "err": 0.8571},
            {"name": "nell", "nnz": 143_000_000, "err": 0.5449}]

    def test_format_table_alignment(self):
        out = format_table(self.ROWS, title="Table I")
        lines = out.splitlines()
        assert lines[0] == "Table I"
        assert "name" in lines[1] and "nnz" in lines[1]
        assert "reddit" in lines[3]

    def test_format_table_column_selection(self):
        out = format_table(self.ROWS, columns=["name"])
        assert "nnz" not in out

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_markdown_table(self):
        out = format_markdown_table(self.ROWS)
        lines = out.splitlines()
        assert lines[0].startswith("| name ")
        assert lines[1] == "|---|---|---|"


class TestSeries:
    def test_from_arrays_validates(self):
        with pytest.raises(ValueError):
            Series.from_arrays("x", [1, 2], [1])

    def test_downsample_keeps_endpoints(self):
        s = Series.from_arrays("s", np.arange(100), np.arange(100) * 2.0)
        thin = s.downsample(10)
        assert len(thin.x) <= 10
        assert thin.x[0] == 0 and thin.x[-1] == 99

    def test_format_series(self):
        s = Series.from_arrays("blocked", [1, 2], [0.9, 0.8])
        out = format_series([s], title="Fig 6", x_name="iter",
                            y_name="error")
        assert "Fig 6" in out and "blocked" in out and "0.9" in out
