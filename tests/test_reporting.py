"""Tests for the text reporting helpers."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.reporting import (
    ascii_cdf,
    format_cdf_table,
    format_table,
    percentile_row,
)


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["longer-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[1].startswith("----")
        widths = {len(line) for line in lines}
        assert len(widths) <= 2  # columns aligned

    def test_handles_numbers(self):
        text = format_table(["k"], [[1], [2.5]])
        assert "2.5" in text


class TestCdfTable:
    def test_read_offs(self):
        series = {"a": [1.0, 2.0, 3.0, 4.0], "b": [10.0, 20.0, 30.0, 40.0]}
        text = format_cdf_table(series, thresholds=[2.5, 100.0])
        assert "0.500" in text  # a below 2.5
        assert "1.000" in text  # everything below 100
        assert "a" in text and "b" in text

    def test_inclusive_at_threshold(self):
        # CDF semantics: P[X <= t], so a sample exactly at the threshold
        # is counted as answered within it.
        text = format_cdf_table({"x": [5.0]}, thresholds=[5.0])
        assert "1.000" in text
        assert "P(x <= t)" in text


#: The CDF header cell, e.g. ``P(x <= t)  t [ms]``.
_CDF_HEADER = re.compile(r"^P\(x .*?\]")
_RESULTS = Path(__file__).resolve().parents[1] / "results"


class TestCommittedResults:
    def test_cdf_headers_match_renderer(self):
        """Every CDF table committed under results/ carries the header the
        current renderer emits, so none predates a renderer change."""
        headers = [
            (path.name, line)
            for path in sorted(_RESULTS.glob("*.txt"))
            for line in path.read_text().splitlines()
            if line.startswith("P(")
        ]
        assert headers
        for name, line in headers:
            unit = re.search(r"\[(.+?)\]", line).group(1)
            rendered = format_cdf_table({"x": [0.0]}, [0.0], unit=unit)
            expected = _CDF_HEADER.match(rendered.splitlines()[0]).group(0)
            assert _CDF_HEADER.match(line).group(0) == expected, name


class TestAsciiCdf:
    def test_monotone_shape(self):
        values = np.linspace(1, 100, 500)
        plot = ascii_cdf(values, width=40, height=8, label="test")
        lines = plot.splitlines()
        assert lines[0] == "CDF test"
        assert "x:" in lines[-1]
        # One star per column, rows monotone non-increasing left→right.
        grid = lines[1:-1]
        star_rows = []
        for col in range(40):
            for row, line in enumerate(grid):
                if col < len(line) and line[col] == "*":
                    star_rows.append(row)
                    break
        assert star_rows == sorted(star_rows, reverse=True)

    def test_linear_axis(self):
        plot = ascii_cdf([1.0, 2.0, 3.0], log_x=False)
        assert "(log)" not in plot


class TestPercentileRow:
    def test_values(self):
        name, mean, median, p95 = percentile_row("row", [10.0, 20.0, 30.0])
        assert name == "row"
        assert mean == "20.0"
        assert median == "20.0"
        assert float(p95) == pytest.approx(np.percentile([10, 20, 30], 95), abs=0.05)

    def test_success_cell_when_failures_tracked(self):
        row = percentile_row("row", [10.0, 20.0, 30.0], failed=1)
        assert len(row) == 5
        assert row[-1] == "75.0% (1 failed)"

    def test_success_cell_all_succeeded(self):
        row = percentile_row("row", [10.0], failed=0)
        assert row[-1] == "100.0% (0 failed)"
