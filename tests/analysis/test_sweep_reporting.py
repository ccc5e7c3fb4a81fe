"""Unit tests for table formatting."""

import pytest

from repro.analysis.reporting import Table, format_percentage, format_ratio, format_scientific


class TestFormatting:
    def test_ratio(self):
        assert format_ratio(2.176) == "2.18x"

    def test_percentage(self):
        assert format_percentage(0.413) == "41.3%"

    def test_scientific(self):
        assert format_scientific(1.5e-7) == "1.50e-07"


class TestTable:
    def test_render_contains_headers_and_rows(self):
        table = Table(["Rate", "Speed"], title="Figure 2")
        table.add_row("BPSK 1/2", 2.033)
        table.add_row("QAM64 3/4", 22.244)
        rendered = table.render()
        assert "Figure 2" in rendered
        assert "Rate" in rendered and "Speed" in rendered
        assert "BPSK 1/2" in rendered and "22.24" in rendered

    def test_named_rows(self):
        table = Table(["a", "b"])
        table.add_row(b=2, a=1)
        assert table.rows == [["1", "2"]]

    def test_row_length_is_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_mixing_positional_and_named_rejected(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row(1, a=2)

    def test_columns_are_aligned(self):
        table = Table(["name", "value"])
        table.add_row("x", 1)
        table.add_row("longer-name", 100)
        lines = table.render().splitlines()
        assert len({line.index("  ") for line in lines[1:]}) >= 1
        assert all(len(line) >= len("longer-name") for line in lines[1:])
