"""CSV export of experiment series."""

import csv

import pytest

from repro.experiments.reporting import write_rows


class TestWriteRows:
    def test_roundtrip(self, tmp_path):
        rows = [
            {"kappa": 1.0, "mu": 2.0, "rate": 75.0},
            {"kappa": 2.0, "mu": 3.0, "rate": 50.0},
        ]
        path = tmp_path / "out.csv"
        count = write_rows(str(path), rows)
        assert count == 2
        with open(path) as handle:
            read = list(csv.DictReader(handle))
        assert read[0]["kappa"] == "1.0"
        assert read[1]["rate"] == "50.0"

    def test_explicit_columns_and_missing_keys(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        path = tmp_path / "cols.csv"
        write_rows(str(path), rows, columns=["b", "a"])
        with open(path) as handle:
            read = list(csv.DictReader(handle))
        assert list(read[0].keys()) == ["b", "a"]
        assert read[1]["b"] == ""

    def test_non_scalar_values_skipped_in_auto_columns(self, tmp_path):
        rows = [{"x": 1, "stuff": (1, 2, 3)}]
        path = tmp_path / "skip.csv"
        write_rows(str(path), rows)
        with open(path) as handle:
            header = handle.readline().strip()
        assert header == "x"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(str(tmp_path / "none.csv"), [])

    def test_creates_directories(self, tmp_path):
        nested = tmp_path / "a" / "b" / "out.csv"
        write_rows(str(nested), [{"x": 1}])
        assert nested.exists()

    def test_fig2_rows_export(self, tmp_path):
        from repro.experiments.fig2 import run_fig2

        path = tmp_path / "fig2.csv"
        count = write_rows(str(path), run_fig2())
        assert count == 3
        with open(path) as handle:
            read = list(csv.DictReader(handle))
        assert read[0]["symbols_packed"] == "15"
