"""CSV/JSON/SVG artifact writers: exact columns, round trips, and guards."""
from __future__ import annotations

import csv
import json
import math
from xml.dom import minidom

import numpy as np
import pytest

from bousslab import DecaySeries
from bousslab.reporting import (RATES_COLUMNS, SERIES_COLUMNS, plot_run_svgs,
                                plot_series_svg, read_series_csv,
                                write_rates_csv, write_report_json,
                                write_series_csv)


def demo_series(source="linear", k=0, norm_kind="sobolev2", scale=1.0):
    t = np.geomspace(1.0, 100.0, 12)
    return DecaySeries(times=t, values=scale * (1.0 + t) ** -0.5, k=k,
                       norm_kind=norm_kind, source=source)


class TestSeriesCsv:
    def test_exact_header_and_tagging(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, "demo_run", [demo_series()])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == SERIES_COLUMNS
        assert rows[1][0] == "demo_run/linear"
        assert len(rows) == 1 + 12

    def test_round_trip_preserves_values_bitwise(self, tmp_path):
        path = tmp_path / "series.csv"
        original = [demo_series(), demo_series(source="profile_gap", k=1)]
        write_series_csv(path, "demo_run", original)
        back = read_series_csv(path)
        assert len(back) == 2
        by_label = {s.label: s for s in back}
        for s in original:
            r = by_label[s.label]
            assert np.array_equal(r.times, s.times)
            assert np.array_equal(r.values, s.values)

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        series = [demo_series(source="nonlinear", k=1), demo_series(k=0)]
        write_series_csv(a, "x", series)
        write_series_csv(b, "x", list(reversed(series)))
        assert a.read_bytes() == b.read_bytes()


class TestRatesCsv:
    def test_exact_header_and_formatting(self, tmp_path):
        path = tmp_path / "rates.csv"
        write_rates_csv(path, [
            {"k": 0, "slope": -0.25, "stderr": 1e-3,
             "theory_slope": -0.25, "verdict": "pass"},
            {"k": 1, "slope": math.nan, "stderr": math.nan,
             "theory_slope": -0.75, "verdict": "skip"},
        ])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RATES_COLUMNS
        assert rows[1] == ["0", "-0.25", "0.001", "-0.25", "pass"]
        assert rows[2][1] == "nan"


class TestReportJson:
    def test_non_finite_numbers_become_strings(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(path, {
            "experiment": "demo", "values": [1.0, math.nan, math.inf],
            "arr": np.arange(3), "np_scalar": np.float64(0.5),
        })
        loaded = json.loads(path.read_text())  # strict: would choke on NaN
        assert loaded["values"] == [1.0, "nan", "inf"]
        assert loaded["arr"] == [0, 1, 2]
        assert loaded["np_scalar"] == 0.5


class TestSvg:
    def test_plot_writes_wellformed_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        out = plot_series_svg(path, demo_series(), guides=((-0.5, "reference"),))
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "reference" in text
        assert minidom.parse(str(out)).documentElement.tagName == "svg"

    def test_all_zero_series_rejected(self, tmp_path):
        t = np.geomspace(1.0, 10.0, 8)
        zero = DecaySeries(times=t, values=np.zeros(8), k=0,
                           norm_kind="sobolev2", source="linear")
        with pytest.raises(ValueError, match="nothing to plot"):
            plot_series_svg(tmp_path / "z.svg", zero)

    def test_one_file_per_series_with_collision_safe_names(self, tmp_path):
        t = np.geomspace(1.0, 10.0, 8)
        zero = DecaySeries(times=t, values=np.zeros(8), k=1,
                           norm_kind="sobolev2", source="linear")
        series = [demo_series(source="nl_minus_linear"),
                  demo_series(source="nl_minus_linear", norm_kind="ratio"),
                  demo_series(source="linear"), zero]
        written = plot_run_svgs(tmp_path, series)
        names = sorted(p.name for p in written)
        assert names == ["linear_k0.svg", "nl_minus_linear_k0.svg",
                         "nl_minus_linear_k0_ratio.svg"]
