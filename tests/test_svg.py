"""Tests for the deterministic SVG renderer."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from roughvol.asymptotics import TermSeries
from roughvol.svg import PlotStyle, render_line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def series(values, label="series") -> TermSeries:
    ts = np.geomspace(0.01, 1.0, len(values))
    return TermSeries(ts, np.asarray(values, dtype=float), np.zeros(len(values)), label)


def parse(doc: str) -> ET.Element:
    return ET.fromstring(doc)


class TestRenderLinePlot:
    def test_single_series_has_one_polyline(self):
        doc = render_line_plot([series([1.0, 2.0, 3.0, 4.0])], PlotStyle())
        root = parse(doc)
        assert root.tag == f"{SVG_NS}svg"
        assert len(root.findall(f"{SVG_NS}polyline")) == 1

    def test_reference_line_adds_dashed_element(self):
        doc = render_line_plot(
            [series([0.45, 0.5, 0.52, 0.55], label="ratio")],
            PlotStyle(),
            ref_lines=(("limit 0.5", 0.5),),
        )
        root = parse(doc)
        dashed = [
            el
            for el in root.findall(f"{SVG_NS}line")
            if el.get("stroke-dasharray") is not None
        ]
        assert len(dashed) == 1
        assert len(root.findall(f"{SVG_NS}polyline")) == 1

    def test_deterministic_bytes(self):
        args = (
            [series([0.4, 0.5, 0.6, 0.7], label="a"), series([1.0, 0.9, 0.8, 0.7], label="b")],
            PlotStyle(title="t"),
            (("ref", 0.65),),
        )
        assert render_line_plot(*args) == render_line_plot(*args)

    def test_nan_splits_polyline(self):
        doc = render_line_plot(
            [series([1.0, 2.0, math.nan, 3.0, 4.0])], PlotStyle()
        )
        assert len(parse(doc).findall(f"{SVG_NS}polyline")) == 2

    def test_isolated_point_becomes_circle(self):
        doc = render_line_plot(
            [series([math.nan, 2.0, math.nan, 3.0, 4.0])], PlotStyle()
        )
        root = parse(doc)
        assert len(root.findall(f"{SVG_NS}circle")) == 1
        assert len(root.findall(f"{SVG_NS}polyline")) == 1

    def test_log_y_drops_nonpositive_points(self):
        doc = render_line_plot(
            [series([1.0, -2.0, 10.0, 100.0])], PlotStyle(y_log=True)
        )
        root = parse(doc)
        assert len(root.findall(f"{SVG_NS}polyline")) == 1
        assert len(root.findall(f"{SVG_NS}circle")) == 1

    def test_label_escaping(self):
        doc = render_line_plot(
            [series([1.0, 2.0, 3.0], label="a < b & c")],
            PlotStyle(title="x<y"),
        )
        texts = [el.text for el in parse(doc).iter(f"{SVG_NS}text")]
        assert "a < b & c" in texts

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError, match="no series"):
            render_line_plot([], PlotStyle())
        with pytest.raises(ValueError, match="no finite"):
            render_line_plot([series([math.nan, math.nan, math.nan])], PlotStyle())

    def test_axis_ticks_cover_data(self):
        doc = render_line_plot(
            [series(np.linspace(0.0, 10.0, 8))], PlotStyle()
        )
        root = parse(doc)
        labels = [el.text for el in root.findall(f"{SVG_NS}text")]
        assert any(t in labels for t in ("0.01", "0.1", "1"))
