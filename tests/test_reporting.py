import re
from datetime import date, timedelta

import numpy as np
import pytest

from crisismon import (EventRecord, Series, StageWindow,
                       annotate_peaks, load_events_csv, load_stages_csv,
                       render_heatmap, stage_prevalence_table)
from crisismon import reporting
from crisismon.errors import FormatError
from crisismon.matching import read_prevalence_csv
from crisismon.series import Peak
from crisismon.reporting import write_stage_table_csv

from oracles import naive_stage_table

D0 = date(2020, 3, 1)


def S(values, names=None):
    """Markers × days, row ``i`` named ``names[i]`` (default ``m{i}``)."""
    rows = np.asarray(values, dtype=np.float64)
    return Series(start=D0, names=tuple(names or (f"m{i}" for i in range(len(rows)))),
                  values=rows.tolist())


def heatmap(rows, markers):
    """The heatmap of every day of ``rows`` (markers × days), row ``i`` drawn
    as ``markers[i]``."""
    return render_heatmap(S(rows, markers))


def cell_fills(svg: bytes) -> list[str]:
    fills = re.findall(r'<rect [^>]*fill="([^"]+)"/>', svg.decode("utf-8"))
    return [f for f in fills if f.startswith(("rgb(", "url("))]


def lum(fill: str) -> float:
    return float(re.match(r"rgb\(([0-9.]+)%", fill).group(1))


class TestRenderHeatmap:
    def test_three_cells_strictly_darker_with_value(self):
        svg = heatmap([[0.0, 50.0, 100.0]], ["m"])
        fills = cell_fills(svg)
        assert len(fills) == 3
        lums = [lum(f) for f in fills]
        assert lums[0] > lums[1] > lums[2]

    def test_all_equal_values_render_midpoint(self):
        svg = heatmap([[7.0, 7.0, 7.0]], ["m"])
        fills = cell_fills(svg)
        assert len(set(fills)) == 1
        assert lum(fills[0]) == pytest.approx((reporting.LIGHT + reporting.DARK) / 2)

    def test_byte_identical_across_runs(self):
        rows = [[1, 2, 3], [3, 2, 1]]
        assert heatmap(rows, ["a", "b"]) == heatmap(rows, ["a", "b"])

    def test_empty_marker_list_errors(self):
        with pytest.raises(ValueError):
            render_heatmap(S(np.empty((0, 1))))

    def test_missing_cells_get_hatch_style(self):
        svg = heatmap([[1.0, np.nan, 3.0]], ["m"])
        fills = cell_fills(svg)
        assert fills[1] == "url(#missing)"
        assert fills[0].startswith("rgb(")

    def test_row_permutation_keeps_cell_colors(self):
        rows = S([[0.0, 5.0], [10.0, 2.0]], ["a", "b"])
        svg_ab = render_heatmap(rows)
        svg_ba = render_heatmap(rows.select(["b", "a"]))
        ab = cell_fills(svg_ab)
        ba = cell_fills(svg_ba)
        assert ab[0:2] == ba[2:4]  # row "a"
        assert ab[2:4] == ba[0:2]  # row "b"

    def test_draws_every_day_from_the_series_start(self):
        rows = S([list(range(40))], ["m"]).crop(date(2020, 3, 30), date(2020, 4, 2))
        svg = render_heatmap(rows)
        assert len(cell_fills(svg)) == 4
        assert re.findall(r">(\d{4}-\d{2})</text>", svg.decode()) == ["2020-03", "2020-04"]

    def test_month_labels_present(self):
        n = 40  # spans March into April
        svg = heatmap([list(range(n))], ["m"])
        text = svg.decode("utf-8")
        assert "2020-03" in text and "2020-04" in text
        assert ">m</text>" in text

    def test_a_label_xml_forbids_shows_as_replacement_characters(self):
        from xml.dom import minidom

        forbidden = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20),
                                      0xFFFE, 0xFFFF]))
        svg = heatmap([[1.0, 2.0], [3.0, 4.0]], ["a&b<c>\té\U0001f600", f"x{forbidden}y"])
        labels = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")
                  if t.getAttribute("text-anchor") == "end"]
        assert labels == ["a&b<c>\té\U0001f600", "x" + "\ufffd" * len(forbidden) + "y"]
        assert ">a&amp;b&lt;c&gt;\té\U0001f600</text>" in svg.decode("utf-8")

    def test_normalization_shared_across_rows(self):
        # per-heatmap min-max: the single maximum is the only darkest cell
        svg = heatmap([[0.0, 1.0], [2.0, 8.0]], ["a", "b"])
        fills = cell_fills(svg)
        lums = [lum(f) for f in fills]
        assert min(lums) == lums[3]  # the 8.0 cell
        assert max(lums) == lums[0]  # the 0.0 cell


class TestAnnotatePeaks:
    def _peak(self, d):
        return Peak(date=d, index=0, height=1.0, prominence=1.0)

    def test_window_rule(self):
        peak = self._peak(date(2020, 5, 10))
        events = [
            EventRecord(date(2020, 5, 7), "inside"),
            EventRecord(date(2020, 5, 12), "after the peak"),
            EventRecord(date(2020, 5, 3), "too early"),
        ]
        ((_, matched),) = annotate_peaks([peak], events, lead=6)
        assert [e.description for e in matched] == ["inside"]

    def test_no_events_yields_empty_lists(self):
        peaks = [self._peak(date(2020, 5, 10)), self._peak(date(2020, 6, 1))]
        annotated = annotate_peaks(peaks, [], lead=6)
        assert [len(m) for _, m in annotated] == [0, 0]

    def test_matches_sorted_by_date(self):
        peak = self._peak(date(2020, 5, 10))
        events = [
            EventRecord(date(2020, 5, 9), "b"),
            EventRecord(date(2020, 5, 5), "a"),
        ]
        ((_, matched),) = annotate_peaks([peak], events)
        assert [e.date for e in matched] == [date(2020, 5, 5), date(2020, 5, 9)]

    def test_negative_lead_errors(self):
        with pytest.raises(ValueError):
            annotate_peaks([], [], lead=-1)

    def test_boundary_dates_inclusive(self):
        peak = self._peak(date(2020, 5, 10))
        events = [
            EventRecord(date(2020, 5, 4), "left edge"),
            EventRecord(date(2020, 5, 10), "peak day"),
        ]
        ((_, matched),) = annotate_peaks([peak], events, lead=6)
        assert len(matched) == 2

    def test_march_8_peak_matches_six_fixture_events(self, data_dir):
        events = load_events_csv(data_dir / "events" / "mental_health.csv")
        peak = self._peak(date(2020, 3, 8))
        ((_, matched),) = annotate_peaks([peak], events, lead=6)
        assert len(matched) == 6
        assert matched[0].date == date(2020, 3, 3)
        assert matched[-1].date == date(2020, 3, 8)


class TestStagePrevalenceTable:
    def test_fifty_percent_above_median(self):
        # 9 days at 4.0 with one 6.0 inside the stage: median 4, max diff 50%
        values = [4.0] * 9
        values[4] = 6.0
        stages = [StageWindow("s", D0 + timedelta(days=3), D0 + timedelta(days=5))]
        ((_, _, cell),) = stage_prevalence_table(S([values], ["m"]), stages)
        assert cell == pytest.approx(50.0)

    def test_constant_series_gives_zero_everywhere(self):
        stages = [
            StageWindow("a", D0, D0 + timedelta(days=4)),
            StageWindow("b", D0 + timedelta(days=5), D0 + timedelta(days=9)),
        ]
        rows = stage_prevalence_table(S([[3.0] * 10], ["m"]), stages)
        assert [cell for _, _, cell in rows] == [0.0, 0.0]

    def test_zero_median_is_undefined(self):
        stages = [StageWindow("s", D0, D0 + timedelta(days=2))]
        ((_, _, cell),) = stage_prevalence_table(S([[0.0, 0.0, 0.0]], ["m"]), stages)
        assert cell is None

    def test_stage_outside_series_is_undefined(self):
        stages = [StageWindow("s", D0 + timedelta(days=100), D0 + timedelta(days=120))]
        ((_, _, cell),) = stage_prevalence_table(S([[1.0, 2.0]], ["m"]), stages)
        assert cell is None

    def test_120_day_fixture_matches_naive_double_loop(self):
        rng = np.random.default_rng(53)
        stages = [
            ("A", D0, D0 + timedelta(days=39)),
            ("B", D0 + timedelta(days=40), D0 + timedelta(days=79)),
            ("C", D0 + timedelta(days=80), D0 + timedelta(days=119)),
        ]
        values_by_marker = {}
        for mi in range(4):
            v = rng.normal(5, 1, 120)
            v[rng.integers(0, 120, size=6)] = np.nan
            values_by_marker[f"m{mi}"] = v
        got = stage_prevalence_table(
            S(list(values_by_marker.values()), list(values_by_marker)),
            [StageWindow(n, s, e) for n, s, e in stages],
        )
        expect = naive_stage_table(
            {k: [None if np.isnan(x) else float(x) for x in v]
             for k, v in values_by_marker.items()},
            D0,
            stages,
        )
        for marker, stage, cell in got:
            ref = expect[(marker, stage)]
            if ref is None:
                assert cell is None
            else:
                assert cell == pytest.approx(ref, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(59)
        v = rng.uniform(1, 9, 60)
        stages = [StageWindow("s", D0 + timedelta(days=10), D0 + timedelta(days=20))]
        ((_, _, a),) = stage_prevalence_table(S([v], ["m"]), stages)
        ((_, _, b),) = stage_prevalence_table(S([3.7 * v], ["m"]), stages)
        assert a == pytest.approx(b, rel=1e-9)

    def test_csv_writer_blank_for_undefined(self, tmp_path):
        rows = [("m", "s", 12.5), ("m", "t", None)]
        path = tmp_path / "stage.csv"
        write_stage_table_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "marker,stage,max_pct_diff"
        assert lines[1] == "m,s,12.5"
        assert lines[2] == "m,t,"


@pytest.mark.parametrize("record, field, value", [
    (StageWindow("s", D0, D0 + timedelta(days=4)), "start", D0 + timedelta(days=9)),
    (StageWindow("s", D0, D0 + timedelta(days=4)), "stage", ""),
    (EventRecord(D0, "cuarentena"), "description", ""),
], ids=["window-start", "window-stage", "event-description"])
def test_a_window_or_event_cannot_be_changed_past_its_checks(record, field, value):
    fields, seen = tuple(record), {record}
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert tuple(record) == fields and record in seen


class TestCsvLoaders:
    def test_events_fixture_loads(self, data_dir):
        events = load_events_csv(data_dir / "events" / "mental_health.csv")
        assert len(events) == 34
        assert all(e.description for e in events)

    def test_stage_fixture_loads_with_overlap(self, data_dir):
        stages = load_stages_csv(data_dir / "stages" / "argentina_2020.csv")
        assert [w.stage for w in stages] == ["preparedness", "response", "recovery"]
        # response and recovery overlap by design
        assert stages[2].start < stages[1].end

    # Each reader, its header, and a row that breaks it on line 2.
    READERS = {
        "events": (load_events_csv, "date,description", "2020-01-01,"),
        "stages": (load_stages_csv, "stage,start,end", "s,2020-01-05,2020-01-01"),
        "prevalence": (read_prevalence_csv, "date,category,matched,total,percent",
                       "2020-01-01,a,1,x,"),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_missing_column_is_a_format_error(self, tmp_path, reader):
        load, header, _ = self.READERS[reader]
        path = tmp_path / "bad.csv"
        path.write_text("when,what\n2020-01-01,x\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "
                                              f"expected columns {header}$"):
            load(path)

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_bad_row_is_a_format_error_naming_its_line(self, tmp_path, reader):
        load, header, row = self.READERS[reader]
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2: "):
            load(path)
