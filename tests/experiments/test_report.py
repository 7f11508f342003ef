"""Tests for JSON/Markdown reporting of experiment results."""

import json

from repro.experiments.common import ExperimentResult
from repro.experiments.report import render_report, to_json, to_markdown


def sample_result():
    result = ExperimentResult("Figure X", "a demo result", meta={"note": "hi"})
    result.add("mpki", "canneal", 0.5)
    result.add("mpki", "x264", 0.25)
    result.add("error", "canneal", 0.01)
    result.add("error", "x264", 0.0)
    return result


def failed_result():
    """One failed cell, one all-failed series and one absent cell."""
    result = ExperimentResult("Figure F", "a result with failed points")
    result.add("mpki", "canneal", 0.5)
    result.add("mpki", "x264", float("nan"))
    result.add("error", "canneal", float("nan"))
    return result


class TestJson:
    def test_round_trips_through_json(self):
        payload = json.loads(to_json(sample_result()))
        assert payload["name"] == "Figure X"
        assert payload["series"]["mpki"]["canneal"] == 0.5
        assert payload["averages"]["mpki"] == 0.375
        assert payload["meta"]["note"] == "hi"

    def test_failed_cells_are_null_under_a_strict_parser(self):
        """A failed cell and an all-failed average are ``null``, never the
        bare ``NaN`` strict JSON parsers reject."""

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        result = failed_result()
        payload = json.loads(to_json(result), parse_constant=reject)
        assert payload["series"]["mpki"] == {"canneal": 0.5, "x264": None}
        assert payload["series"]["error"] == {"canneal": None}
        assert payload["averages"] == {"mpki": 0.5, "error": None}

    def test_non_jsonable_meta_reprd(self):
        result = ExperimentResult("X", "d", meta={"obj": object()})
        payload = json.loads(to_json(result))
        assert payload["meta"]["obj"].startswith("<object")


class TestMarkdown:
    def test_contains_table_rows(self):
        markdown = to_markdown(sample_result())
        assert "### Figure X" in markdown
        assert "| canneal | 0.5000 | 0.0100 |" in markdown
        assert "| **average** |" in markdown

    def test_missing_cells_rendered_as_dash(self):
        result = ExperimentResult("X", "d")
        result.add("a", "w1", 1.0)
        result.add("b", "w2", 2.0)
        markdown = to_markdown(result)
        assert "| w1 | 1.0000 | - |" in markdown
        assert "| w2 | - | 2.0000 |" in markdown

    def test_cells_match_the_text_table(self):
        """Markdown cells read as the CLI table's: FAILED for a failed
        point (or an all-failed average), ``-`` for an absent one."""
        result = failed_result()
        markdown = to_markdown(result)
        assert "| canneal | 0.5000 | FAILED |" in markdown
        assert "| x264 | FAILED | - |" in markdown
        assert "| **average** | 0.5000 | FAILED |" in markdown
        table = result.format_table()
        assert table.splitlines()[-1].split() == ["average", "0.5000", "FAILED"]
        assert table.splitlines()[-2].split() == ["x264", "FAILED", "-"]

    def test_render_report_concatenates(self):
        report = render_report([sample_result(), sample_result()], title="T")
        assert report.startswith("# T")
        assert report.count("### Figure X") == 2
