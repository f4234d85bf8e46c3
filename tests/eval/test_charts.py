"""ASCII chart rendering."""

from repro.eval.charts import bar_chart


class TestBarChart:
    def test_bars_scale_with_values(self):
        text = bar_chart("t", [("a", 1.0, ""), ("b", 2.0, "")])
        lines = text.splitlines()
        assert lines[0] == "t"
        assert lines[2].count("#") > lines[1].count("#")

    def test_none_values_render_note(self):
        text = bar_chart("t", [("a", 1.0, ""), ("b", None,
                                                "incompatible")])
        assert "incompatible" in text

    def test_empty_chart(self):
        assert "(no data)" in bar_chart("t", [("a", None, "x")])

    def test_baseline_marker(self):
        text = bar_chart("t", [("a", 0.5, "")], baseline=1.0)
        assert "|" in text.splitlines()[1][5:]

    def test_values_printed(self):
        text = bar_chart("t", [("a", 3.14159, "")], unit="x")
        assert "3.14x" in text

