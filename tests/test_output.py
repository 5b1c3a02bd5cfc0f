"""Result writer tests: canonical cells, atomic CSV, SVG structure."""

import hashlib
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from antiplane import output

SVG_SHA256 = "2eb62e6f294afd9851b0182582861fe17efe459d52d23d36aa1063865db18cc7"
EMPTY_SVG_SHA256 = "411d0a22d867a747ab1913f8c346e9078ec2a56b73e32b4524ec680806aee877"
CSV_SHA256 = "18adb0b1c0f6bd9d2c9a4c1943e10662a1e6ff11951fa0ef714afabf77178960"


class TestFormatCell:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, ""),
            (True, "true"),
            (False, "false"),
            (np.bool_(True), "true"),
            (3, "3"),
            (np.int64(-7), "-7"),
            (0.1, "0.1"),
            (np.float64(0.1), "0.1"),
            (1e-300, "1e-300"),
            ("stick", "stick"),
        ],
    )
    def test_canonical_text(self, value, expected):
        assert output.format_cell(value) == expected

    def test_floats_round_trip(self):
        rng = np.random.default_rng(3)
        for value in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(output.format_cell(float(value))) == float(value)


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        output.write_csv(path, ["a", "b"], [(1, 0.5), (2, None)])
        assert path.read_text() == "a,b\n1,0.5\n2,\n"

    def test_byte_identical_rewrites(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(i, np.float64(i) / 3.0) for i in range(50)]
        output.write_csv(path, ["i", "x"], rows)
        first = path.read_bytes()
        output.write_csv(path, ["i", "x"], rows)
        assert path.read_bytes() == first

    def test_no_leftover_temp_files(self, tmp_path):
        output.write_csv(tmp_path / "t.csv", ["a"], [(1,)])
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "t.csv"
        output.write_csv(path, ["a"], [(1,)])
        output.write_csv(path, ["a"], [(2,)])
        assert path.read_text() == "a\n2\n"


class TestSvg:
    def test_well_formed_with_axes_and_legend(self, tmp_path):
        path = tmp_path / "p.svg"
        ns = list(range(1, 17))
        output.write_svg_loglog(
            path,
            [("errors", ns, [1.0 / n for n in ns])],
            title="decay",
            xlabel="n",
            ylabel="error",
        )
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text()
        assert "polyline" in text
        assert ">decay<" in text
        assert ">n<" in text
        assert ">error<" in text
        assert ">errors<" in text
        assert "1e0" in text and "1e-1" in text

    def test_escapes_labels(self, tmp_path):
        path = tmp_path / "p.svg"
        output.write_svg_loglog(
            path,
            [("a<b & c", [1, 2], [1.0, 0.5])],
            title="x < y",
            xlabel="n",
            ylabel="e",
        )
        ET.parse(path)
        assert "a&lt;b &amp; c" in path.read_text()

    @pytest.mark.parametrize(
        "text",
        ["", "plain", "a<b & c", "&amp; &lt;", "<<>>&&", "'single' \"double\"",
         "Tykhonov ‖u‖ ≤ ε & µ > 0", "κ<λ>&"],
    )
    def test_escape_matches_saxutils(self, text):
        assert output._escape(text) == escape(text)

    def test_nonpositive_points_dropped(self, tmp_path):
        path = tmp_path / "p.svg"
        output.write_svg_loglog(
            path,
            [("mixed", [1, 2, 3], [1.0, 0.0, 0.25]), ("gone", [1, 2], [0.0, 0.0])],
            title="t",
            xlabel="n",
            ylabel="e",
        )
        ET.parse(path)
        text = path.read_text()
        assert text.count("<circle") == 2
        assert "gone (no data)" in text

    def test_all_empty_series_still_valid(self, tmp_path):
        path = tmp_path / "p.svg"
        output.write_svg_loglog(
            path, [("zero", [1, 2], [0.0, 0.0])], title="t", xlabel="n", ylabel="e"
        )
        ET.parse(path)
        assert "no positive data to plot" in path.read_text()

    def test_deterministic_bytes(self, tmp_path):
        ns = list(range(1, 9))
        args = ([("e", ns, [0.3 / n for n in ns])],)
        kwargs = dict(title="t", xlabel="n", ylabel="e")
        output.write_svg_loglog(tmp_path / "a.svg", *args, **kwargs)
        output.write_svg_loglog(tmp_path / "b.svg", *args, **kwargs)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


class TestPinnedBytes:
    """sha256 of files written from literal inputs, recorded before the SVG
    writer was refactored: a changed byte in either writer fails here."""

    def _digest(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_svg_bytes(self, tmp_path):
        path = tmp_path / "p.svg"
        output.write_svg_loglog(
            path,
            [
                ("decay & <rate>", [1, 2, 4, 8], [0.5, 0.25, 0.125, 0.0625]),
                ("flat", [1, 2, 4, 8], [3e-3, 2.5e-3, 0.0, 2e-3]),
                ("none > 0", [1, 2], [0.0, -1.0]),
            ],
            title="a < b & c > d",
            xlabel="n & m",
            ylabel="<error>",
        )
        assert self._digest(path) == SVG_SHA256

    def test_svg_bytes_without_data(self, tmp_path):
        path = tmp_path / "p.svg"
        output.write_svg_loglog(
            path, [("zero", [1, 2], [0.0, 0.0])], title="t", xlabel="n", ylabel="e"
        )
        assert self._digest(path) == EMPTY_SVG_SHA256

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        output.write_csv(
            path,
            ["a", "b", "c"],
            [(None, True, 3), (np.float64(0.1), False, np.int64(-7)), (1e-300, "x,y", 2.5)],
        )
        assert self._digest(path) == CSV_SHA256
