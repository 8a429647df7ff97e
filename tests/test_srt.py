import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit.srt import SrtParseError, load_srt, parse_srt

from helpers import cue, format_timestamp, serialize_srt

SIMPLE = """1
00:00:01,000 --> 00:00:02,500
Hello there
"""


class TestParse:
    def test_single_entry(self):
        entries = parse_srt(SIMPLE)
        assert entries == [cue(1, 1000, 2500, "Hello there")]
        assert parse_srt(SIMPLE.rstrip("\n")) == entries  # no newline after the last cue

    def test_high_cue_number_kept(self):
        text = "1340\n01:23:47,129 --> 01:23:49,500\nWhat do you want?\n"
        entries = parse_srt(text)
        assert entries[0]["index"] == 1340
        assert entries[0]["start_ms"] == 5027129

    def test_multiline_text_joined_with_spaces(self):
        text = "7\n00:00:01,000 --> 00:00:02,000\nfirst line\nsecond line\n"
        assert parse_srt(text)[0]["text"] == "first line second line"

    def test_crlf_and_bom_tolerated(self):
        text = "﻿1\r\n00:00:01,000 --> 00:00:02,000\r\nhi\r\n\r\n2\r\n00:00:03,000 --> 00:00:04,000\r\nyo\r\n"
        entries = parse_srt(text)
        assert [e["index"] for e in entries] == [1, 2]

    def test_multiple_blank_separators(self):
        text = "1\n00:00:01,000 --> 00:00:02,000\na\n\n\n\n2\n00:00:03,000 --> 00:00:04,000\nb\n"
        assert len(parse_srt(text)) == 2

    def test_ordering_error_names_entry(self):
        text = "1\n00:00:02,500 --> 00:00:01,000\nbackwards\n"
        with pytest.raises(SrtParseError, match="entry 1"):
            parse_srt(text)

    def test_non_numeric_index(self):
        text = "one\n00:00:01,000 --> 00:00:02,000\nhi\n"
        with pytest.raises(SrtParseError, match="non-numeric"):
            parse_srt(text)

    def test_malformed_timestamp_names_entry_and_line(self):
        text = "1\n00:00:01,000 --> 00:00:02,000\nfine\n\n2\n00:00:03.000 --> 00:00:04,000\nbad dot\n"
        with pytest.raises(SrtParseError, match=r"entry 2 \(line 6\)"):
            parse_srt(text)

    def test_minutes_out_of_range(self):
        text = "1\n00:61:01,000 --> 00:62:02,000\nhi\n"
        with pytest.raises(SrtParseError, match="out of range"):
            parse_srt(text)

    def test_overlong_hours_field(self):
        # int() refuses strings of more than 4300 digits
        text = "1\n" + "9" * 5000 + ":00:01,000 --> 00:00:02,000\nhi\n"
        with pytest.raises(SrtParseError, match=r"entry 1 \(line 2\): timestamp field too long"):
            parse_srt(text)

    def test_largest_int64_cue_number_parses(self):
        text = "9223372036854775807\n00:00:01,000 --> 00:00:02,000\nhi\n"
        assert parse_srt(text)[0]["index"] == 2**63 - 1

    @pytest.mark.parametrize("number", ["9223372036854775808", "9" * 20, "9" * 5000],
                             ids=["2**63", "20-nines", "5000-nines"])
    def test_cue_number_must_fit_int64(self, number):
        text = ("1\n00:00:01,000 --> 00:00:02,000\nfine\n\n"
                f"{number}\n00:00:03,000 --> 00:00:04,000\nhi\n")
        message = rf"^entry 2 \(line 5\): cue number too large \({len(number)} digits\)$"
        with pytest.raises(SrtParseError, match=message):
            parse_srt(text)

    @pytest.mark.parametrize("cue,message", [
        ("0\n00:00:03,000 --> 00:00:04,000\nhi\n", "cue number must be >= 1, got 0"),
        ("2\n", "missing timestamp line"),
    ], ids=["cue-zero", "no-timestamp-line"])
    def test_bad_cue_names_entry_and_line(self, cue, message):
        text = f"1\n00:00:01,000 --> 00:00:02,000\nfine\n\n{cue}"
        with pytest.raises(SrtParseError, match=rf"^entry 2 \(line 5\): {message}$"):
            parse_srt(text)

    def test_timestamps_must_fit_int64_milliseconds(self):
        largest = format_timestamp(2**63 - 1)
        assert parse_srt(f"1\n00:00:01,000 --> {largest}\nhi\n")[0]["end_ms"] == 2**63 - 1
        text = f"1\n00:00:01,000 --> {format_timestamp(2**63)}\nhi\n"
        with pytest.raises(SrtParseError, match=r"entry 1 \(line 2\): timestamp field too long"):
            parse_srt(text)

    @pytest.mark.parametrize("number,timestamp,lineno", [
        ("1_0", "00:00:03,000 --> 00:00:04,000", 5),
        ("+5", "00:00:03,000 --> 00:00:04,000", 5),
        ("\u0665", "00:00:03,000 --> 00:00:04,000", 5),
        ("9" * 5000, "00:00:03,000 --> 00:00:04,000", 5),
        ("x" * 5000, "00:00:03,000 --> 00:00:04,000", 5),
        ("2", "\u0660\u0660:00:03,000 --> 00:00:04,000", 6),
        ("2", "00:00:03,000 --> 00:00:0\u0664,000", 6),
        ("2", "\u0660" * 5000 + ":00:03,000 --> 00:00:04,000", 6),
        ("2", "9" * 400 + ":00:03,000 --> 00:00:04,000", 6),
    ], ids=["underscore", "plus-sign", "arabic-indic-cue", "5000-digit-cue",
            "5000-char-cue", "arabic-indic-hours", "arabic-indic-seconds",
            "5000-arabic-indic-hours", "400-digit-hours"])
    def test_numbers_take_ascii_digits_only(self, number, timestamp, lineno):
        text = f"1\n00:00:01,000 --> 00:00:02,000\nfine\n\n{number}\n{timestamp}\nhi\n"
        with pytest.raises(SrtParseError, match=rf"^entry 2 \(line {lineno}\): ") as excinfo:
            parse_srt(text)
        assert len(str(excinfo.value)) < 120  # a huge line is not echoed whole

    def test_empty_text_rejected(self):
        text = "1\n00:00:01,000 --> 00:00:02,000\n\n"
        with pytest.raises(SrtParseError, match="missing timestamp|empty"):
            parse_srt(text)

    def test_empty_input_gives_no_entries(self):
        assert parse_srt("") == []
        assert parse_srt("\n\n\n") == []


class TestLoad:
    def test_reads_what_parse_srt_parses(self, tmp_path):
        data = "\ufeff1\r\n00:00:01,000 --> 00:00:02,500\r\nCafé\r\n\r\n2\r00:00:03,000 --> 00:00:04,000\rb\r"
        path = tmp_path / "s.srt"
        path.write_bytes(data.encode("utf-8"))
        assert load_srt(path) == parse_srt(data) == [cue(1, 1000, 2500, "Café"),
                                                     cue(2, 3000, 4000, "b")]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\r\r\n"])
    @pytest.mark.parametrize("bad,reason", [(b"\xff", "0xff (invalid start byte)"),
                                            (b"\xc3", "0xc3 (invalid continuation byte)"),
                                            (b"\xe2\x82", "0xe2 (invalid continuation byte)")])
    def test_invalid_utf8_names_its_line(self, tmp_path, newline, bad, reason):
        # the bad bytes sit on the line parse_srt would report as line 3
        lines = ["1", "00:00:01,000 --> 00:00:02,500", "Hello", "", "2"]
        head = newline.join(lines[:2]).encode() + newline.encode()
        path = tmp_path / "bad.srt"
        path.write_bytes(head + b"Hel" + bad + b"lo" + newline.join([""] + lines[3:]).encode())
        lineno = 3 if newline != "\r\r\n" else 5  # \r\r\n is a lone \r, then \r\n
        with pytest.raises(SrtParseError) as excinfo:
            load_srt(path)
        assert str(excinfo.value) == f"{path}:{lineno}: invalid UTF-8 byte {reason}"

    def test_sequence_cut_at_the_end_of_the_file(self, tmp_path):
        path = tmp_path / "cut.srt"
        path.write_bytes(SIMPLE.encode() + b"\xe2\x82")
        with pytest.raises(SrtParseError, match=r":4: invalid UTF-8 byte 0xe2 "
                                                r"\(unexpected end of data\)"):
            load_srt(path)


class TestSerialize:
    def test_empty_list(self):
        assert serialize_srt([]) == ""

    def test_exactly_one_blank_line_between_cues(self):
        entries = [cue(1, 0, 1000, "a"), cue(2, 2000, 3000, "b")]
        text = serialize_srt(entries)
        assert text == "1\n00:00:00,000 --> 00:00:01,000\na\n\n2\n00:00:02,000 --> 00:00:03,000\nb\n"

    def test_round_trip_fig_style_fixture(self):
        entries = [
            cue(726, 2750321, 2752000, "Where are you going?"),
            cue(1340, 5027129, 5029500, "I know that feeling."),
        ]
        assert parse_srt(serialize_srt(entries)) == entries

    def test_timestamp_formatting(self):
        assert format_timestamp(0) == "00:00:00,000"
        assert format_timestamp(5027129) == "01:23:47,129"
        assert format_timestamp(3_600_000 * 100) == "100:00:00,000"


cue_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=30)


@st.composite
def srt_entries(draw):
    n = draw(st.integers(1, 12))
    entries = []
    for k in range(n):
        start = draw(st.integers(0, 10_000_000))
        length = draw(st.integers(1, 60_000))
        entries.append(cue(k + 1, start, start + length, draw(cue_text).strip() or "x"))
    return entries


@given(srt_entries())
@settings(max_examples=150)
def test_parse_serialize_round_trip(entries):
    assert parse_srt(serialize_srt(entries)) == entries
