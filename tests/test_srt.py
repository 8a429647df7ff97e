import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit.srt import SrtEntry, SrtParseError, format_timestamp, parse_srt, \
    serialize_srt

SIMPLE = """1
00:00:01,000 --> 00:00:02,500
Hello there
"""


class TestParse:
    def test_single_entry(self):
        entries = parse_srt(SIMPLE)
        assert entries == [SrtEntry(1, 1000, 2500, "Hello there")]

    def test_high_cue_number_kept(self):
        text = "1340\n01:23:47,129 --> 01:23:49,500\nWhat do you want?\n"
        entries = parse_srt(text)
        assert entries[0].index == 1340
        assert entries[0].start_ms == 5027129

    def test_multiline_text_joined_with_spaces(self):
        text = "7\n00:00:01,000 --> 00:00:02,000\nfirst line\nsecond line\n"
        assert parse_srt(text)[0].text == "first line second line"

    def test_crlf_and_bom_tolerated(self):
        text = "﻿1\r\n00:00:01,000 --> 00:00:02,000\r\nhi\r\n\r\n2\r\n00:00:03,000 --> 00:00:04,000\r\nyo\r\n"
        entries = parse_srt(text)
        assert [e.index for e in entries] == [1, 2]

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

    def test_empty_text_rejected(self):
        text = "1\n00:00:01,000 --> 00:00:02,000\n\n"
        with pytest.raises(SrtParseError, match="missing timestamp|empty"):
            parse_srt(text)

    def test_empty_input_gives_no_entries(self):
        assert parse_srt("") == []
        assert parse_srt("\n\n\n") == []


class TestSerialize:
    def test_empty_list(self):
        assert serialize_srt([]) == ""

    def test_exactly_one_blank_line_between_cues(self):
        entries = [SrtEntry(1, 0, 1000, "a"), SrtEntry(2, 2000, 3000, "b")]
        text = serialize_srt(entries)
        assert text == "1\n00:00:00,000 --> 00:00:01,000\na\n\n2\n00:00:02,000 --> 00:00:03,000\nb\n"

    def test_round_trip_fig_style_fixture(self):
        entries = [
            SrtEntry(726, 2750321, 2752000, "Where are you going?"),
            SrtEntry(1340, 5027129, 5029500, "I know that feeling."),
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
        entries.append(SrtEntry(k + 1, start, start + length,
                                draw(cue_text).strip() or "x"))
    return entries


@given(srt_entries())
@settings(max_examples=150)
def test_parse_serialize_round_trip(entries):
    assert parse_srt(serialize_srt(entries)) == entries
