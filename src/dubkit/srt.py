"""SubRip (.srt) subtitle parsing.

The grammar is the plain SubRip one: numbered cues separated by blank
lines, each with an "HH:MM:SS,mmm --> HH:MM:SS,mmm" timestamp line and one
or more text lines. Multi-line cue text is joined with single spaces. A cue
written in this grammar with its text on one line, trimmed, parses back to
exactly the number, span and text it was written with.
"""

import re

from .jsonl import INT64_END, excerpt

# [0-9], not \d: \d also matches non-ASCII digits such as Arabic-Indic ones
_TIMESTAMP_LINE = re.compile(
    r"^([0-9]{2,}):([0-9]{2}):([0-9]{2}),([0-9]{3})\s*-->\s*"
    r"([0-9]{2,}):([0-9]{2}):([0-9]{2}),([0-9]{3})$"
)
_CUE_NUMBER = re.compile(r"[0-9]+")


class SrtParseError(ValueError):
    """Malformed cue; the message names the entry and source line."""


def _parse_timestamp(field: tuple, entry_no: int, lineno: int) -> int:
    try:
        hours, minutes, seconds, millis = (int(x) for x in field)
    except ValueError:  # more digits than int() converts
        hours, minutes, seconds, millis = INT64_END, 0, 0, 0
    ms = ((hours * 60 + minutes) * 60 + seconds) * 1000 + millis
    if ms >= INT64_END:
        raise SrtParseError(f"entry {entry_no} (line {lineno}): "
                            "timestamp field too long")
    if minutes > 59 or seconds > 59:
        raise SrtParseError(f"entry {entry_no} (line {lineno}): "
                            f"minutes/seconds out of range in timestamp")
    return ms


def parse_srt(text: str) -> list[dict]:
    """Parse SRT text into cues in file order, each the object ``srt parse``
    writes: ``{"index", "start_ms", "end_ms", "text"}``.

    Tolerates a UTF-8 BOM and CRLF line endings. Cue numbers are taken as
    written (they need not be consecutive). Cue numbers and timestamp
    fields take ASCII digits only, and must fit int64 (timestamps in ms).
    """
    lines = text.lstrip("﻿").replace("\r\n", "\n").replace("\r", "\n").split("\n")

    # group nonblank runs into blocks, remembering 1-based start lines
    blocks = []
    current: list = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            current.append((lineno, line))
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)

    entries = []
    for entry_no, block in enumerate(blocks, start=1):
        index_lineno, index_line = block[0]
        number = index_line.strip()
        if not _CUE_NUMBER.fullmatch(number):
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): "
                                f"non-numeric cue number {excerpt(number)}")
        try:
            index = int(number)
        except ValueError:  # more digits than int() converts
            index = INT64_END
        if index >= INT64_END:  # the int64 bound of a manifest's clip_index
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): "
                                f"cue number too large ({len(number)} digits)")
        if index < 1:
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): "
                                f"cue number must be >= 1, got {index}")
        if len(block) < 2:
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): "
                                "missing timestamp line")
        ts_lineno, ts_line = block[1]
        match = _TIMESTAMP_LINE.match(ts_line.strip())
        if not match:
            raise SrtParseError(f"entry {entry_no} (line {ts_lineno}): "
                                f"malformed timestamp line {excerpt(ts_line.strip())}")
        start_ms = _parse_timestamp(match.groups()[:4], entry_no, ts_lineno)
        end_ms = _parse_timestamp(match.groups()[4:], entry_no, ts_lineno)
        if start_ms >= end_ms:
            raise SrtParseError(f"entry {entry_no} (line {ts_lineno}): "
                                f"start {start_ms} ms is not before end {end_ms} ms")
        text_joined = " ".join(line.strip() for _, line in block[2:]).strip()
        if not text_joined:
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): empty cue text")
        entries.append({"index": index, "start_ms": start_ms, "end_ms": end_ms,
                        "text": text_joined})
    return entries


def load_srt(path) -> list[dict]:
    """The cues of the SRT file at ``path``, as parse_srt returns them. A
    byte sequence that is not valid UTF-8 raises SrtParseError naming its
    1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        # lines end as parse_srt splits them: at \n, \r\n and a lone \r
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise SrtParseError(f"{path}:{lineno}: invalid UTF-8 byte "
                            f"0x{data[exc.start]:02x} ({exc.reason})") from None
    return parse_srt(text)

