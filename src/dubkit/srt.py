"""SubRip (.srt) subtitle parsing and serialization.

The grammar is the plain SubRip one: numbered cues separated by blank
lines, each with an "HH:MM:SS,mmm --> HH:MM:SS,mmm" timestamp line and one
or more text lines. Multi-line cue text is joined with single spaces, so
parse(serialize(entries)) round-trips exactly.
"""

import re
from dataclasses import dataclass

_TIMESTAMP_LINE = re.compile(
    r"^(\d{2,}):(\d{2}):(\d{2}),(\d{3})\s*-->\s*(\d{2,}):(\d{2}):(\d{2}),(\d{3})$"
)


class SrtParseError(ValueError):
    """Malformed cue; the message names the entry and source line."""


@dataclass(frozen=True)
class SrtEntry:
    """One subtitle cue: sequential number, span in milliseconds, text."""

    index: int
    start_ms: int
    end_ms: int
    text: str


def _parse_timestamp(field: tuple, entry_no: int, lineno: int) -> int:
    try:
        hours, minutes, seconds, millis = (int(x) for x in field)
    except ValueError:  # more digits than int() converts
        raise SrtParseError(f"entry {entry_no} (line {lineno}): "
                            "timestamp field too long") from None
    if minutes > 59 or seconds > 59:
        raise SrtParseError(f"entry {entry_no} (line {lineno}): "
                            f"minutes/seconds out of range in timestamp")
    return ((hours * 60 + minutes) * 60 + seconds) * 1000 + millis


def parse_srt(text: str) -> list[SrtEntry]:
    """Parse SRT text into entries, in file order.

    Tolerates a UTF-8 BOM and CRLF line endings. Cue numbers are taken as
    written (they need not be consecutive).
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
        try:
            index = int(index_line.strip())
        except ValueError:
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): "
                                f"non-numeric cue number {index_line.strip()!r}") from None
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
                                f"malformed timestamp line {ts_line.strip()!r}")
        start_ms = _parse_timestamp(match.groups()[:4], entry_no, ts_lineno)
        end_ms = _parse_timestamp(match.groups()[4:], entry_no, ts_lineno)
        if start_ms >= end_ms:
            raise SrtParseError(f"entry {entry_no} (line {ts_lineno}): "
                                f"start {start_ms} ms is not before end {end_ms} ms")
        text_joined = " ".join(line.strip() for _, line in block[2:]).strip()
        if not text_joined:
            raise SrtParseError(f"entry {entry_no} (line {index_lineno}): empty cue text")
        entries.append(SrtEntry(index, start_ms, end_ms, text_joined))
    return entries


def format_timestamp(ms: int) -> str:
    hours, rem = divmod(ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, millis = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d},{millis:03d}"


def serialize_srt(entries) -> str:
    """Render entries back to SRT text (one blank line between cues)."""
    blocks = [
        f"{e.index}\n{format_timestamp(e.start_ms)} --> "
        f"{format_timestamp(e.end_ms)}\n{e.text}"
        for e in entries
    ]
    return "\n\n".join(blocks) + "\n" if blocks else ""
