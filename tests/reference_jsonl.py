"""``dubkit.jsonl``'s object reader as it stood before rows were scanned with
json's C scanner first: every row through ``json.loads`` alone. Kept as the
oracle that ``jsonl.parse_object`` must match (an equal row, or the same
error type and message) and that ``reference_scoring`` builds its rows
with. Test-only; not imported by dubkit.
"""

import io
import json

UTF8_BOM = b"\xef\xbb\xbf"


def parse_object(text: str, required=()) -> dict:
    """One JSON object holding every ``required`` key, else ValueError."""
    try:
        row = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(row, dict):
        raise ValueError("row is not an object")
    for key in required:
        if key not in row:
            raise ValueError(f"missing field {key!r}")
    return row


def load_objects(path, convert, required, error=ValueError) -> list:
    """``convert(parse_object(line, required))`` for each non-blank line of a
    UTF-8 file, each ValueError raised as ``error("{path}:{lineno}: ...")``.
    Lines are framed as a binary file iterates them, ending at ``\\n`` and
    keeping it; one that holds a ``\\r`` is split again by
    ``bytes.splitlines``, which drops the ends. A byte order mark that
    starts the file is skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(UTF8_BOM):
        data = data[len(UTF8_BOM):]
    pieces = [part for raw in io.BytesIO(data)
              for part in (raw.splitlines() if b"\r" in raw else [raw])]
    out = []
    for lineno, raw in enumerate(pieces, start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                out.append(convert(parse_object(line, required)))
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
    return out
