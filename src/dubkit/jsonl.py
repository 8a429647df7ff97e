"""JSON Lines input shared by every dubkit loader: one JSON object per
non-blank line, each problem raised as the caller's error class with the
message ``"{path}:{lineno}: {problem}"``.
"""

import json

# the exclusive upper bound of a signed 64-bit integer
INT64_END = 2**63


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


def _raw_lines(fh):
    # the line breaks of text mode: \n, \r\n and a lone \r
    for raw in fh:
        if b"\r" in raw:
            yield from raw.splitlines()
        else:
            yield raw


def load_lines(path, convert, error=ValueError) -> list:
    """``convert(line)`` for each non-blank line of a UTF-8 file; a ValueError,
    invalid UTF-8 included, is re-raised as ``error`` with the location,
    formatted only then. Lines are decoded one at a time so that a bad byte
    is located."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(_raw_lines(fh), start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    out.append(convert(line))
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return out


def load_objects(path, convert, required, error=ValueError) -> list:
    """``convert(row)`` for each JSON object row, as in load_lines."""
    return load_lines(path, lambda line: convert(parse_object(line, required)), error)


def integer(row: dict, key: str) -> int:
    """``row[key]`` if it is an integral JSON number in the int64 range
    (``12`` or ``12.0``); booleans, fractions, non-finite values and
    strings raise ValueError."""
    value = row[key]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is int and -INT64_END <= value < INT64_END:
        return value
    raise ValueError(f"{key} must be an integer, got {row[key]!r}")


def text(row: dict, key: str) -> str:
    """``row[key]`` if it is a JSON string, a JSON number as its text ("7",
    "1.5"); null, booleans, arrays and objects raise ValueError."""
    value = row[key]
    if type(value) in (int, float):
        value = str(value)
    if type(value) is str:
        return value
    raise ValueError(f"{key} must be a string or a number")
