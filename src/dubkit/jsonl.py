"""JSON Lines input shared by every dubkit loader: one JSON object per
non-blank line, each problem raised as the caller's error class with the
message ``"{path}:{lineno}: {problem}"``; a bad value is quoted in a
message through ``excerpt``.
"""

import json
import math
import os
import stat
from functools import partial

# the exclusive upper bound of a signed 64-bit integer
INT64_END = 2**63

# json's own scanner, which json.loads runs after skipping leading whitespace
_scan = json.JSONDecoder().scan_once


def excerpt(value) -> str:
    """repr of ``value`` for an error message, cut so that a huge value is not
    echoed whole: a string to its first 40 characters, any other value's repr
    to 40 characters."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def parse_object(text: str, required=()) -> dict:
    """One JSON object holding every ``required`` key, else ValueError.

    A row that is one object from its first character to its end, or to a
    final ``\\n``, is scanned once; every other row goes through
    ``json.loads``, so each message comes from one path."""
    try:
        row, end = _scan(text, 0)
    except (StopIteration, ValueError, RecursionError):
        row = end = None
    if type(row) is not dict or end != len(text) and text[end:] != "\n":
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


# the least bytes fold_lines cuts a part of a file to: a file under about
# twice this took longer in two parts than in one
_PART_BYTES = 256 * 1024


class _BadLine(Exception):
    """(line number in its part, message) of a line that failed to decode
    or convert."""


def load_lines(path, convert, error=ValueError) -> list:
    """``convert(line)`` for each non-blank line of a UTF-8 file; a ValueError,
    invalid UTF-8 included, is re-raised as ``error`` with the location,
    formatted only then. Lines are decoded one at a time so that a bad byte
    is located. A byte order mark that starts the file is skipped."""
    return _fold_parts(path, convert, list, error, 1)[0]


def fold_lines(path, convert, fold, error=ValueError) -> list:
    """``fold(values)`` of each part of a file in file order, values being
    ``convert(line)`` of its non-blank lines as in load_lines. A regular file
    has a part per usable CPU, each at least _PART_BYTES long and starting
    after a ``\\n``: part 0 is folded here, each later one in a forked child
    (_fork._ForkedCall). A pipe or other file is one part."""
    from ._fork import _usable_cpus  # the one-part readers load no fork code

    return _fold_parts(path, convert, fold, error, _usable_cpus())


def _fold_parts(path, convert, fold, error, cpus: int) -> list:
    starts = [0]
    if cpus > 1 and stat.S_ISREG((info := os.stat(path)).st_mode):
        from ._fork import _ForkedCall  # bound whenever there is a later part

        starts = _part_starts(path, info.st_size, min(cpus, info.st_size // _PART_BYTES))
    # the first bad line in file order is raised: a part's only once every
    # part before it is clean and its lines are counted
    stops = [*starts[1:], None]
    children = []
    try:
        for start, stop in zip(starts[1:], stops[1:]):
            children.append(_ForkedCall(_fold_part, path, start, stop, convert, fold))
        results, offset = [], 0
        for part in [partial(_fold_part, path, 0, stops[0], convert, fold), *children]:
            try:
                n_lines, result = part()
            except _BadLine as exc:
                raise error(f"{path}:{offset + exc.args[0]}: {exc.args[1]}") from None
            results.append(result)
            offset += n_lines
        return results
    finally:
        for child in children:
            child.close()


def _part_starts(path, size: int, parts: int) -> list:
    """0, then the offset after the first ``\\n`` at or past k/parts of the
    file and _PART_BYTES past the last offset, unless that leaves less."""
    starts = [0]
    with open(path, "rb") as fh:
        for k in range(1, parts):
            fh.seek(max(size * k // parts, starts[-1] + _PART_BYTES) - 1)
            fh.readline()
            if fh.tell() + _PART_BYTES > size:
                break
            starts.append(fh.tell())
    return starts


def _fold_part(path, start: int, stop, convert, fold) -> tuple:
    """(lines read, ``fold(values)``) of the lines of bytes ``start`` to
    ``stop`` (None: the end) as text mode breaks them (\\n, \\r\\n, \\r)."""
    lineno = 0

    def values(fh):
        nonlocal lineno
        left = math.inf if stop is None else stop - fh.tell()
        for raw in fh:
            for piece in raw.splitlines() if b"\r" in raw else (raw,):
                lineno += 1
                try:
                    line = piece.decode("utf-8")
                    if not line.strip():
                        continue
                    value = convert(line)
                except ValueError as exc:
                    raise _BadLine(lineno, str(exc)) from None
                yield value
            left -= len(raw)
            if left <= 0:
                return

    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        # a UTF-8 byte order mark, as a spreadsheet's "CSV UTF-8" export writes
        elif fh.peek(3).startswith(b"\xef\xbb\xbf"):
            fh.read(3)
        result = fold(values(fh))
    return lineno, result


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
    raise ValueError(f"{key} must be an integer, got {excerpt(row[key])}")


def text(row: dict, key: str) -> str:
    """``row[key]`` if it is a JSON string, a finite JSON number as its text
    ("7", "1.5"); null, booleans, arrays, objects and NaN, Infinity or an
    overflowing literal such as 1e999 raise ValueError."""
    value = row[key]
    if type(value) is int or type(value) is float and math.isfinite(value):
        value = str(value)
    if type(value) is str:
        return value
    raise ValueError(f"{key} must be a string or a number")
