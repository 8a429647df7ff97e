"""The shared JSON Lines reader and the four loaders built on it."""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dubkit import jsonl
from dubkit.corpus import EMOTIONS, ManifestError, load_manifest
from dubkit.metrics import load_pair_manifest
from dubkit.scoring import EmbeddingFormatError, RatingError, load_embeddings, load_ratings

import reference_jsonl
from helpers import at

LOADERS = {
    "pairs": (load_pair_manifest, ValueError, ("id", "generated", "reference")),
    "embeddings": (load_embeddings, EmbeddingFormatError, ("label", "id", "vector")),
    "manifest": (load_manifest, ManifestError,
                 ("movie_id", "clip_index", "speaker", "emotion", "text",
                  "start_ms", "end_ms")),
    "ratings": (load_ratings, RatingError, ("score",)),
}


# JSON text, built as strings so literals json.dumps never writes (1e999,
# 12.0 spelled out) can appear anywhere in a value
scalar_texts = st.one_of(
    st.sampled_from(["null", "true", "false", "NaN", "Infinity", "-Infinity",
                     "1e999", "-1e999", "12.0", "1.7", "0", "3"]),
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.one_of(st.text(max_size=6), st.sampled_from(EMOTIONS)).map(json.dumps),
)
field_names = st.one_of(
    st.sampled_from(sorted({key for *_, keys in LOADERS.values() for key in keys})),
    st.text(max_size=4))


def render_object(fields: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


json_texts = st.recursive(
    scalar_texts,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.dictionaries(field_names, inner, max_size=8).map(render_object)),
    max_leaves=12)
# objects that carry every field one loader requires, each of any type
complete_rows = st.sampled_from([keys for *_, keys in LOADERS.values()]).flatmap(
    lambda keys: st.fixed_dictionaries({k: json_texts for k in keys})).map(render_object)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=st.one_of(json_texts, complete_rows))
def test_any_json_line_loads_or_raises_located_error(tmp_path, name, line):
    loader, error, _ = LOADERS[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        loader(path)
    except error as exc:
        assert str(exc).startswith(f"{path}:1: "), str(exc)


# a valid row of each loader whose fields are text
TEXT_ROWS = {
    "pairs": {"id": "p1", "generated": "g.wav", "reference": "r.wav"},
    "embeddings": {"label": "a", "id": "1", "vector": [1.0]},
    "manifest": {"movie_id": "m", "clip_index": 1, "speaker": "s", "emotion": "sad",
                 "text": "t", "start_ms": 0, "end_ms": 10},
}
TEXT_FIELDS = [("pairs", "id"), ("pairs", "generated"), ("pairs", "reference"),
               ("embeddings", "label"), ("embeddings", "id"),
               ("manifest", "movie_id"), ("manifest", "speaker"),
               ("manifest", "emotion"), ("manifest", "text")]


class Raw(str):
    """A value written as the JSON text it holds, such as the number
    literal 1e999, which json.dumps never writes."""


@pytest.mark.parametrize("name, key", TEXT_FIELDS)
@pytest.mark.parametrize("value", [None, True, False, [1], {"a": 1}, float("nan"),
                                   float("inf"), float("-inf"), Raw("1e999")])
def test_text_field_is_a_string_or_a_number(tmp_path, name, key, value):
    # str() would read these as "None", "True", "[1]", "nan", "inf" ...
    loader, error, _ = LOADERS[name]
    row = TEXT_ROWS[name]
    path = tmp_path / "x.jsonl"
    fields = [{k: v if isinstance(v, Raw) else json.dumps(v) for k, v in r.items()}
              for r in (row, {**row, key: value})]
    path.write_text("".join(render_object(f) + "\n" for f in fields))
    with pytest.raises(error, match=at(path, 2) + f"{key} must be a string or a number$"):
        loader(path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_bad_row_after_blank_lines_is_located(tmp_path, name):
    loader, error, _ = LOADERS[name]
    path = tmp_path / "x.jsonl"
    path.write_text("\n\n[1, 2]\n")
    with pytest.raises(error, match=at(path, 3)):
        loader(path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_missing_field_is_named(tmp_path, name):
    loader, error, keys = LOADERS[name]
    path = tmp_path / "x.jsonl"
    path.write_text('{"unrelated": 1}\n')
    with pytest.raises(error, match=at(path, 1) + f"missing field '{keys[0]}'"):
        loader(path)


UTF8_BOM = b"\xef\xbb\xbf"


def two_valid_lines(name) -> list:
    if name == "ratings":
        return ["4.5", "3"]  # a single-column CSV
    row = TEXT_ROWS[name]
    return [json.dumps(row), json.dumps({**row, "movie_id" if name == "manifest" else "id": "2"})]


def comparable(loaded):
    # an EmbeddingSet holds a numpy matrix, compared here by its bytes
    return (loaded.labels, loaded.vectors.tobytes()) if hasattr(loaded, "vectors") else loaded


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_byte_order_mark_is_skipped_at_the_start_of_the_file_only(tmp_path, name):
    loader, error, _ = LOADERS[name]
    first, second = (line.encode() for line in two_valid_lines(name))
    plain, marked, late = (tmp_path / f"{stem}.txt" for stem in ("plain", "marked", "late"))
    plain.write_bytes(first + b"\n" + second + b"\n")
    marked.write_bytes(UTF8_BOM + first + b"\n" + second + b"\n")
    assert comparable(loader(marked)) == comparable(loader(plain))
    late.write_bytes(first + b"\n" + UTF8_BOM + second + b"\n")
    with pytest.raises(error, match=at(late, 2)):
        loader(late)


def test_text_is_a_string_or_a_number_as_its_text():
    row = {"s": "x", "i": 7, "f": 1.5, "e": 1e300, "b": True, "n": float("nan"),
           "p": float("inf"), "m": float("-inf"), "o": jsonl.parse_object('{"o": 1e999}')["o"]}
    assert [jsonl.text(row, key) for key in "sife"] == ["x", "7", "1.5", "1e+300"]
    for key in "bnpmo":
        with pytest.raises(ValueError, match=f"^{key} must be a string or a number$"):
            jsonl.text(row, key)


def parse_outcome(parse, text, required):
    try:
        # repr finds two NaN rows equal, where == does not, and tells 1 from 1.0 and True
        return "row", repr(parse(text, required))
    except Exception as exc:
        return type(exc), str(exc)


def render_pairs(pairs) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


# rows that json.loads rejects, each for its own reason
HOSTILE_ROWS = ['{"a": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000,
                '{"a": ' * 100_000 + "1" + "}" * 100_000]
# text around a row: JSON whitespace, what only str.strip takes as
# whitespace, and a byte order mark
row_padding = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x85\u2028\ufeff"), max_size=3)
parse_rows = st.builds(
    lambda before, body, after: before + body + after,
    st.one_of(st.just(""), row_padding),
    st.one_of(
        json_texts,  # any value, NaN, Infinity and 1e999 among them
        complete_rows,
        # duplicate keys: the last value wins, at the first key's place
        st.lists(st.tuples(st.sampled_from(["a", "id"]), json_texts), max_size=4)
        .map(render_pairs),
        st.sampled_from(HOSTILE_ROWS)),
    st.one_of(st.just(""), st.just("\n"), row_padding,
              # extra data after the row
              st.builds(str.__add__, row_padding, st.sampled_from(["{}", "1", "x", ",", "]"]))))


class TestParseObject:
    def test_oversized_integer_literal_is_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            jsonl.parse_object('{"a": ' + "9" * 5000 + "}")

    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            jsonl.parse_object("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("text", ['{"a": [1, {"b": null}]}', '{"a": 1}\n', "{}"])
    def test_a_plain_object_row_is_parsed_once(self, text):
        expected = json.loads(text)
        with mock.patch.object(json, "loads", side_effect=AssertionError("parsed twice")):
            assert jsonl.parse_object(text) == expected

    @settings(max_examples=400, deadline=None)
    @given(text=parse_rows, required=st.lists(st.sampled_from(["a", "id", ""]), max_size=2))
    def test_same_row_or_error_as_json_loads(self, text, required):
        assert (parse_outcome(jsonl.parse_object, text, required)
                == parse_outcome(reference_jsonl.parse_object, text, required))


def test_converter_bugs_are_not_relabelled(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("a\n")

    def broken(line):
        raise RuntimeError("bug")

    with pytest.raises(RuntimeError, match="^bug$"):
        jsonl.load_lines(path, broken)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_invalid_utf8_is_located(tmp_path, name):
    loader, error, _ = LOADERS[name]
    path = tmp_path / "x.jsonl"
    path.write_bytes(b"\n" + b'{"id": "caf\xe9"}\n')
    with pytest.raises(error, match=at(path, 2) + "'utf-8' codec can't decode"):
        loader(path)


def test_line_breaks_are_those_of_text_mode(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"a\r\nb\rc\n\r\xc3\xa9\r\nx")
    assert jsonl.load_lines(path, str.strip) == ["a", "b", "c", "\u00e9", "x"]

    def reject_x(line):
        if line == "x":
            raise ValueError("x")
        return line

    with pytest.raises(ValueError, match=at(path, 6) + "x$"):
        jsonl.load_lines(path, reject_x)
