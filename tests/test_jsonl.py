"""The shared JSON Lines reader and the four loaders built on it."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dubkit import jsonl
from dubkit.corpus import EMOTIONS, ManifestError, load_manifest
from dubkit.metrics import load_pair_manifest
from dubkit.scoring import EmbeddingFormatError, RatingError, load_embeddings, load_ratings

from helpers import at
from helpers import jsonl as write_rows

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


@pytest.mark.parametrize("name, key", TEXT_FIELDS)
@pytest.mark.parametrize("value", [None, True, False, [1], {"a": 1}])
def test_text_field_is_a_string_or_a_number(tmp_path, name, key, value):
    # str() would read these as "None", "True", "[1]" ...
    loader, error, _ = LOADERS[name]
    row = TEXT_ROWS[name]
    path = write_rows(tmp_path / "x.jsonl", [row, {**row, key: value}])
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


def test_text_is_a_string_or_a_number_as_its_text():
    row = {"s": "x", "i": 7, "f": 1.5, "e": 1e300, "b": True}
    assert [jsonl.text(row, key) for key in "sife"] == ["x", "7", "1.5", "1e+300"]
    with pytest.raises(ValueError, match="^b must be a string or a number$"):
        jsonl.text(row, "b")


class TestParseObject:
    def test_oversized_integer_literal_is_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            jsonl.parse_object('{"a": ' + "9" * 5000 + "}")

    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            jsonl.parse_object("[" * 100_000 + "]" * 100_000)


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
