import json
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit.scoring import (EmbeddingFormatError, EmbeddingSet, RatingError,
                            accuracy, build_centroids, load_embeddings, load_ratings,
                            mos_aggregate)

import reference_scoring as reference
from helpers import at, brute_force_accuracy, embeddings, jsonl


def queries(labels, vectors):
    """A test set built directly, so its vectors skip the loader's checks and
    normalization and reach ``accuracy`` as they are."""
    return EmbeddingSet(tuple(labels), np.array(vectors, dtype=np.float64))


class TestLoadEmbeddings:
    def test_vectors_normalized_on_load(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl",
                     [{"label": "a", "id": "1", "vector": [3.0, 4.0]}])
        es = load_embeddings(path)
        assert es.dim == 2
        assert es.labels == ("a",)
        assert np.allclose(es.vectors[0], [0.6, 0.8], atol=1e-12)

    def test_ragged_dimensions_name_line(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl", [
            {"label": "a", "id": "1", "vector": [1.0, 0.0, 0.0, 0.0]},
            {"label": "a", "id": "2", "vector": [1.0, 0.0, 0.0, 0.0, 0.0]},
        ])
        with pytest.raises(EmbeddingFormatError, match=at(path, 2)):
            load_embeddings(path)

    def test_empty_file_is_empty_set(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        es = load_embeddings(path)
        assert len(es) == 0
        assert es.dim is None

    def test_zero_vector_rejected(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl",
                     [{"label": "a", "id": "1", "vector": [0.0, 0.0]}])
        with pytest.raises(EmbeddingFormatError, match="zero vector"):
            load_embeddings(path)

    @pytest.mark.parametrize("vector,unit", [
        ([1e200, 0.0], [1.0, 0.0]),  # the sum of squares overflows
        ([1e-200, 0.0], [1.0, 0.0]),  # it underflows to zero
        ([5e-324, 5e-324], [0.5**0.5] * 2),  # the norm is subnormal
        ([1.7e308, 1.7e308], [0.5**0.5] * 2),  # the norm is beyond the float range
    ])
    def test_extreme_magnitudes_normalized(self, vector, unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es = embeddings([("a", "1", vector), ("b", "1", [0.0, 1.0])])
            model = build_centroids(es)
        assert np.allclose(es.vectors[0], unit, rtol=0.0, atol=1e-15)
        assert model.labels == ("a", "b")

    def test_duplicate_label_id_rejected(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl", [
            {"label": "a", "id": "1", "vector": [1.0, 0.0]},
            {"label": "a", "id": "1", "vector": [0.0, 1.0]},
        ])
        with pytest.raises(EmbeddingFormatError, match="duplicate"):
            load_embeddings(path)

    @pytest.mark.parametrize("field", ["label", "id"])
    @pytest.mark.parametrize("value", ["null", "true", "[1]", '{"a": 1}'])
    def test_non_scalar_label_or_id_names_line(self, tmp_path, field, value):
        # a null read through str() would be "None", the first row's real label
        row = {"label": '"None"', "id": '"2"'}
        row[field] = value
        path = tmp_path / "e.jsonl"
        path.write_text('{"label": "None", "id": "1", "vector": [1.0, 0.0]}\n'
                        '{"label": %(label)s, "id": %(id)s, "vector": [0.0, 1.0]}\n' % row)
        with pytest.raises(EmbeddingFormatError,
                           match=at(path, 2) + f"{field} must be a string or a number$"):
            load_embeddings(path)

    def test_number_label_and_id_are_text(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl", [{"label": 7, "id": 1.5, "vector": [1.0]},
                                            {"label": "7", "id": "2", "vector": [1.0]}])
        assert load_embeddings(path).labels == ("7", "7")

    def test_missing_field_names_line(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl", [{"label": "a", "vector": [1.0]}])
        with pytest.raises(EmbeddingFormatError,
                           match=at(path, 1) + "missing field 'id'"):
            load_embeddings(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"label": "a", "id": "1", "vector": [1.0]}\nnot json\n')
        with pytest.raises(EmbeddingFormatError, match=at(path, 2) + "invalid JSON"):
            load_embeddings(path)

    def test_non_numeric_vector_names_line(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl",
                     [{"label": "a", "id": "1", "vector": ["x", "y"]}])
        with pytest.raises(EmbeddingFormatError, match=at(path, 1) + ".*not numeric"):
            load_embeddings(path)

    @pytest.mark.parametrize("vector", [["1.0", "0.5"], [True, False], [1.0, True, 0.5],
                                        [0.5, "2"]])
    def test_vector_of_strings_or_booleans_names_line(self, tmp_path, vector):
        # numpy would read these as [1.0, 0.5] and [1.0, 0.0]
        path = jsonl(tmp_path / "e.jsonl", [{"label": "a", "id": "1", "vector": [1.0, 0.0]},
                                            {"label": "a", "id": "2", "vector": vector}])
        with pytest.raises(EmbeddingFormatError, match=at(path, 2) + "vector is not numeric$"):
            load_embeddings(path)

    @staticmethod
    def peak_of_load(path, vectors):
        with open(path, "w") as fh:
            for k, vector in enumerate(vectors.tolist()):
                fh.write(json.dumps({"label": f"spk{k % 50}", "id": str(k),
                                     "vector": vector}) + "\n")
        tracemalloc.start()
        try:
            es = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert es.vectors.shape == vectors.shape
        return peak / es.vectors.nbytes

    def test_peak_memory_is_about_twice_the_matrix(self, tmp_path, rng):
        # the stacked rows and the normalized result; holding the per-row
        # arrays as well would make it about 3.2x
        vectors = rng.standard_normal((2000, 192))
        assert self.peak_of_load(tmp_path / "e.jsonl", vectors) < 2.7

    def test_one_overflowing_row_is_rescaled_alone(self, tmp_path, rng):
        # sending every row through the rescaling temporaries made it about 5x
        vectors = rng.standard_normal((2000, 192))
        vectors[7, 3] = 1e200
        assert self.peak_of_load(tmp_path / "e.jsonl", vectors) < 2.7


class TestBuildCentroids:
    def test_single_member_centroid_is_the_unit_vector(self):
        es = embeddings([("a", "1", [3.0, 4.0])])
        model = build_centroids(es)
        assert np.allclose(model.centroids["a"], [0.6, 0.8], atol=1e-12)

    def test_opposite_vectors_flagged_degenerate(self):
        es = embeddings([("a", "1", [1.0, 0.0]), ("a", "2", [-1.0, 0.0])])
        model = build_centroids(es)
        assert "a" not in model.labels
        assert np.allclose(model.centroids["a"], [0.0, 0.0], atol=1e-12)

    def test_mean_of_two_axes(self):
        es = embeddings([("a", "1", [1.0, 0.0]), ("a", "2", [0.0, 1.0])])
        model = build_centroids(es)
        assert np.allclose(model.centroids["a"], [0.5, 0.5], atol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            build_centroids(EmbeddingSet((), np.empty((0, 0))))

    def test_units_are_the_sorted_labels_at_unit_length(self):
        es = embeddings([("b", "1", [3.0, 4.0]), ("a", "1", [1.0, 0.0]),
                         ("a", "2", [0.0, 1.0]), ("z", "1", [0.0, 2.0]),
                         ("z", "2", [0.0, -2.0])])
        model = build_centroids(es)
        assert model.labels == ("a", "b")
        assert sorted(model.centroids) == ["a", "b", "z"]
        assert np.allclose(model.units, [[0.5**0.5, 0.5**0.5], [0.6, 0.8]], atol=1e-12)
        assert model.dim == 2


class TestClassify:
    """Nearest-centroid classification of single queries, seen through
    ``accuracy``: 100 when the query's own label wins, else 0."""

    def model(self):
        return build_centroids(embeddings([
            ("e1", "1", [1.0, 0.0]),
            ("e2", "1", [0.0, 1.0]),
        ]))

    def test_query_equal_to_centroid(self):
        assert accuracy(queries(["e1"], [[1.0, 0.0]]), self.model()) == 100.0

    def test_hand_case(self):
        # cosine(v, e1) = 0.9939, cosine(v, e2) = 0.1104
        v = np.array([0.9, 0.1]) / np.hypot(0.9, 0.1)
        model = self.model()
        assert accuracy(queries(["e1"], [v]), model) == 100.0
        assert accuracy(queries(["e2"], [v]), model) == 0.0

    def test_orthogonal_query_breaks_tie_lexicographically(self):
        model = build_centroids(embeddings([
            ("b", "1", [1.0, 0.0, 0.0]),
            ("a", "1", [0.0, 1.0, 0.0]),
        ]))
        assert accuracy(queries(["a"], [[0.0, 0.0, 1.0]]), model) == 100.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40)
    def test_invariant_to_positive_scaling(self, scale):
        model = build_centroids(embeddings([
            ("x", "1", [0.8, 0.2, 0.1]),
            ("y", "1", [-0.3, 0.9, 0.2]),
        ]))
        v = np.array([0.5, 0.4, -0.2])
        assert accuracy(queries(["x"], [v * scale]), model) == 100.0

    @pytest.mark.parametrize("query,label", [
        ([0.0, 1e200], "e2"), ([0.0, 1e-200], "e2"), ([1.7e308, 0.0], "e1"),
    ])
    def test_extreme_query_magnitudes(self, query, label):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert accuracy(queries([label], [query]), self.model()) == 100.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="query dimension"):
            accuracy(embeddings([("e1", "1", [1.0, 0.0, 0.0])]), self.model())

    def test_zero_query_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            accuracy(queries(["e1", "e2"], [[1.0, 0.0], [0.0, 0.0]]), self.model())

    def test_all_degenerate_rejected(self):
        model = build_centroids(embeddings([
            ("a", "1", [1.0, 0.0]), ("a", "2", [-1.0, 0.0]),
        ]))
        with pytest.raises(ValueError, match="degenerate"):
            accuracy(embeddings([("a", "1", [1.0, 0.0])]), model)

    def test_degenerate_label_never_predicted(self):
        # "a" nearly cancels to (0, 1e-13): scaled to unit length it would win along +y
        model = build_centroids(embeddings([
            ("a", "1", [1.0, 1e-13]), ("a", "2", [-1.0, 1e-13]), ("b", "1", [1.0, 0.0]),
        ]))
        assert model.labels == ("b",)
        vectors = ([0.0, 1.0], [-1.0, 0.0], [0.3, 0.7])
        assert accuracy(queries(["b"] * 3, vectors), model) == 100.0
        assert accuracy(queries(["a"] * 3, vectors), model) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            accuracy(queries(["e1", "e2"], [[1.0, 0.0], [bad, 0.0]]), self.model())

    @pytest.mark.parametrize("query", [[[1.0, 0.0]], 1.0])
    def test_query_must_be_one_vector(self, query):
        with pytest.raises(ValueError, match="query dimension"):
            accuracy(queries(["e1"], [query]), self.model())


def tied_model(rng, n_labels, dim, first, second, n_queries):
    """Labels L00..; ``second`` has exactly the same member, so the same
    centroid, as ``first``. The other centroids point away from +x, where
    the tied pair points."""
    shared = np.zeros(dim)
    shared[0] = 1.0
    shared[1:] = 0.1 * rng.normal(size=dim - 1)
    rows = []
    for i in range(n_labels):
        if i in (first, second):
            vector = shared
        else:
            vector = rng.normal(size=dim)
            vector[0] = -abs(vector[0]) - 0.5
        rows.append((f"L{i:02d}", "1", vector.tolist()))
    vectors = shared + 0.05 * rng.normal(size=(n_queries, dim))
    return build_centroids(embeddings(rows)), vectors


class TestExactTies:
    def check(self, rng, n_labels, dim, first, second, n_queries):
        model, vectors = tied_model(rng, n_labels, dim, first, second, n_queries)
        assert np.array_equal(model.units[first], model.units[second])
        # 100 only if every query goes to the smaller of the two tied labels
        assert accuracy(queries([f"L{first:02d}"] * n_queries, vectors), model) == 100.0

    def test_three_labels_dim_sixteen_one_query(self, rng):
        for _ in range(20):
            for first, second in ((0, 1), (0, 2), (1, 2)):
                self.check(rng, 3, 16, first, second, 1)

    @given(st.integers(2, 70), st.integers(3, 256), st.data())
    @settings(max_examples=60, deadline=None)
    def test_smaller_label_wins_at_any_position(self, n_labels, dim, data):
        first = data.draw(st.integers(0, n_labels - 2))
        second = data.draw(st.integers(first + 1, n_labels - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        self.check(rng, n_labels, dim, first, second, data.draw(st.integers(1, 40)))


# entries whose sum of squares overflows, underflows or is subnormal
EXTREMES = (1e200, -1e200, 1e-200, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.0)


def _bad_line(kind, dim, earlier):
    """One line that fails the loader as ``kind`` does; a duplicate repeats
    the first line, so it needs one before it."""
    if kind == "duplicate" and earlier:
        return earlier[0]
    row = {"label": "bad", "id": "x", "vector": [1.0] * dim}
    if kind == "not numeric":
        row["vector"] = ["x"] * dim
    elif kind == "nested":
        row["vector"] = [[1.0]] * dim
    elif kind == "empty":
        row["vector"] = []
    elif kind == "dimension":
        row["vector"] = [1.0] * (dim + 1)
    elif kind == "zero":
        row["vector"] = [0.0] * dim
    elif kind == "missing field":
        del row["id"]
    text = json.dumps(row)
    if kind == "non-finite":
        text = text.replace("1.0", "NaN" if dim % 2 else "1e999", 1)
    return {"invalid JSON": text[:-3], "not an object": "[1, 2]"}.get(kind, text)


@st.composite
def embedding_files(draw, dim):
    """The bytes of an embedding file: valid rows with extreme magnitudes
    mixed in, 0-2 bad rows at random lines, blank lines, LF and CRLF."""
    entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(EXTREMES))
    lines = []
    for i in range(draw(st.integers(0, 12))):
        vector = draw(st.lists(entry, min_size=dim, max_size=dim))
        if not any(vector):
            vector[0] = 1.0
        label = draw(st.sampled_from(["a", "b", "c", 7, 2.5]))
        lines.append(json.dumps({"label": label, "id": str(i), "vector": vector}))
    kinds = ["not numeric", "nested", "empty", "non-finite", "dimension", "zero",
             "duplicate", "missing field", "invalid JSON", "not an object"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), _bad_line(kind, dim, lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)).encode()


def _outcome(call, *args):
    try:
        return call(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestAgainstReference:
    """The one-matrix loader against the record-per-row path it replaced."""

    @given(st.integers(1, 6).flatmap(lambda dim: st.tuples(embedding_files(dim),
                                                            embedding_files(dim))))
    @settings(max_examples=200, deadline=None)
    def test_same_sets_centroids_accuracy_and_first_error(self, files):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = []
            for name, data in zip(("train", "test"), files):
                path = os.path.join(tmp, f"{name}.jsonl")
                with open(path, "wb") as fh:
                    fh.write(data)
                ours, error = _outcome(load_embeddings, path)
                theirs, expected = _outcome(reference.load_embeddings, path)
                assert error == expected
                if ours is not None:
                    assert ours.labels == tuple(r.label for r in theirs.records)
                    assert ours.dim == theirs.dim
                    if len(ours):
                        assert np.array_equal(
                            _bits(ours.vectors), _bits([r.vector for r in theirs.records]))
                loaded.append((ours, theirs))
        (train, ref_train), (test, ref_test) = loaded
        if train is None or not len(train):
            return
        model, ref_model = build_centroids(train), reference.build_centroids(ref_train)
        assert model.labels == ref_model.labels
        assert np.array_equal(_bits(model.units), _bits(ref_model.units))
        assert list(model.centroids) == list(ref_model.centroids)
        for label, centroid in model.centroids.items():
            assert np.array_equal(_bits(centroid), _bits(ref_model.centroids[label]))
        if test is not None:
            assert (_outcome(accuracy, test, model)
                    == _outcome(reference.accuracy, ref_test, ref_model))


def random_cluster_sets(rng, n_labels, n_train, n_test, dim=6, spread=0.3):
    directions = rng.normal(size=(n_labels, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    train, test = [], []
    for i in range(n_train):
        label = int(rng.integers(n_labels))
        vec = directions[label] + spread * rng.normal(size=dim)
        train.append((f"L{label}", f"tr{i}", vec.tolist()))
    for i in range(n_test):
        label = int(rng.integers(n_labels))
        vec = directions[label] + spread * rng.normal(size=dim)
        test.append((f"L{label}", f"te{i}", vec.tolist()))
    return train, test


class TestAccuracy:
    def test_well_separated_self_accuracy(self):
        rows = []
        for axis in range(3):
            for i in range(4):
                vec = [0.0] * 3
                vec[axis] = 1.0
                vec[(axis + 1) % 3] = 0.05 * (i - 1.5)
                rows.append((f"c{axis}", f"{axis}-{i}", vec))
        es = embeddings(rows)
        model = build_centroids(es)
        assert accuracy(es, model) == 100.0

    def test_absent_labels_score_zero(self):
        train = embeddings([("a", "1", [1.0, 0.0])])
        test = embeddings([("z", "1", [1.0, 0.0]), ("q", "2", [0.0, 1.0])])
        assert accuracy(test, build_centroids(train)) == 0.0

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(15):
            n_labels = int(rng.integers(2, 11))
            train_rows, test_rows = random_cluster_sets(
                rng, n_labels, int(rng.integers(n_labels, 51)),
                int(rng.integers(1, 51)))
            # oracle works on the raw (unnormalized) vectors
            expected = brute_force_accuracy(
                [(label, vec) for label, _, vec in train_rows],
                [(label, vec) for label, _, vec in test_rows])
            ours = accuracy(embeddings(test_rows), build_centroids(embeddings(train_rows)))
            assert ours == expected

    def test_empty_test_set_rejected(self):
        model = build_centroids(embeddings([("a", "1", [1.0])]))
        with pytest.raises(ValueError):
            accuracy(EmbeddingSet((), np.empty((0, 0))), model)


class TestMosAggregate:
    def test_constant_ratings(self):
        summary = mos_aggregate([4.0, 4.0, 4.0, 4.0])
        assert summary.mean == 4.0
        assert summary.std == 0.0
        assert summary.half_width == 0.0
        assert summary.rendered == "4.00 ± 0.00"

    def test_three_point_hand_case(self):
        summary = mos_aggregate([3.0, 4.0, 5.0])
        assert summary.mean == pytest.approx(4.0, abs=1e-12)
        assert summary.std == pytest.approx(1.0, abs=1e-12)
        assert summary.half_width == pytest.approx(1.96 / math.sqrt(3), abs=1e-12)
        assert summary.rendered == "4.00 ± 1.13"

    def test_single_rating(self):
        summary = mos_aggregate([3.5])
        assert summary.mean == 3.5
        assert summary.std == 0.0
        assert summary.n == 1

    def test_rendering_convention(self):
        assert mos_aggregate([4.0, 4.0, 4.0, 3.5, 4.5]).rendered.count("±") == 1
        summary = mos_aggregate([4.0, 4.0, 4.0, 4.0, 3.5])
        assert summary.rendered == f"{summary.mean:.2f} ± {summary.half_width:.2f}"

    @pytest.mark.parametrize("bad", [0.5, 5.5, 3.25, -1.0, 4.1])
    def test_off_grid_rating_reported(self, bad):
        with pytest.raises(RatingError, match=str(bad)):
            mos_aggregate([3.0, bad])

    def test_empty_rejected(self):
        with pytest.raises(RatingError):
            mos_aggregate([])

    @pytest.mark.parametrize("ratings", [[True, 5], [4.0, np.bool_(True)]])
    def test_booleans_rejected(self, ratings):
        with pytest.raises(RatingError, match="boolean"):
            mos_aggregate(ratings)

    @given(st.lists(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]),
                    min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_translation_consistency(self, ratings):
        base = mos_aggregate(ratings)
        shifted = mos_aggregate([r + 0.5 for r in ratings])
        assert shifted.mean == pytest.approx(base.mean + 0.5, abs=1e-12)
        assert shifted.half_width == pytest.approx(base.half_width, abs=1e-12)


class TestLoadRatings:
    def test_csv_column(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("4.0\n3.5\n5.0\n")
        assert load_ratings(path) == [4.0, 3.5, 5.0]

    def test_jsonl_rows(self, tmp_path):
        path = jsonl(tmp_path / "r.jsonl", [
            {"rater": "r1", "item": "a", "score": 4.0},
            {"rater": "r2", "item": "a", "score": 4.5},
        ])
        assert load_ratings(path) == [4.0, 4.5]

    def test_missing_score_names_line(self, tmp_path):
        path = jsonl(tmp_path / "r.jsonl", [{"rater": "r1", "item": "a"}])
        with pytest.raises(ValueError, match=at(path, 1)):
            load_ratings(path)

    def test_non_numeric_score_names_line(self, tmp_path):
        path = jsonl(tmp_path / "r.jsonl",
                     [{"rater": "r1", "item": "a", "score": "great"}])
        with pytest.raises(ValueError, match=at(path, 1) + ".*not a number"):
            load_ratings(path)

    @pytest.mark.parametrize("score", ["true", "false", "null", "[4]", '{"v": 4}'])
    def test_non_numeric_json_score_rejected(self, tmp_path, score):
        path = tmp_path / "r.jsonl"
        path.write_text('{"score": 4.0}\n{"score": %s}\n' % score)
        with pytest.raises(ValueError, match=at(path, 2) + "score is not a number"):
            load_ratings(path)

    def test_non_number_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("4.0\nhello\n")
        with pytest.raises(ValueError, match=at(path, 2)):
            load_ratings(path)

    @pytest.mark.parametrize("row,shown", [("7", "7.0"), ("nan", "nan"), ("4.25", "4.25"),
                                           ('{"score": 0.5}', "0.5"),
                                           ('{"score": NaN}', "nan")])
    def test_rating_off_the_scale_is_located(self, tmp_path, row, shown):
        path = tmp_path / "r.txt"
        path.write_text(f"4.0\n\n{row}\n")
        with pytest.raises(RatingError) as info:
            load_ratings(path)
        assert str(info.value) == f"{path}:3: rating {shown} is not on the 1..5 half-point scale"

    def test_multi_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("4.0,5.0\n")
        with pytest.raises(ValueError, match="single"):
            load_ratings(path)
