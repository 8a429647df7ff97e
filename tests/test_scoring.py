import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit.scoring import (EmbeddingFormatError, EmbeddingSet, RatingError,
                            accuracy, build_centroids, classify,
                            load_embeddings, load_ratings, mos_aggregate)

from helpers import at, brute_force_accuracy, jsonl


class TestLoadEmbeddings:
    def test_vectors_normalized_on_load(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl",
                     [{"label": "a", "id": "1", "vector": [3.0, 4.0]}])
        es = load_embeddings(path)
        assert es.dim == 2
        assert np.allclose(es.records[0].vector, [0.6, 0.8], atol=1e-12)

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

    def test_duplicate_label_id_rejected(self, tmp_path):
        path = jsonl(tmp_path / "e.jsonl", [
            {"label": "a", "id": "1", "vector": [1.0, 0.0]},
            {"label": "a", "id": "1", "vector": [0.0, 1.0]},
        ])
        with pytest.raises(EmbeddingFormatError, match="duplicate"):
            load_embeddings(path)

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


class TestBuildCentroids:
    def test_single_member_centroid_is_the_unit_vector(self):
        es = EmbeddingSet.from_rows([("a", "1", [3.0, 4.0])])
        model = build_centroids(es)
        assert np.allclose(model.centroids["a"], [0.6, 0.8], atol=1e-12)
        assert model.counts["a"] == 1

    def test_opposite_vectors_flagged_degenerate(self):
        es = EmbeddingSet.from_rows([("a", "1", [1.0, 0.0]),
                                     ("a", "2", [-1.0, 0.0])])
        model = build_centroids(es)
        assert "a" in model.degenerate
        assert np.allclose(model.centroids["a"], [0.0, 0.0], atol=1e-12)

    def test_mean_of_two_axes(self):
        es = EmbeddingSet.from_rows([("a", "1", [1.0, 0.0]),
                                     ("a", "2", [0.0, 1.0])])
        model = build_centroids(es)
        assert np.allclose(model.centroids["a"], [0.5, 0.5], atol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            build_centroids(EmbeddingSet([], None))


class TestClassify:
    def model(self):
        return build_centroids(EmbeddingSet.from_rows([
            ("e1", "1", [1.0, 0.0]),
            ("e2", "1", [0.0, 1.0]),
        ]))

    def test_query_equal_to_centroid(self):
        label, sim = classify([1.0, 0.0], self.model())
        assert label == "e1"
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        # cosine(v, e1) = 0.9939, cosine(v, e2) = 0.1104
        v = np.array([0.9, 0.1]) / np.hypot(0.9, 0.1)
        label, sim = classify(v, self.model())
        assert label == "e1"
        assert sim == pytest.approx(0.9 / math.hypot(0.9, 0.1), abs=1e-9)

    def test_orthogonal_query_breaks_tie_lexicographically(self):
        model = build_centroids(EmbeddingSet.from_rows([
            ("b", "1", [1.0, 0.0, 0.0]),
            ("a", "1", [0.0, 1.0, 0.0]),
        ]))
        label, sim = classify([0.0, 0.0, 1.0], model)
        assert label == "a"
        assert sim == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40)
    def test_invariant_to_positive_scaling(self, scale):
        model = build_centroids(EmbeddingSet.from_rows([
            ("x", "1", [0.8, 0.2, 0.1]),
            ("y", "1", [-0.3, 0.9, 0.2]),
        ]))
        v = np.array([0.5, 0.4, -0.2])
        assert classify(v, model)[0] == classify(v * scale, model)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify([1.0, 0.0, 0.0], self.model())

    def test_zero_query_rejected(self):
        with pytest.raises(ValueError):
            classify([0.0, 0.0], self.model())

    def test_all_degenerate_rejected(self):
        model = build_centroids(EmbeddingSet.from_rows([
            ("a", "1", [1.0, 0.0]), ("a", "2", [-1.0, 0.0]),
        ]))
        with pytest.raises(ValueError):
            classify([1.0, 0.0], model)


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
        es = EmbeddingSet.from_rows(rows)
        model = build_centroids(es)
        assert accuracy(es, model) == 100.0

    def test_absent_labels_score_zero(self):
        train = EmbeddingSet.from_rows([("a", "1", [1.0, 0.0])])
        test = EmbeddingSet.from_rows([("z", "1", [1.0, 0.0]),
                                       ("q", "2", [0.0, 1.0])])
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
            ours = accuracy(EmbeddingSet.from_rows(test_rows),
                            build_centroids(EmbeddingSet.from_rows(train_rows)))
            assert ours == expected

    def test_empty_test_set_rejected(self):
        model = build_centroids(EmbeddingSet.from_rows([("a", "1", [1.0])]))
        with pytest.raises(ValueError):
            accuracy(EmbeddingSet([], None), model)


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

    def test_multi_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("4.0,5.0\n")
        with pytest.raises(ValueError, match="single"):
            load_ratings(path)
