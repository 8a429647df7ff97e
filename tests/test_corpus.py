import json
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit import corpus
from dubkit.corpus import (EMOTIONS, ClipRecord, ManifestError, build_clip_plan,
                           corpus_stats, load_manifest, split_dataset)

import reference_corpus
from helpers import at, cue, jsonl


def record(i=1, movie="frozen", speaker="elsa", emotion="neutral",
           text="Hello there", start=1000, end=3000):
    return ClipRecord(movie_id=movie, clip_index=i, speaker=speaker,
                      emotion=emotion, text=text, start_ms=start, end_ms=end)


class TestClipRecord:
    def test_unknown_emotion_rejected(self):
        for emotion in ["joyful", "x" * 100_000]:
            with pytest.raises(ValueError, match=emotion[:40]) as excinfo:
                record(emotion=emotion)
            assert len(str(excinfo.value)) < 200  # a huge value is not echoed whole

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            record(start=2000, end=2000)

    def test_clip_id_format(self):
        assert record(i=42).clip_id == "frozen_00042"

    def test_duration_seconds(self):
        assert record(start=1000, end=3400).duration_s == pytest.approx(2.4)


def outcome(call, *args):
    try:
        return call(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


MANIFEST_FIELDS = ["movie_id", "clip_index", "speaker", "emotion", "text",
                   "start_ms", "end_ms"]
# integers at and past the int64 ends, and manifest field values of every JSON type
integer_values = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([-2**63 - 1, -2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1, 2**63]))
field_values = st.one_of(
    integer_values, st.integers(), st.floats(), st.text(max_size=3), st.booleans(),
    st.none(), st.sampled_from([[1], {"a": 1}, "joyful"]))


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [record(i=1), record(i=2, emotion="happy", speaker="anna"),
                   record(i=3, text="Let it go")]
        path = jsonl(tmp_path / "m.jsonl", [vars(r) for r in records])
        assert load_manifest(path) == records

    def test_media_paths_are_ignored(self, tmp_path):
        rec = ClipRecord(movie_id="m", clip_index=1, speaker="s",
                         emotion="sad", text="t", start_ms=0, end_ms=10)
        rows = [{**vars(rec), "audio_path": "a.wav", "video_path": "v.mp4"},
                {**vars(rec), "audio_path": None, "video_path": [1]}]
        path = jsonl(tmp_path / "m.jsonl", rows)
        assert load_manifest(path) == [rec, rec]

    def test_unknown_emotion_names_row(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"movie_id": "m", "clip_index": 1, "speaker": "s", "emotion": "neutral",'
            ' "text": "t", "start_ms": 0, "end_ms": 10}\n'
            '{"movie_id": "m", "clip_index": 2, "speaker": "s", "emotion": "joyful",'
            ' "text": "t", "start_ms": 0, "end_ms": 10}\n')
        with pytest.raises(ManifestError, match=at(path, 2)):
            load_manifest(path)

    def test_missing_field_names_row(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"movie_id": "m", "clip_index": 1}\n')
        with pytest.raises(ManifestError, match=at(path, 1)):
            load_manifest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert load_manifest(path) == []

    ROW = ('{{"movie_id": "m", "clip_index": {index}, "speaker": "s", '
           '"emotion": "sad", "text": "t", "start_ms": 0, "end_ms": {end}}}\n')

    @pytest.mark.parametrize("index, end", [
        ("1.7", "10"), ("true", "10"), ("Infinity", "10"), ("1e999", "10"),
        ('"1"', "10"), ("1", "Infinity"), ("1", "1e999"), ("1", "NaN"),
        ("1", "10.5"), ("1", "false"), ("9223372036854775808", "10"),
        ("1", "1e300"), pytest.param('"' + "x" * 100_000 + '"', "10", id="100000-chars"),
        pytest.param("[" + ", ".join(["1"] * 50_000) + "]", "10", id="50000-items")])
    def test_non_integer_fields_rejected_with_location(self, tmp_path, index, end):
        path = tmp_path / "m.jsonl"
        path.write_text(self.ROW.format(index=1, end=10)
                        + self.ROW.format(index=index, end=end))
        with pytest.raises(ManifestError, match=at(path, 2) + ".* must be an integer") as excinfo:
            load_manifest(path)
        # a huge value is not echoed whole
        assert len(str(excinfo.value)) - len(str(path)) < 200

    @settings(max_examples=300, deadline=None)
    @given(row=st.fixed_dictionaries({
        "movie_id": st.text(max_size=3), "clip_index": integer_values,
        "speaker": st.text(max_size=3), "emotion": st.sampled_from(EMOTIONS),
        "text": st.text(max_size=3), "start_ms": integer_values, "end_ms": integer_values}),
        changes=st.dictionaries(st.sampled_from(MANIFEST_FIELDS), field_values, max_size=2))
    def test_row_checks_match_the_per_field_checks(self, row, changes):
        row.update(changes)
        expected = outcome(reference_corpus.record_from_row, row)
        assert outcome(lambda r: ClipRecord(*corpus._typed_fields(r)), row) == expected
        # the fields the stats and split folds take, through the same checks
        fields = outcome(corpus._line_fields, json.dumps(row))
        assert fields == (expected[0] and astuple(expected[0]), expected[1])

    def test_integral_floats_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(self.ROW.format(index="12.0", end="10.0")
                        + self.ROW.format(index="9223372036854775807", end="10"))
        [rec, big] = load_manifest(path)
        assert (rec.clip_index, rec.end_ms, big.clip_index) == (12, 10, 2**63 - 1)
        assert type(rec.clip_index) is int and type(rec.end_ms) is int


class TestClipPlan:
    def entries(self, n=3):
        return [cue(i + 1, 1000 * (i + 1), 1000 * (i + 1) + 500, f"cue {i}")
                for i in range(n)]

    def test_one_cue_one_job(self):
        plan = build_clip_plan(self.entries(1), "movies/frozen.mkv", "clips")
        assert len(plan.jobs) == 1
        job = plan.jobs[0]
        assert job["start_s"] == 1.0
        assert job["end_s"] == 1.5
        assert job["out_audio"].endswith("frozen_00001.wav")
        assert job["out_video"].endswith("frozen_00001.mp4")

    def test_jobs_in_cue_order(self):
        plan = build_clip_plan(self.entries(3), "m.mkv", "out")
        assert [j["index"] for j in plan.jobs] == [1, 2, 3]

    def test_timestamp_arithmetic(self):
        plan = build_clip_plan([cue(9, 5027129, 5029500, "late cue")], "m.mkv", "out")
        assert plan.jobs[0]["start_s"] == 5027.129
        assert plan.jobs[0]["end_s"] == 5029.5

    def test_duplicate_indices_rejected(self):
        entries = [cue(5, 0, 100, "a"), cue(5, 200, 300, "b")]
        with pytest.raises(ValueError, match=r"\[5\]"):
            build_clip_plan(entries, "m.mkv", "out")

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            build_clip_plan([], "m.mkv", "out")

    def test_monotone_starts_preserved(self):
        plan = build_clip_plan(self.entries(5), "m.mkv", "out")
        starts = [j["start_s"] for j in plan.jobs]
        assert starts == sorted(starts)

    def test_commands_optional_and_ffmpeg_shaped(self):
        plan = build_clip_plan(self.entries(2), "m.mkv", "out")
        assert plan.commands is None
        plan = build_clip_plan(self.entries(2), "m.mkv", "out", emit_commands=True)
        assert len(plan.commands) == 4  # video + audio per cue
        for command in plan.commands:
            assert command[0] == "ffmpeg"
            assert "m.mkv" in command

    def test_center_channel_mode_recorded(self):
        plan = build_clip_plan(self.entries(1), "m.mkv", "out",
                               audio_mode="center-channel", emit_commands=True)
        assert plan.jobs[0]["audio_mode"] == "center-channel"
        audio_cmd = plan.commands[1]
        assert "pan=mono|c0=FC" in audio_cmd

    def test_downmix_mode(self):
        plan = build_clip_plan(self.entries(1), "m.mkv", "out",
                               audio_mode="downmix", emit_commands=True)
        assert "-ac" in plan.commands[1]

    def test_movie_id_override(self):
        plan = build_clip_plan(self.entries(1), "m.mkv", "out", movie_id="custom")
        assert plan.jobs[0]["out_audio"].endswith("custom_00001.wav")

    @pytest.mark.parametrize("movie_id", ["", ".", "..", "a/../b", "../x", "/abs"])
    def test_movie_id_that_cannot_name_a_file_rejected(self, movie_id):
        with pytest.raises(ValueError, match="movie id"):
            build_clip_plan(self.entries(1), "m.mkv", "out", movie_id=movie_id)

    def test_movie_stem_that_cannot_name_a_file_rejected(self):
        with pytest.raises(ValueError, match="movie id '..'"):
            build_clip_plan(self.entries(1), "movies/..", "out")

    def test_bad_audio_mode(self):
        with pytest.raises(ValueError):
            build_clip_plan(self.entries(1), "m.mkv", "out", audio_mode="stereo")


class TestSplit:
    def records(self, n):
        return [record(i=i, emotion="neutral") for i in range(1, n + 1)]

    def test_ten_records_six_one_three(self):
        split = split_dataset(self.records(10), seed=7)
        assert (len(split.train), len(split.val), len(split.test)) == (6, 1, 3)

    def test_full_corpus_scale_split(self):
        split = split_dataset(self.records(10217), seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == (6130, 1021, 3066)

    def test_same_seed_reproduces(self):
        a = split_dataset(self.records(50), seed=123)
        b = split_dataset(self.records(50), seed=123)
        assert (a.train, a.val, a.test) == (b.train, b.val, b.test)

    def test_different_seed_shuffles_differently(self):
        a = split_dataset(self.records(50), seed=1)
        b = split_dataset(self.records(50), seed=2)
        assert a.train != b.train
        assert len(a.train) == len(b.train)

    def test_partition(self):
        records = self.records(37)
        split = split_dataset(records, seed=5)
        combined = split.train + split.val + split.test
        assert sorted(combined) == sorted(r.clip_id for r in records)
        assert len(set(combined)) == len(records)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(self.records(10), ratios=(0.5, 0.5), seed=1)
        with pytest.raises(ValueError):
            split_dataset(self.records(10), ratios=(0.5, 0.4, 0.2), seed=1)
        with pytest.raises(ValueError):
            split_dataset(self.records(10), ratios=(0.8, -0.1, 0.3), seed=1)

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            split_dataset(self.records(2), seed=1)

    def test_duplicate_clip_ids_rejected(self):
        for movie in ["frozen", "m" * 100_000]:
            records = [record(i=i, movie=movie) for i in (1, 2, 3, 4, 5, 3)]
            with pytest.raises(ValueError, match="duplicate clip id") as excinfo:
                split_dataset(records, seed=1)
            assert len(str(excinfo.value)) < 200  # a huge value is not echoed whole

    def test_stratified_is_still_a_partition(self):
        records = [record(i=i, speaker=f"spk{i % 4}") for i in range(1, 41)]
        split = split_dataset(records, seed=11, stratify_by_speaker=True)
        combined = split.train + split.val + split.test
        assert sorted(combined) == sorted(r.clip_id for r in records)

    def test_stratified_speakers_present_in_train(self):
        records = [record(i=i, speaker=f"spk{i % 2}") for i in range(1, 41)]
        split = split_dataset(records, seed=3, stratify_by_speaker=True)
        train_speakers = {cid.split("_")[0] for cid in split.train}
        # 20 records per speaker -> 12 train each; both speakers represented
        assert len(split.train) == 24


@settings(max_examples=30)
@given(st.integers(3, 400), st.integers(0, 2**32 - 1))
def test_split_partition_property(n, seed):
    records = [record(i=i) for i in range(1, n + 1)]
    split = split_dataset(records, seed=seed)
    assert len(split.train) == int(0.6 * n + 1e-9)
    assert len(split.val) == int(0.1 * n + 1e-9)
    assert len(split.train) + len(split.val) + len(split.test) == n
    assert len(set(split.train) | set(split.val) | set(split.test)) == n


# subtitles built from pieces that a row boundary could change: a final
# sigma (with a case-ignorable after it), capitals that lower to two
# characters or stay, line breaks that str.split takes, and punctuation
subtitle_texts = st.lists(
    st.sampled_from(["\u03a3", "\u03a3'", "\u0130", "\u00df", "\n", "\x85", "\u2028",
                     " ", "...", "!?", "-", "'", "Ab", "\u039f\u0394\u039f\u03a3", "go"]),
    max_size=6).map("".join)


class TestCorpusStats:
    def test_two_record_hand_case(self):
        records = [record(i=1, text="Hello there", start=0, end=2000),
                   record(i=2, text="Go", start=0, end=4000)]
        stats = corpus_stats(records)
        assert stats.avg_subtitle_words == 1.5
        assert stats.avg_duration_s == 3.0

    def test_durations_are_added_left_to_right(self):
        # on every Python: from 3.12 sum() compensates float rounding, which
        # would give 0.1 here
        stats = corpus_stats([record(i=i, start=0, end=100) for i in range(10)])
        assert stats.avg_duration_s == 0.09999999999999999

    def test_counts(self):
        records = [record(i=1, movie="a", speaker="x"),
                   record(i=2, movie="a", speaker="y", emotion="happy"),
                   record(i=3, movie="b", speaker="x", emotion="happy")]
        stats = corpus_stats(records)
        assert stats.n_movies == 2
        assert stats.n_clips == 3
        assert stats.n_speakers == 2
        assert stats.emotion_counts["happy"] == 2
        assert stats.emotion_counts["neutral"] == 1
        assert sum(stats.emotion_counts.values()) == 3
        assert set(stats.emotion_counts) == set(EMOTIONS)

    def test_histogram_mass_equals_clip_count(self):
        records = [record(i=i, text=" ".join(["w"] * (i % 5 + 1)))
                   for i in range(1, 21)]
        stats = corpus_stats(records)
        assert sum(stats.utterance_length_histogram.values()) == 20

    def test_avg_words_is_exact_ratio(self):
        records = [record(i=1, text="a b c"), record(i=2, text="d e")]
        stats = corpus_stats(records)
        assert stats.avg_subtitle_words == 5 / 2

    def test_word_ranking_count_then_lexicographic(self):
        records = [record(i=1, text="Go go GO! stop"),
                   record(i=2, text="stop aaa bbb")]
        stats = corpus_stats(records)
        assert stats.word_counts[0] == ("go", 3)
        assert stats.word_counts[1] == ("stop", 2)
        assert stats.word_counts[2:] == [("aaa", 1), ("bbb", 1)]

    def test_tokenizer_strips_punctuation(self):
        stats = corpus_stats([record(i=1, text="Don't stop, believing!"),
                              record(i=2, text="--- ...")])
        assert stats.word_counts == [("believing", 1), ("dont", 1), ("stop", 1)]

    # the chunk size 1, 2 or 3 rows, or more than every drawn row
    @pytest.mark.parametrize("chunk", [1, 2, 3, 100])
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(subtitle_texts, min_size=1, max_size=12))
    def test_chunked_word_counts_equal_the_per_row_count(self, chunk, texts):
        records = [record(i=i, text=text) for i, text in enumerate(texts, start=1)]
        with mock.patch.object(corpus, "_COUNT_CHUNK", chunk):
            counts = corpus_stats(records).word_counts
        assert counts == reference_corpus.ranked_word_counts(texts)

    def test_no_tracks_leaves_pitch_unset(self):
        # stats reads no audio; the pitch keys stay, null and last
        doc = corpus_stats([record(i=1)]).to_dict()
        assert list(doc.items())[-2:] == [("pitch_mean_hz", None), ("pitch_variance", None)]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])

    def test_to_dict_truncates_words(self):
        records = [record(i=1, text="a b c d e f g h")]
        stats = corpus_stats(records)
        assert len(stats.to_dict(top_words=3)["word_counts"]) == 3

