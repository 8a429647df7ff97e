"""Acceptance suite.

One test per criterion, each printing a pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Tolerances are
pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from dubkit.audio import Waveform, read_wav
from dubkit.corpus import EMOTIONS, ClipRecord, corpus_stats, split_dataset
from dubkit.dsp import MelSpectrogram, mel_spectrogram, mfcc, pitch_track, \
    stft_magnitude
from dubkit.metrics import (dtw_align, evaluate_corpus, evaluate_pair,
                            load_pair_manifest, mcd, mcd_dtw, mcd_dtw_sl)
from dubkit.scoring import accuracy, build_centroids, mos_aggregate
from dubkit.srt import parse_srt

from helpers import (brute_force_accuracy, brute_force_dtw_cost, cue, embeddings,
                     make_tone, serialize_srt, textbook_mfcc, write_pcm16_wav)

SR = 22050


def report(number, description):
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_dtw_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(200):
        m, n = rng.integers(1, 7), rng.integers(1, 7)
        k = rng.integers(1, 4)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(n, k))
        expected = brute_force_dtw_cost(a, b)
        assert abs(dtw_align(a, b).cost - expected) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, "DTW equals exhaustive path enumeration on 200 instances")


def test_criterion_2_plain_mcd_literal():
    c1 = np.array([[0.0, 0.0], [1.0, 1.0]])
    c2 = np.array([[3.0, 4.0], [1.0, 1.0]])
    assert mcd(c1, c2) == 2.5
    rng = np.random.default_rng(202)
    for _ in range(100):
        t = rng.integers(1, 12)
        a = rng.normal(size=(t, 4))
        b = rng.normal(size=(t, 4))
        assert abs(mcd(a, b) - mcd(b, a)) <= 1e-12
    report(2, "hand MCD case is exactly 2.5; symmetric on 100 random pairs")


def test_criterion_3_length_weighted_consistency():
    rng = np.random.default_rng(303)
    for _ in range(100):
        m, n = rng.integers(1, 15), rng.integers(1, 15)
        a = rng.normal(size=(m, 3))
        b = rng.normal(size=(n, 3))
        alignment = dtw_align(a, b)
        score, eta = mcd_dtw_sl(alignment)
        assert abs(score - eta * mcd_dtw(alignment)) <= 1e-12
        if m == n:
            assert score == mcd_dtw(alignment)

    worked = dtw_align(np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [2.0]]))
    score, eta = mcd_dtw_sl(worked)
    assert worked.cost == pytest.approx(1.0, abs=1e-12)
    assert worked.path_len == 3
    assert eta == pytest.approx(1.5, abs=1e-12)
    assert score == pytest.approx(0.5, abs=1e-12)
    report(3, "sl = eta * dtw everywhere; 3x2 example gives (1, 3, 1.5, 0.5)")


def test_criterion_4_pitch_extraction():
    for freq in (100.0, 220.0, 440.0):
        w = Waveform(make_tone(freq, 1.0, SR), SR)
        values = pitch_track(w).values
        interior = values[4:-4]
        within = np.abs(interior - freq) <= 0.01 * freq
        assert within.mean() >= 0.9, f"{freq} Hz: {within.mean():.2%} within 1%"
    silence = pitch_track(Waveform(np.zeros(SR), SR)).values
    assert np.all(silence == 0.0)
    report(4, "sine pitch within 1% on >= 90% of interior frames; silence all 0")


def test_criterion_5_mfcc_sanity():
    constant = MelSpectrogram(np.full((6, 80), 2.5), SR / 256)
    assert np.all(np.abs(mfcc(constant, 13).frames) < 1e-9)

    spec = stft_magnitude(Waveform(make_tone(440, 0.25, SR), SR))
    mel = mel_spectrogram(spec, 40, 0.0, 8000.0)
    ours = mfcc(mel, 13).frames
    oracle = textbook_mfcc(spec.frames**2, SR, 1024, 40, 0.0, 8000.0, 13)
    relative = np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)
    assert relative < 1e-6, f"relative deviation {relative:.2e}"
    report(5, "constant log-mel gives zero coefficients; tone matches oracle")


def test_criterion_6_accuracy_oracle():
    rng = np.random.default_rng(606)
    for _ in range(20):
        n_labels = int(rng.integers(2, 11))
        dim = int(rng.integers(3, 9))
        directions = rng.normal(size=(n_labels, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

        def rows(count, tag):
            out = []
            for i in range(count):
                label = int(rng.integers(n_labels))
                vec = directions[label] + 0.4 * rng.normal(size=dim)
                if np.linalg.norm(vec) < 1e-9:
                    vec = directions[label]
                out.append((f"L{label}", f"{tag}{i}", vec.tolist()))
            return out

        train_rows = rows(int(rng.integers(n_labels, 51)), "tr")
        test_rows = rows(int(rng.integers(1, 51)), "te")
        ours = accuracy(embeddings(test_rows), build_centroids(embeddings(train_rows)))
        expected = brute_force_accuracy(
            [(label, vec) for label, _, vec in train_rows],
            [(label, vec) for label, _, vec in test_rows])
        assert ours == expected

    # well-separated clusters around orthogonal axes
    rng = np.random.default_rng(616)
    rows = []
    for axis in range(4):
        for i in range(8):
            vec = np.zeros(10)
            vec[axis] = 1.0
            vec += 0.02 * rng.normal(size=10)
            rows.append((f"c{axis}", f"{axis}-{i}", vec.tolist()))
    cluster_set = embeddings(rows)
    model = build_centroids(cluster_set)

    def cosine(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    labels = sorted(model.centroids)
    inter = max(cosine(model.centroids[a], model.centroids[b])
                for i, a in enumerate(labels) for b in labels[i + 1:])
    intra = min(cosine(vector, model.centroids[label])
                for label, vector in zip(cluster_set.labels, cluster_set.vectors))
    assert inter < 0.2, f"clusters not separated enough: inter {inter:.3f}"
    assert intra > 0.95, f"clusters too loose: intra {intra:.3f}"
    assert accuracy(cluster_set, model) == 100.0
    report(6, "accuracy equals brute-force oracle; separated clusters score 100")


def test_criterion_7_mos_aggregation():
    summary = mos_aggregate([3.0, 4.0, 5.0])
    assert summary.mean == pytest.approx(4.00, abs=1e-9)
    assert summary.half_width == pytest.approx(1.13, abs=0.01)
    assert summary.rendered == "4.00 ± 1.13"

    constant = mos_aggregate([4.0] * 8)
    assert constant.half_width == 0.0
    assert constant.rendered == "4.00 ± 0.00"
    assert constant.rendered.split(" ± ") == ["4.00", "0.00"]
    report(7, "MOS of {3,4,5} is 4.00 +/- 1.13; constants render +/- 0.00")


def test_criterion_8_corpus_pipeline():
    # 1000-cue SRT round trip
    rng = np.random.default_rng(808)
    entries = []
    cursor = 0
    for i in range(1000):
        cursor += int(rng.integers(1, 5000))
        length = int(rng.integers(200, 8000))
        words = " ".join(f"w{int(rng.integers(100))}"
                         for _ in range(int(rng.integers(1, 9))))
        entries.append(cue(i + 1, cursor, cursor + length, words))
        cursor += length
    assert parse_srt(serialize_srt(entries)) == entries

    # floor-rule split of the full-corpus clip count, reproducible by seed
    records = [ClipRecord(movie_id=f"m{i % 26}", clip_index=i, speaker=f"s{i % 153}",
                          emotion="neutral", text="hi", start_ms=0, end_ms=1000)
               for i in range(1, 10218)]
    assert len(records) == 10217
    split_a = split_dataset(records, seed=42)
    split_b = split_dataset(records, seed=42)
    assert (len(split_a.train), len(split_a.val), len(split_a.test)) == \
        (6130, 1021, 3066)
    assert (split_a.train, split_a.val, split_a.test) == \
        (split_b.train, split_b.val, split_b.test)

    # hand-computed stats on a 3-record fixture
    fixture = [
        ClipRecord(movie_id="a", clip_index=1, speaker="x", emotion="happy",
                   text="Hello there", start_ms=0, end_ms=1000),
        ClipRecord(movie_id="a", clip_index=2, speaker="y", emotion="sad",
                   text="Go", start_ms=0, end_ms=2000),
        ClipRecord(movie_id="b", clip_index=3, speaker="x", emotion="happy",
                   text="One two three", start_ms=0, end_ms=3000),
    ]
    stats = corpus_stats(fixture)
    assert stats.avg_subtitle_words == 2.0  # (2 + 1 + 3) / 3
    assert stats.avg_duration_s == 2.0      # (1 + 2 + 3) / 3
    assert stats.n_movies == 2
    assert stats.n_speakers == 2
    assert sum(stats.utterance_length_histogram.values()) == 3

    # emotion histogram replaying the published label counts
    published = {"angry": 756, "disgust": 64, "fear": 305, "happy": 1799,
                 "neutral": 4919, "sad": 572, "surprise": 240, "others": 1562}
    replay = []
    index = 1
    for emotion, count in published.items():
        for _ in range(count):
            replay.append(ClipRecord(movie_id="all", clip_index=index,
                                     speaker="s", emotion=emotion, text="hi",
                                     start_ms=0, end_ms=1000))
            index += 1
    replay_stats = corpus_stats(replay)
    assert replay_stats.emotion_counts == published
    assert sum(replay_stats.emotion_counts.values()) == 10217
    assert replay_stats.n_clips == 10217
    assert set(replay_stats.emotion_counts) == set(EMOTIONS)
    report(8, "SRT round trip x1000; split 6130/1021/3066; stats and "
              "emotion histogram check out")


def test_criterion_9_end_to_end(tmp_path):
    wav_path = tmp_path / "same.wav"
    write_pcm16_wav(wav_path, [make_tone(440, 0.4, SR)], SR)
    w = read_wav(wav_path)
    row = evaluate_pair(w, w)
    assert row.mcd == 0.0
    assert row.mcd_dtw == 0.0
    assert row.mcd_dtw_sl == 0.0

    longer = Waveform(np.concatenate([w.samples, np.zeros(SR // 2)]), SR)
    padded_row = evaluate_pair(w, longer)
    assert padded_row.eta > 1.0
    assert padded_row.mcd_dtw_sl >= padded_row.mcd_dtw

    rng = np.random.default_rng(909)
    manifest = tmp_path / "pairs.jsonl"
    with open(manifest, "w") as fh:
        for i in range(20):
            freq = 150.0 + 25.0 * i
            gen_seconds = 0.3 + 0.02 * (i % 5)
            gen = Waveform(make_tone(freq, gen_seconds, SR), SR)
            noise = 0.01 * rng.normal(size=gen.n_frames + SR // 10)
            ref = Waveform(np.clip(
                np.concatenate([gen.samples, np.zeros(SR // 10)]) + noise, -1, 1), SR)
            gen_path = tmp_path / f"gen{i}.wav"
            ref_path = tmp_path / f"ref{i}.wav"
            write_pcm16_wav(gen_path, [gen.samples], SR)
            write_pcm16_wav(ref_path, [ref.samples], SR)
            fh.write(json.dumps({"id": f"pair{i}", "generated": str(gen_path),
                                 "reference": str(ref_path)}) + "\n")

    started = time.monotonic()
    batch = evaluate_corpus(load_pair_manifest(manifest))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"batch took {elapsed:.1f}s"
    assert len(batch.rows) == 20
    assert batch.aggregate()["n_failures"] == 0
    assert all(r.eta > 1.0 for r in batch.rows)
    report(9, f"identical pair scores 0; padding raises eta; 20-pair batch in "
              f"{elapsed:.1f}s")
