import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dubkit import metrics
from dubkit.audio import Waveform, read_mono, write_wav
from dubkit.metrics import (CONVENTIONAL_SCALE, SCALES, AlignmentResult, PairEntry,
                            PipelineConfig, dtw_align, evaluate_corpus, evaluate_pair,
                            load_pair_manifest, mcd, mcd_dtw, mcd_dtw_sl)

from helpers import (at, brute_force_dtw_cost, enumerate_dtw_paths, make_tone, reaped,
                     spy_forks, use_cpus)
from reference_dtw import frame_distance
from reference_spectral import extract_mfcc, pad_to_length

SR = 22050


def col(*values):
    return np.array(values, dtype=float).reshape(-1, 1)


def frame_count(n, p=PipelineConfig().frame):
    return 1 + (n + 2 * (p.win_length // 2) - p.win_length) // p.hop


def shared_rows(n, p=PipelineConfig().frame):
    """Leading frames of an n-sample clip that its zero padding cannot reach."""
    return 0 if n <= p.win_length // 2 else (n + p.win_length // 2 - p.win_length) // p.hop + 1


def rows_per_pair(gen_n, ref_n):
    """Frames of both clips plus those of the padded tail of the shorter."""
    short, long = sorted((gen_n, ref_n))
    tail = frame_count(long) - shared_rows(short) if short != long else 0
    return frame_count(gen_n) + frame_count(ref_n) + tail


class TestFrameDistance:
    def test_identical_vectors(self):
        assert frame_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four_five(self):
        assert frame_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(50):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert frame_distance(a, b) == frame_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frame_distance([1.0], [1.0, 2.0])


class TestMcd:
    def test_identity_zero(self, rng):
        c = rng.normal(size=(7, 4))
        assert mcd(c, c) == 0.0

    def test_hand_case(self):
        c1 = np.array([[0.0, 0.0], [1.0, 1.0]])
        c2 = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert mcd(c1, c2) == pytest.approx(2.5, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.normal(size=(6, 3))
            b = rng.normal(size=(6, 3))
            assert mcd(a, b) == mcd(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mcd(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_coeff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mcd(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_conventional_scale(self):
        c1 = np.array([[0.0, 0.0], [1.0, 1.0]])
        c2 = np.array([[3.0, 4.0], [1.0, 1.0]])
        expected = 2.5 * 10.0 * math.sqrt(2.0) / math.log(10.0)
        assert mcd(c1, c2) * SCALES["conventional"] == pytest.approx(expected, rel=1e-12)
        assert CONVENTIONAL_SCALE == pytest.approx(6.141851, abs=1e-6)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale 'db'"):
            PipelineConfig(scale="db")


class TestPipelineConfig:
    def test_pad_mode_is_case_sensitive(self):
        with pytest.raises(ValueError, match="unknown pad_mode 'Strict'"):
            PipelineConfig(pad_mode="Strict")

    def test_replace_is_checked_too(self):
        with pytest.raises(ValueError, match="unknown scale"):
            replace(PipelineConfig(), scale="conventional ")

    @pytest.mark.parametrize("rate", [999, 768001, 10**9])
    def test_sample_rate_outside_read_wav_range_rejected(self, rate):
        with pytest.raises(ValueError, match=f"sample_rate {rate} Hz is outside"):
            PipelineConfig(sample_rate=rate)

    @pytest.mark.parametrize("rate", [1000, 768000])
    def test_sample_rate_range_is_inclusive(self, rate):
        assert PipelineConfig(sample_rate=rate).sample_rate == rate


class TestDtwAlign:
    def test_identity_is_diagonal(self, rng):
        c = rng.normal(size=(5, 3))
        a = dtw_align(c, c)
        assert a.cost == 0.0
        assert a.path_len == 5
        assert [tuple(p) for p in a.path] == [(i, i) for i in range(5)]

    def test_worked_three_by_two(self):
        a = dtw_align(col(0.0, 1.0, 2.0), col(0.0, 2.0))
        assert a.cost == pytest.approx(1.0, abs=1e-12)
        assert a.path_len == 3
        assert (a.m, a.n) == (3, 2)
        assert [tuple(p) for p in a.path] == [(0, 0), (1, 0), (2, 1)]

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(60):
            m, n, k = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 4)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(n, k))
            result = dtw_align(a, b)
            assert result.cost == pytest.approx(brute_force_dtw_cost(a, b), abs=1e-9)

    def test_path_is_valid_and_cost_rechecks(self, rng):
        for _ in range(30):
            m, n = rng.integers(1, 9), rng.integers(1, 9)
            a = rng.normal(size=(m, 2))
            b = rng.normal(size=(n, 2))
            result = dtw_align(a, b)
            path = [tuple(p) for p in result.path]
            assert path[0] == (0, 0)
            assert path[-1] == (m - 1, n - 1)
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in {(1, 1), (1, 0), (0, 1)}
            assert max(m, n) <= result.path_len <= m + n - 1
            recheck = sum(frame_distance(a[i], b[j]) for i, j in path)
            assert result.cost == pytest.approx(recheck, abs=1e-9)

    def test_cost_below_any_enumerated_path(self, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(5, 2))
        result = dtw_align(a, b)
        dist = np.array([[frame_distance(a[i], b[j]) for j in range(5)]
                         for i in range(4)])
        for cost, _ in enumerate_dtw_paths(dist):
            assert result.cost <= cost + 1e-12

    def test_cost_at_most_diagonal(self, rng):
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3))
        assert dtw_align(a, b).cost <= 6 * mcd(a, b) + 1e-12

    def test_symmetric_cost_and_transposed_path(self, rng):
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(7, 2))
        fwd = dtw_align(a, b)
        rev = dtw_align(b, a)
        assert fwd.cost == pytest.approx(rev.cost, abs=1e-12)
        transposed = sum(frame_distance(b[j], a[i]) for i, j in fwd.path)
        assert transposed == pytest.approx(rev.cost, abs=1e-9)

    def test_duplicated_frame_absorbs_free(self, rng):
        # The duplicate absorbs at no extra distance when the optimal path
        # steps horizontally at the duplicated row (always the case when the
        # other sequence dwells on each frame), taking over one column of
        # that run diagonally.
        a = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 5.0]])
        b = np.repeat(a, 2, axis=0) + rng.uniform(-0.1, 0.1, size=(6, 2))
        base = dtw_align(a, b).cost
        for row in range(3):
            widened = np.insert(a, row + 1, a[row], axis=0)
            assert dtw_align(widened, b).cost == pytest.approx(base, abs=1e-9)

    def test_matches_plain_dp_at_scale(self, rng):
        # slow reference recurrence, checking the diagonal-sweep vectorization
        for _ in range(3):
            m, n = rng.integers(30, 70), rng.integers(30, 70)
            a = rng.normal(size=(m, 13))
            b = rng.normal(size=(n, 13))
            dist = np.array([[frame_distance(a[i], b[j]) for j in range(n)]
                             for i in range(m)])
            gamma = np.full((m, n), np.inf)
            gamma[0, 0] = dist[0, 0]
            for i in range(m):
                for j in range(n):
                    if i == j == 0:
                        continue
                    best = min(gamma[i - 1, j - 1] if i and j else np.inf,
                               gamma[i - 1, j] if i else np.inf,
                               gamma[i, j - 1] if j else np.inf)
                    gamma[i, j] = dist[i, j] + best
            assert dtw_align(a, b).cost == pytest.approx(gamma[-1, -1], rel=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            dtw_align(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_coeff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dtw_align(np.zeros((2, 2)), np.zeros((2, 3)))


class TestDtwMetrics:
    def test_mcd_dtw_identity(self, rng):
        c = rng.normal(size=(6, 2))
        assert mcd_dtw(dtw_align(c, c)) == 0.0

    def test_mcd_dtw_worked_example(self):
        a = dtw_align(col(0.0, 1.0, 2.0), col(0.0, 2.0))
        assert mcd_dtw(a) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_equal_length_aligned_pair_reduces_to_mcd(self, rng):
        # well-separated frames so the optimal path is the diagonal
        base = np.arange(6, dtype=float).reshape(-1, 1) * 10.0
        noisy = base + rng.uniform(-0.5, 0.5, size=base.shape)
        alignment = dtw_align(base, noisy)
        assert alignment.path_len == 6
        assert mcd_dtw(alignment) == pytest.approx(mcd(base, noisy), abs=1e-12)

    def test_sl_worked_example(self):
        a = dtw_align(col(0.0, 1.0, 2.0), col(0.0, 2.0))
        score, eta = mcd_dtw_sl(a)
        assert eta == pytest.approx(1.5, abs=1e-12)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_sl_reduces_to_dtw_when_lengths_match(self, rng):
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2))
        alignment = dtw_align(a, b)
        score, eta = mcd_dtw_sl(alignment)
        assert eta == 1.0
        assert score == mcd_dtw(alignment)

    def test_sl_is_eta_times_dtw(self, rng):
        for _ in range(25):
            a = rng.normal(size=(rng.integers(1, 10), 3))
            b = rng.normal(size=(rng.integers(1, 10), 3))
            alignment = dtw_align(a, b)
            score, eta = mcd_dtw_sl(alignment)
            assert score == pytest.approx(eta * mcd_dtw(alignment), abs=1e-12)
            assert eta >= 1.0

    def test_zero_cost_any_eta(self):
        c = np.ones((4, 2))
        alignment = dtw_align(c, np.ones((7, 2)))
        score, eta = mcd_dtw_sl(alignment)
        assert eta == pytest.approx(7 / 4)
        assert score == 0.0


class TestEvaluatePair:
    def test_identical_waveforms_score_zero(self):
        w = Waveform(make_tone(440, 0.4, SR), SR)
        row = evaluate_pair(w, w)
        assert row.mcd == 0.0
        assert row.mcd_dtw == 0.0
        assert row.mcd_dtw_sl == 0.0
        assert row.eta == 1.0

    def test_swap_is_symmetric(self):
        gen = Waveform(make_tone(300, 0.3, SR), SR)
        ref = Waveform(make_tone(320, 0.42, SR), SR)
        fwd = evaluate_pair(gen, ref)
        rev = evaluate_pair(ref, gen)
        assert fwd.mcd == pytest.approx(rev.mcd, rel=1e-12)
        assert fwd.mcd_dtw == pytest.approx(rev.mcd_dtw, rel=1e-12)
        assert fwd.mcd_dtw_sl == pytest.approx(rev.mcd_dtw_sl, rel=1e-12)
        assert fwd.eta == rev.eta

    def test_trailing_silence_weights_up(self):
        gen = Waveform(make_tone(440, 0.4, SR), SR)
        ref = Waveform(np.concatenate([gen.samples, np.zeros(SR // 2)]), SR)
        row = evaluate_pair(gen, ref)
        assert row.eta > 1.0
        assert row.mcd_dtw_sl >= row.mcd_dtw

    def test_strict_mode_rejects_length_mismatch(self):
        gen = Waveform(make_tone(440, 0.3, SR), SR)
        ref = Waveform(make_tone(440, 0.4, SR), SR)
        with pytest.raises(ValueError):
            evaluate_pair(gen, ref, PipelineConfig(pad_mode="strict"))

    def test_rate_mismatch_is_resampled(self):
        gen = Waveform(make_tone(440, 0.4, 44100), 44100)
        ref = Waveform(make_tone(440, 0.4, SR), SR)
        row = evaluate_pair(gen, ref)
        assert row.mcd_dtw < 1.0  # same tone, near-aligned

    def test_conventional_scale_applies_throughout(self):
        gen = Waveform(make_tone(300, 0.3, SR), SR)
        ref = Waveform(make_tone(330, 0.3, SR), SR)
        plain = evaluate_pair(gen, ref, PipelineConfig(scale="plain"))
        conv = evaluate_pair(gen, ref, PipelineConfig(scale="conventional"))
        assert conv.mcd == pytest.approx(plain.mcd * CONVENTIONAL_SCALE, rel=1e-12)
        assert conv.mcd_dtw == pytest.approx(plain.mcd_dtw * CONVENTIONAL_SCALE,
                                             rel=1e-12)
        assert conv.mcd_dtw_sl == plain.mcd_dtw_sl * CONVENTIONAL_SCALE
        assert conv.eta == plain.eta

    def test_strict_mode_equal_lengths_match_pad_mode(self):
        gen = Waveform(make_tone(300, 0.3, SR), SR)
        ref = Waveform(make_tone(330, 0.3, SR), SR)
        assert (evaluate_pair(gen, ref, PipelineConfig(pad_mode="strict"))
                == evaluate_pair(gen, ref, PipelineConfig(pad_mode="pad")))

    @pytest.mark.parametrize("gen_s, ref_s", [(0.3, 0.42), (0.42, 0.3), (0.3, 0.3)])
    def test_no_stft_row_is_transformed_twice(self, monkeypatch, gen_s, ref_s):
        # each clip is transformed once; the zero-padded copy of the shorter
        # one reuses the rows the padding cannot reach and transforms the rest
        rows = []
        rfft = np.fft.rfft

        def counting(x, *args, **kwargs):
            rows.append(len(x))
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        gen = Waveform(make_tone(300, gen_s, SR), SR)
        ref = Waveform(make_tone(320, ref_s, SR), SR)
        evaluate_pair(gen, ref)
        assert sum(rows) == rows_per_pair(gen.n_frames, ref.n_frames)

    @pytest.mark.parametrize("gen_n, ref_n", [(6615, 9261), (9261, 6615), (6615, 6615),
                                              (300, 9000), (9000, 512)])
    def test_no_row_goes_through_mel_twice(self, monkeypatch, gen_n, ref_n):
        # the padded clip's first MFCC rows are the shorter clip's own, so only
        # its tail goes through mel and the DCT again; a clip of at most
        # win // 2 samples shares no row
        rows = []
        mel_rows = metrics._mel_rows

        def counting(*args):
            mel, energy = mel_rows(*args)
            rows.append(len(mel.frames))
            return mel, energy

        monkeypatch.setattr(metrics, "_mel_rows", counting)
        gen = Waveform(make_tone(300, gen_n / SR, SR), SR)
        ref = Waveform(make_tone(320, ref_n / SR, SR), SR)
        evaluate_pair(gen, ref)
        assert sum(rows) == rows_per_pair(gen_n, ref_n)

    def test_padded_mfccs_hold_no_padded_spectrogram(self):
        # 20 s padded to 60 s: the padded clip's rows are never all held as
        # magnitudes; the slack is the tail's mel and DCT arrays
        cfg = PipelineConfig()
        p = cfg.frame
        w = Waveform(make_tone(300, 20.0, SR), SR)
        n = 60 * SR
        metrics._mfccs(w, n, cfg)  # caches the window and the mel terms
        tracemalloc.start()
        try:
            metrics._mfccs(w, n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own, padded = frame_count(w.n_frames), frame_count(n)
        tail = padded - shared_rows(w.n_frames)
        slack = 2 * padded * cfg.n_mels * 8 + (1 << 20)
        assert peak < (own + tail) * (p.fft_size // 2 + 1) * 8 + slack

    @pytest.mark.parametrize("padded_s", [60, 90])
    def test_mfccs_hold_no_clip_sized_spectrogram(self, padded_s):
        # samples go to mel rows a block of frames at a time: 60 s of audio,
        # alone or zero-padded to 90 s, peaks below its own T x 513 float64
        # magnitudes (20.2 MiB)
        cfg = PipelineConfig()
        w = Waveform(make_tone(300, 60.0, SR), SR)
        n = padded_s * SR
        metrics._mfccs(w, n, cfg)  # caches the window and the mel terms
        tracemalloc.start()
        try:
            metrics._mfccs(w, n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frame_count(w.n_frames) * (cfg.frame.fft_size // 2 + 1) * 8

    def test_reused_mfccs_give_the_padded_mcd_exactly(self):
        gen = Waveform(make_tone(300, 0.3, SR), SR)
        ref = Waveform(make_tone(320, 0.42, SR), SR)
        cfg = PipelineConfig()
        longest = ref.n_frames
        expected = mcd(extract_mfcc(pad_to_length(gen, longest), cfg),
                       extract_mfcc(pad_to_length(ref, longest), cfg))
        assert evaluate_pair(gen, ref, cfg).mcd == expected


def write_pair_corpus(tmp_path, pairs):
    manifest = tmp_path / "pairs.jsonl"
    with open(manifest, "w") as fh:
        for pair_id, gen, ref in pairs:
            gen_path = tmp_path / f"{pair_id}_gen.wav"
            ref_path = tmp_path / f"{pair_id}_ref.wav"
            write_wav(gen_path, gen)
            write_wav(ref_path, ref)
            fh.write(json.dumps({"id": pair_id, "generated": str(gen_path),
                                 "reference": str(ref_path)}) + "\n")
    return manifest


class TestEvaluateCorpus:
    def test_identical_pairs_aggregate_zero(self, tmp_path):
        w = Waveform(make_tone(440, 0.3, SR), SR)
        manifest = write_pair_corpus(tmp_path, [("p0", w, w), ("p1", w, w)])
        report = evaluate_corpus(load_pair_manifest(manifest))
        agg = report.aggregate()
        assert agg["mcd"] == 0.0
        assert agg["mcd_dtw"] == 0.0
        assert agg["mcd_dtw_sl"] == 0.0
        assert agg["n_pairs"] == 2
        assert agg["n_failures"] == 0

    def test_single_pair_aggregate_equals_row(self, tmp_path):
        gen = Waveform(make_tone(440, 0.3, SR), SR)
        ref = Waveform(make_tone(470, 0.35, SR), SR)
        manifest = write_pair_corpus(tmp_path, [("only", gen, ref)])
        report = evaluate_corpus(load_pair_manifest(manifest))
        agg = report.aggregate()
        row = report.rows[0]
        assert agg["mcd"] == row.mcd
        assert agg["mcd_dtw"] == row.mcd_dtw
        assert agg["mcd_dtw_sl"] == row.mcd_dtw_sl

    def test_mean_of_two_known_rows(self, tmp_path):
        from dubkit.audio import read_wav
        a_gen = Waveform(make_tone(440, 0.3, SR), SR)
        a_ref = Waveform(make_tone(470, 0.3, SR), SR)
        b_gen = Waveform(make_tone(200, 0.25, SR), SR)
        b_ref = Waveform(make_tone(230, 0.33, SR), SR)
        manifest = write_pair_corpus(tmp_path, [("a", a_gen, a_ref),
                                                ("b", b_gen, b_ref)])
        # expected rows computed pairwise from the same (quantized) files
        rows = [evaluate_pair(read_wav(tmp_path / f"{pid}_gen.wav"),
                              read_wav(tmp_path / f"{pid}_ref.wav"))
                for pid in ("a", "b")]
        agg = evaluate_corpus(load_pair_manifest(manifest)).aggregate()
        assert agg["mcd"] == pytest.approx((rows[0].mcd + rows[1].mcd) / 2, rel=1e-12)
        assert agg["mcd_dtw"] == pytest.approx(
            (rows[0].mcd_dtw + rows[1].mcd_dtw) / 2, rel=1e-12)

    def test_failures_collected_not_fatal(self, tmp_path):
        w = Waveform(make_tone(440, 0.2, SR), SR)
        manifest = write_pair_corpus(tmp_path, [("a", w, w), ("b", w, w)])
        missing = str(tmp_path / "no.wav")
        lines = manifest.read_text().splitlines(keepends=True)
        broken = [json.dumps({"id": pair_id, "generated": missing,
                              "reference": missing}) + "\n"
                  for pair_id in ("broken_mid", "broken_end")]
        manifest.write_text(lines[0] + broken[0] + lines[1] + broken[1])
        report = evaluate_corpus(load_pair_manifest(manifest))
        assert [row.pair_id for row in report.rows] == ["a", "b"]
        assert [pair_id for pair_id, _ in report.failures] == ["broken_mid", "broken_end"]
        assert report.aggregate()["n_failures"] == 2


def tone(freq, seconds, rate=SR):
    return Waveform(make_tone(freq, seconds, rate), rate)


def mixed_pairs():
    """Equal-length, longer and shorter generated clips, a rate mismatch and
    silence, at lengths that give groups of several shapes."""
    pairs = []
    for k, (gen_s, ref_s) in enumerate([(0.3, 0.3), (0.25, 0.4), (0.5, 0.35), (0.2, 0.2),
                                        (0.6, 0.45), (0.33, 0.5), (0.1, 0.15), (0.4, 0.4),
                                        (0.45, 0.3), (0.28, 0.6)]):
        pairs.append((f"p{k}", tone(200 + 37 * k, gen_s), tone(230 + 29 * k, ref_s)))
    pairs.append(("rates", tone(440, 0.3, 44100), tone(450, 0.35)))
    pairs.append(("silent", Waveform(np.zeros(SR // 4), SR), tone(300, 0.3)))
    return pairs


def pairwise_rows(manifest, cfg=PipelineConfig()):
    return [replace(evaluate_pair(read_mono(e.generated), read_mono(e.reference), cfg),
                    pair_id=e.pair_id) for e in load_pair_manifest(manifest)]


class TestCorpusGroups:
    """evaluate_corpus aligns prepared pairs a group at a time; its rows and
    failures are those of scoring each pair on its own."""

    @pytest.mark.parametrize("group_pairs, group_bytes", [
        (3, 40_000), (8, 1 << 22), (1, 0), (32, 1 << 22)])
    def test_rows_equal_pair_by_pair_rows(self, tmp_path, monkeypatch, group_pairs,
                                          group_bytes):
        manifest = write_pair_corpus(tmp_path, mixed_pairs())
        expected = pairwise_rows(manifest)
        monkeypatch.setattr(metrics, "_GROUP_PAIRS", group_pairs)
        monkeypatch.setattr(metrics, "_GROUP_BYTES", group_bytes)
        report = evaluate_corpus(load_pair_manifest(manifest))
        assert report.failures == []
        assert report.rows == expected

    def test_failures_stay_per_pair_and_in_manifest_order(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)  # the patched _align_many counts sweeps in this process
        cfg = PipelineConfig(pad_mode="strict")
        manifest = write_pair_corpus(tmp_path, [
            ("ok1", tone(300, 0.3), tone(310, 0.3)),
            ("strict", tone(300, 0.3), tone(310, 0.35)),
            ("ok2", tone(200, 0.25), tone(260, 0.25)),
            ("big", tone(300, 1.0), tone(330, 1.0)),
            ("swept", tone(500, 0.2), tone(510, 0.2)),
            ("ok3", tone(400, 0.3), tone(420, 0.3)),
        ])
        missing = json.dumps({"id": "missing", "generated": str(tmp_path / "no.wav"),
                              "reference": str(tmp_path / "no.wav")})
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:1] + [missing] + lines[1:]) + "\n")
        ok = [e for e in load_pair_manifest(manifest) if e.pair_id.startswith("ok")]
        expected = [replace(evaluate_pair(read_mono(e.generated), read_mono(e.reference), cfg),
                            pair_id=e.pair_id) for e in ok]

        # 0.2 s is 18 frames, the only such pair; 1 s is 87 x 87 cells
        align_many, sweeps = metrics._align_many, []

        def failing(pairs):
            sweeps.append(len(pairs))
            if any(len(a) == 18 for a, _ in pairs):
                raise RuntimeError("sweep failed")
            return align_many(pairs)

        monkeypatch.setattr(metrics, "_align_many", failing)
        monkeypatch.setattr(metrics, "MAX_DTW_CELLS", 2000)
        report = evaluate_corpus(load_pair_manifest(manifest), cfg)
        assert report.rows == expected
        assert [pair_id for pair_id, _ in report.failures] == ["missing", "strict", "big", "swept"]
        errors = [error for _, error in report.failures]
        assert errors[1].startswith("ValueError: length mismatch")
        assert errors[2].startswith("AlignmentTooLargeError: aligning 87 x 87 frames")
        assert errors[3] == "RuntimeError: sweep failed"
        # the failing sweep held the other pairs too, which were then retried one by one
        assert sweeps[0] == 4 and sweeps[1:] == [1, 1, 1, 1]

    def test_memory_does_not_grow_with_the_manifest(self, tmp_path, monkeypatch):
        # prepared pairs wait in a bounded group; what grows is the rows
        use_cpus(monkeypatch, 1)  # tracemalloc traces this process only
        gen, ref = tmp_path / "gen.wav", tmp_path / "ref.wav"
        write_wav(gen, tone(300, 0.5))
        write_wav(ref, tone(320, 0.6))
        peaks = []
        evaluate_corpus([metrics.PairEntry("warm", str(gen), str(ref))])  # imports, caches
        for count in (50, 400):
            entries = [metrics.PairEntry(f"p{k}", str(gen), str(ref)) for k in range(count)]
            tracemalloc.start()
            try:
                report = evaluate_corpus(entries)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(report.rows) == count
        # holding all 400 prepared pairs at once peaked 3.8 MB higher
        assert peaks[1] - peaks[0] < 1 << 20

    def test_finite_input_warns_nothing(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 1)  # warnings are caught in this process only
        manifest = write_pair_corpus(tmp_path, mixed_pairs())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluate_corpus(load_pair_manifest(manifest))
        assert report.failures == []
        assert [str(w.message) for w in caught] == []


class PartSpy(metrics._ForkedCall):
    """The _ForkedCall evaluate_corpus makes, recording in the calling
    process the part of the manifest each is given."""

    parts = []

    def __init__(self, fn, entries, cfg):
        PartSpy.parts.append(entries)
        super().__init__(fn, entries, cfg)


def spy_parts(monkeypatch):
    """(parts, forked pids) of the evaluate_corpus calls from here on."""
    PartSpy.parts = []
    monkeypatch.setattr(metrics, "_ForkedCall", PartSpy)
    return PartSpy.parts, spy_forks(monkeypatch)


def pair_bytes(entry):
    """The bytes of the pair's two files, 0 for a path that is no file."""
    return sum(os.path.getsize(path) for path in (entry.generated, entry.reference)
               if os.path.isfile(path))


def dealt(entries, cpus):
    """The parts evaluate_corpus deals ``entries`` into on ``cpus`` CPUs:
    largest pair first, ties in manifest order, then round-robin."""
    order = sorted(entries, key=pair_bytes, reverse=True)
    parts = min(cpus, len(entries))
    return [order[k::parts] for k in range(parts)]


def cycled_entries(tmp_path, count):
    """``count`` manifest entries cycling over five pairs of different
    lengths and a missing file, so that rows out of order would show."""
    pairs = write_pair_corpus(tmp_path, [(f"c{k}", tone(250 + 40 * k, 0.1 + 0.03 * k),
                                          tone(270 + 30 * k, 0.12 + 0.02 * k))
                                         for k in range(5)])
    base = load_pair_manifest(pairs) + [PairEntry("none", str(tmp_path / "no.wav"),
                                                  str(tmp_path / "no.wav"))]
    return [replace(base[k % len(base)], pair_id=f"e{k}") for k in range(count)]


class TestCorpusPool:
    """With more than one usable CPU, evaluate_corpus deals the manifest,
    largest pair first, round-robin to one forked child per CPU, at most one
    per pair; the report is the one-CPU report, row for row and failure for
    failure."""

    def test_pool_equals_inline(self, tmp_path, monkeypatch):
        cfg = PipelineConfig(pad_mode="strict")
        pairs = [("ok1", tone(300, 0.3), tone(310, 0.3)),
                 ("strict", tone(300, 0.3), tone(310, 0.35)),
                 ("big", tone(300, 1.0), tone(330, 1.0))]
        pairs += [(f"ok{k}", tone(200 + 20 * k, 0.2 + 0.01 * k), tone(210 + 20 * k, 0.2 + 0.01 * k))
                  for k in range(2, 12)]
        manifest = write_pair_corpus(tmp_path, pairs)
        missing = json.dumps({"id": "missing", "generated": str(tmp_path / "no.wav"),
                              "reference": str(tmp_path / "no.wav")})
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:5] + [missing] + lines[5:]) + "\n")
        monkeypatch.setattr(metrics, "MAX_DTW_CELLS", 2000)  # 1 s is 87 x 87 cells
        entries = load_pair_manifest(manifest)
        use_cpus(monkeypatch, 1)
        inline = evaluate_corpus(entries, cfg)
        parts, forks = spy_parts(monkeypatch)
        use_cpus(monkeypatch, 2)
        pooled = evaluate_corpus(entries, cfg)
        assert parts == dealt(entries, 2)
        assert len(forks) == 2 and all(map(reaped, forks))
        assert pooled.rows == inline.rows
        assert pooled.failures == inline.failures
        assert [pair_id for pair_id, _ in pooled.failures] == ["strict", "big", "missing"]
        errors = [error for _, error in pooled.failures]
        assert errors[0].startswith("ValueError: length mismatch")
        assert errors[1].startswith("AlignmentTooLargeError: aligning 87 x 87 frames")
        assert errors[2].startswith("FileNotFoundError: ")
        assert json.dumps(pooled.to_dict()) == json.dumps(inline.to_dict())

    @pytest.mark.parametrize("count", [1, 2, 63, 64, 65])
    def test_chunk_edges(self, tmp_path, monkeypatch, count):
        entries = cycled_entries(tmp_path, count)
        use_cpus(monkeypatch, 1)
        inline = evaluate_corpus(entries)
        parts, forks = spy_parts(monkeypatch)
        use_cpus(monkeypatch, 2)
        pooled = evaluate_corpus(entries)
        assert pooled.rows == inline.rows and pooled.failures == inline.failures
        assert [row.pair_id for row in pooled.rows] == [e.pair_id for e in entries
                                                        if e.generated.endswith("_gen.wav")]
        # never more children than pairs: one pair is scored in one child
        assert parts == dealt(entries, 2) and len(parts) == min(count, 2)
        assert len(forks) == len(parts) and all(map(reaped, forks))

    @pytest.mark.parametrize("count", [4, 8, 65])
    def test_three_cpus_deal_uneven_parts(self, tmp_path, monkeypatch, count):
        entries = cycled_entries(tmp_path, count)
        use_cpus(monkeypatch, 1)
        inline = evaluate_corpus(entries)
        parts, forks = spy_parts(monkeypatch)
        use_cpus(monkeypatch, 3)
        pooled = evaluate_corpus(entries)
        assert pooled.rows == inline.rows and pooled.failures == inline.failures
        assert parts == dealt(entries, 3)
        assert len({len(part) for part in parts}) == 2  # the first parts take one pair more
        assert len(forks) == 3 and all(map(reaped, forks))

    def test_a_part_holds_at_most_a_group(self, tmp_path, monkeypatch):
        entries = cycled_entries(tmp_path, 65)
        use_cpus(monkeypatch, 1)
        inline = evaluate_corpus(entries)
        monkeypatch.setattr(metrics, "_GROUP_PAIRS", 8)
        log, score = tmp_path / "groups.log", metrics._score_group

        def logged(group, outcomes, cfg):
            with open(log, "a") as fh:  # one short O_APPEND write per group
                fh.write(f"{os.getpid()} {len(group)}\n")
            return score(group, outcomes, cfg)

        monkeypatch.setattr(metrics, "_score_group", logged)
        parts, forks = spy_parts(monkeypatch)
        use_cpus(monkeypatch, 2)
        pooled = evaluate_corpus(entries)
        assert pooled.rows == inline.rows and pooled.failures == inline.failures
        groups = {}
        for line in log.read_text().splitlines():
            pid, size = map(int, line.split())
            groups.setdefault(pid, []).append(size)
        # parts of 33 and 32 pairs, 5 missing in each, sorted last; the
        # others in groups of at most 8, the last group what is left
        assert [len(part) for part in parts] == [33, 32]
        assert groups == {forks[0]: [8, 8, 8, 4], forks[1]: [8, 8, 8, 3]}

    def test_alternating_pairs_split_evenly(self, tmp_path, monkeypatch):
        # long and short pairs in turn: dealt in manifest order, one part
        # would get every long pair
        pairs = []
        for k in range(10):
            seconds = (0.95 if k % 2 == 0 else 0.15) + 0.01 * k
            pairs.append((f"a{k}", tone(300 + 10 * k, seconds), tone(320 + 10 * k, seconds + 0.05)))
        entries = load_pair_manifest(write_pair_corpus(tmp_path, pairs))
        use_cpus(monkeypatch, 1)
        inline = evaluate_corpus(entries)
        parts, forks = spy_parts(monkeypatch)
        use_cpus(monkeypatch, 2)
        pooled = evaluate_corpus(entries)
        assert pooled.rows == inline.rows and pooled.failures == inline.failures == []
        assert len(forks) == 2 and all(map(reaped, forks))
        ids = sorted(e.pair_id for e in entries)
        assert sorted(e.pair_id for part in parts for e in part) == ids
        sums = [sum(map(pair_bytes, part)) for part in parts]
        assert abs(sums[0] - sums[1]) <= max(map(pair_bytes, entries))
        for part in parts:  # each part is handed its pairs largest first
            sizes = [pair_bytes(e) for e in part]
            assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)

    def test_paths_that_are_no_file_sort_as_empty(self, tmp_path, monkeypatch):
        good = load_pair_manifest(write_pair_corpus(tmp_path, [
            (f"g{k}", tone(300 + 20 * k, 0.2 + 0.05 * k), tone(310 + 20 * k, 0.25))
            for k in range(4)]))
        (tmp_path / "dir.wav").mkdir()
        broken = [PairEntry("missing", str(tmp_path / "no.wav"), good[0].reference),
                  PairEntry("nul", str(tmp_path / "nul\0.wav"), str(tmp_path / "nul\0.wav")),
                  PairEntry("dir", str(tmp_path / "dir.wav"), str(tmp_path / "dir.wav"))]
        entries = [broken[0], good[0], broken[1], good[1], broken[2], good[2], good[3]]
        assert [pair_bytes(e) for e in broken] == [os.path.getsize(good[0].reference), 0, 0]
        use_cpus(monkeypatch, 1)
        inline = evaluate_corpus(entries)
        parts, forks = spy_parts(monkeypatch)
        use_cpus(monkeypatch, 2)
        pooled = evaluate_corpus(entries)
        # the missing file counts 0, and so do both paths of nul and dir:
        # sorted g3 g2 g1 g0 missing nul dir, then dealt round-robin
        assert parts == dealt(entries, 2)
        assert [[e.pair_id for e in part] for part in parts] == [["g3", "g1", "missing", "dir"],
                                                                 ["g2", "g0", "nul"]]
        assert len(forks) == 2 and all(map(reaped, forks))
        assert pooled.rows == inline.rows and pooled.failures == inline.failures
        assert [row.pair_id for row in pooled.rows] == ["g0", "g1", "g2", "g3"]
        assert [pair_id for pair_id, _ in pooled.failures] == ["missing", "nul", "dir"]
        errors = [error for _, error in pooled.failures]
        assert errors[0].startswith("FileNotFoundError: ")
        assert errors[1].startswith("ValueError: ")
        assert errors[2].startswith("IsADirectoryError: ")
        assert json.dumps(pooled.to_dict()) == json.dumps(inline.to_dict())

    def test_a_worker_killed_mid_chunk_fails_the_run(self, tmp_path):
        entries = cycled_entries(tmp_path, 12)
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("".join(json.dumps({"id": e.pair_id, "generated": e.generated,
                                                "reference": e.reference}) + "\n"
                                    for e in entries))
        out = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", KILLED_WORKER, str(manifest), str(out)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""
        assert not out.exists()
        errors = [json.loads(line)["error"] for line in result.stderr.splitlines()]
        assert errors == [{"type": "ChildProcessError",
                           "message": "forked child killed by SIGKILL"}] * 2


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def failed_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
class TestFailedFork:
    """A fork that raises leaves no descriptor open and no child running."""

    def test_forked_call_closes_its_pipe(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", failed_fork)
        before = open_fds()
        for _ in range(5):
            with pytest.raises(BlockingIOError):
                metrics._ForkedCall(len, [])
        assert open_fds() == before

    def test_children_forked_before_are_killed_and_reaped(self, tmp_path, monkeypatch):
        entries = cycled_entries(tmp_path, 12)
        use_cpus(monkeypatch, 2)
        forks = spy_forks(monkeypatch)
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: failed_fork() if forks else fork())
        before = open_fds()
        with pytest.raises(BlockingIOError):
            evaluate_corpus(entries)
        assert len(forks) == 1 and reaped(forks[0])
        assert open_fds() == before


# dubkit batch on two CPUs, the second pair a child prepares killing it;
# once with the document on stdout and once with --out
KILLED_WORKER = """\
import os, signal, sys
from dubkit import cli, metrics
os.sched_getaffinity = lambda pid: {0, 1}
parent, prepare, prepared = os.getpid(), metrics._prepare_pair, []

def dying(*args):
    prepared.append(1)
    if os.getpid() != parent and len(prepared) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return prepare(*args)

metrics._prepare_pair = dying
manifest, out = sys.argv[1:]
status = cli.run(["batch", manifest])
if status == cli.run(["batch", manifest, "--out", out]):
    sys.exit(status)
"""


class TestPairManifest:
    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "generated": "a.wav"}\n')
        with pytest.raises(ValueError, match=r":1: missing field 'reference'"):
            load_pair_manifest(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('\n{"id": "x", "generated": "a.wav", "reference": "b.wav"}\n\n')
        entries = load_pair_manifest(path)
        assert entries == [PairEntry("x", "a.wav", "b.wav")]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "generated": "a.wav", "reference": "b.wav"}\nnot json\n')
        with pytest.raises(ValueError, match=at(path, 2) + "invalid JSON"):
            load_pair_manifest(path)


def test_alignment_result_path_len():
    path = np.array([(0, 0), (1, 1)])
    a = AlignmentResult(1.0, path, 2, 2)
    assert a.path_len == 2
