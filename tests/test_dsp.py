import numpy as np
import pytest

from dubkit import dsp
from dubkit.audio import Waveform
from dubkit.dsp import (EnergyTrack, FrameParams, MelSpectrogram, Spectrogram,
                        energy_track, hz_to_mel, mel_filterbank, mel_spectrogram,
                        mel_to_hz, mfcc, pitch_track, stft_magnitude)

from helpers import make_sawtooth, make_tone, textbook_mfcc

SR = 22050


def tone_wave(freq, duration=0.5, amplitude=0.8):
    return Waveform(make_tone(freq, duration, SR, amplitude), SR)


class TestFrameParams:
    def test_defaults_valid(self):
        p = FrameParams()
        assert (p.fft_size, p.hop, p.win_length) == (1024, 256, 1024)

    @pytest.mark.parametrize("fft,hop,win", [(1024, 0, 1024), (1024, 2048, 1024),
                                             (512, 256, 1024), (1024, 256, 0)])
    def test_bad_framing_rejected(self, fft, hop, win):
        with pytest.raises(ValueError):
            FrameParams(fft_size=fft, hop=hop, win_length=win)


class TestStft:
    def test_zero_waveform_gives_zero_magnitudes(self):
        spec = stft_magnitude(Waveform(np.zeros(4000), SR))
        assert np.all(spec.frames == 0.0)

    def test_frame_count(self):
        spec = stft_magnitude(Waveform(np.zeros(4096), SR))
        assert spec.n_frames == 1 + 4096 // 256
        assert spec.frames.shape[1] == 513

    def test_sine_peak_bin(self):
        # bin = round(f * fft / sr) = round(46.44) = 46 for 1000 Hz
        spec = stft_magnitude(tone_wave(1000))
        interior = spec.frames[4:-4]
        assert np.all(np.argmax(interior, axis=1) == 46)

    def test_linear_in_amplitude(self):
        w1 = tone_wave(500, amplitude=0.4)
        w2 = Waveform(w1.samples * 2.0, SR)
        s1 = stft_magnitude(w1)
        s2 = stft_magnitude(w2)
        assert np.allclose(s2.frames, 2.0 * s1.frames, rtol=1e-12, atol=1e-12)

    def test_empty_waveform_rejected(self):
        with pytest.raises(ValueError):
            stft_magnitude(Waveform(np.array([]), SR))

    def test_deterministic(self):
        w = tone_wave(440)
        assert np.array_equal(stft_magnitude(w).frames, stft_magnitude(w).frames)


class TestMel:
    def test_silence_hits_log_floor(self):
        spec = stft_magnitude(Waveform(np.zeros(3000), SR))
        mel = mel_spectrogram(spec)
        assert np.all(mel.frames == np.log(1e-10))

    def test_filterbank_rows_triangular(self):
        fb = mel_filterbank(SR, 1024, 80, 0.0, 8000.0)
        assert fb.shape == (80, 513)
        assert np.all(fb >= 0.0)
        assert np.all(fb.sum(axis=1) > 0.0)
        for row in fb:
            support = np.nonzero(row)[0]
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))
            peak = np.argmax(row)
            assert np.all(np.diff(row[support[0]:peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:support[-1] + 1]) <= 0)

    def test_filterbank_cached_read_only(self):
        fb = mel_filterbank(SR, 1024, 80, 0.0, 8000.0)
        assert mel_filterbank(SR, 1024, 80, 0.0, 8000.0) is fb
        assert not fb.flags.writeable
        assert np.array_equal(fb, mel_filterbank.__wrapped__(SR, 1024, 80, 0.0, 8000.0))
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_tone_lands_on_nearest_band(self):
        mel = mel_spectrogram(stft_magnitude(tone_wave(440)))
        centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 82))[1:-1]
        expected = int(np.argmin(np.abs(centers - 440.0)))
        interior = mel.frames[4:-4]
        assert np.all(np.argmax(interior, axis=1) == expected)

    def test_band_edges_validated(self):
        spec = stft_magnitude(tone_wave(440))
        with pytest.raises(ValueError):
            mel_spectrogram(spec, fmin=4000.0, fmax=3000.0)
        with pytest.raises(ValueError):
            mel_spectrogram(spec, fmax=SR)  # above Nyquist

    def test_frame_count_preserved(self):
        spec = stft_magnitude(tone_wave(440))
        assert mel_spectrogram(spec).frames.shape[0] == spec.n_frames


class TestMfcc:
    def test_constant_logmel_has_no_ac_coefficients(self):
        frames = np.full((5, 80), 3.7)
        mel = MelSpectrogram(frames, SR / 256)
        out = mfcc(mel, 13)
        assert np.all(np.abs(out.frames) < 1e-9)

    def test_output_shape(self):
        mel = mel_spectrogram(stft_magnitude(tone_wave(440)))
        out = mfcc(mel, 13)
        assert out.frames.shape == (mel.frames.shape[0], 13)

    def test_k_out_of_range(self):
        mel = mel_spectrogram(stft_magnitude(tone_wave(440)))
        with pytest.raises(ValueError):
            mfcc(mel, 0)
        with pytest.raises(ValueError):
            mfcc(mel, 81)

    def test_k_must_leave_out_the_zeroth(self):
        # c0 is always dropped, so 20 bands give at most 19 coefficients
        mel = MelSpectrogram(np.full((3, 20), 2.0), SR / 256)
        assert mfcc(mel, 19).frames.shape == (3, 19)
        with pytest.raises(ValueError, match=r"\[1, 19\]"):
            mfcc(mel, 20)

    def test_matches_textbook_oracle(self):
        spec = stft_magnitude(tone_wave(440, duration=0.2))
        mel = mel_spectrogram(spec, 40, 0.0, 8000.0)
        ours = mfcc(mel, 13).frames
        oracle = textbook_mfcc(spec.frames**2, SR, 1024, 40, 0.0, 8000.0, 13)
        assert np.linalg.norm(ours - oracle) / np.linalg.norm(oracle) < 1e-6


class TestEnergy:
    def test_silence_energy_zero(self):
        spec = stft_magnitude(Waveform(np.zeros(3000), SR))
        assert np.all(energy_track(spec).values == 0.0)

    def test_three_four_five(self):
        frame = np.zeros((1, 513))
        frame[0, 10] = 3.0
        frame[0, 20] = 4.0
        spec = Spectrogram(frame, FrameParams(), SR)
        assert energy_track(spec).values[0] == pytest.approx(5.0, abs=1e-12)

    def test_linear_scaling(self):
        w = tone_wave(440)
        e1 = energy_track(stft_magnitude(w)).values
        e2 = energy_track(stft_magnitude(Waveform(0.5 * w.samples, SR))).values
        assert np.allclose(e2, 0.5 * e1, rtol=1e-9, atol=0)


class TestPitch:
    def test_silence_all_unvoiced(self):
        track = pitch_track(Waveform(np.zeros(SR), SR))
        assert np.all(track.values == 0.0)

    @pytest.mark.parametrize("freq", [100.0, 220.0, 440.0])
    def test_sine_within_one_percent(self, freq):
        track = pitch_track(tone_wave(freq, duration=1.0))
        interior = track.values[4:-4]
        voiced = interior[interior > 0]
        assert len(voiced) >= 0.9 * len(interior)
        close = np.abs(voiced - freq) <= 0.01 * freq
        assert close.mean() >= 0.9

    def test_sawtooth_no_octave_error(self):
        w = Waveform(make_sawtooth(100, 1.0, SR), SR)
        track = pitch_track(w)
        interior = track.values[4:-4]
        close = np.abs(interior - 100.0) <= 1.0
        assert close.mean() >= 0.9

    def test_values_zero_or_in_band(self, rng):
        w = Waveform(rng.uniform(-0.9, 0.9, SR), SR)
        track = pitch_track(w, f_min=50.0, f_max=600.0)
        voiced = track.values[track.values > 0]
        assert np.all((voiced >= 50.0) & (voiced <= 600.0))

    def test_degenerate_band_rejected(self):
        w = tone_wave(440)
        with pytest.raises(ValueError):
            pitch_track(w, f_min=600.0, f_max=600.0)
        with pytest.raises(ValueError):
            pitch_track(w, f_min=0.0, f_max=600.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="voicing_threshold"):
            pitch_track(tone_wave(220), voicing_threshold=threshold)

    def test_deterministic(self):
        w = tone_wave(220)
        assert np.array_equal(pitch_track(w).values, pitch_track(w).values)


def test_energy_and_pitch_tracks_share_frame_rate():
    w = tone_wave(440)
    spec = stft_magnitude(w)
    assert energy_track(spec).frame_rate == pitch_track(w).frame_rate


def test_energy_track_type():
    spec = stft_magnitude(tone_wave(440))
    assert isinstance(energy_track(spec), EnergyTrack)


def test_hann_window_is_scipys():
    from scipy.signal import get_window
    for length in range(1, 4097):
        window = dsp._hann(length)
        assert np.array_equal(window, get_window("hann", length, fftbins=True)), length
        assert not window.flags.writeable


class TestBlocks:
    """dsp._blocks, the block rule of stft_magnitude, energy_track and pitch_track."""

    @pytest.mark.parametrize("row_length", [1024, 2048, 4096, 2**18, 2**19])
    def test_ranges_cover_the_rows_within_bounds(self, row_length):
        rows = max(dsp._MIN_BLOCK, dsp._SPECTRAL_SPAN // row_length)
        for n_rows in range(3 * rows + 9):
            blocks = list(dsp._blocks(n_rows, row_length))
            assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n_rows))
            sizes = [hi - lo for lo, hi in blocks]
            assert all(0 < size <= rows + dsp._MIN_BLOCK - 1 for size in sizes), sizes
            if len(blocks) > 1:
                assert min(sizes) >= dsp._MIN_BLOCK, sizes

    def test_pitch_cuts_are_128_frames_with_short_tails_merged(self):
        # the rule pitch_track applied before it shared _blocks
        def cuts(n_frames):
            starts = list(range(0, n_frames, 128))
            if len(starts) > 1 and n_frames - starts[-1] < 8:
                starts.pop()
            return list(zip(starts, starts[1:] + [n_frames]))

        for n_frames in range(3 * 128 + 9):
            assert list(dsp._blocks(n_frames, dsp.PITCH_FRAME_LENGTH)) == cuts(n_frames)
