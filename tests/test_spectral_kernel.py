"""The blocked STFT magnitude and frame energy against the whole-clip code
they replaced (``reference_spectral.py``): equal spectra, energy, mel and
MFCC bit for bit at any block size, odd and short windows, hop 1 and the
smallest and largest FFT sizes, plus their memory bound."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit import dsp
from dubkit.audio import Waveform
from dubkit.dsp import FrameParams, energy_track, mel_spectrogram, mfcc, stft_magnitude

import reference_spectral

PARAMS = [
    FrameParams(),
    FrameParams(fft_size=16, hop=1, win_length=15),  # odd window, hop 1, fft 16
    FrameParams(fft_size=16, hop=5, win_length=16),
    FrameParams(fft_size=1024, hop=300, win_length=801),  # odd window below fft
    FrameParams(fft_size=512, hop=1, win_length=512),
    FrameParams(fft_size=4096, hop=512, win_length=4095),
    FrameParams(fft_size=4096, hop=1, win_length=2048),
]
BLOCK_ROWS = [1, 2, 3, 17, None]  # None keeps the default _SPECTRAL_SPAN


def n_samples(n_frames, p, extra):
    """A clip length that centred framing cuts into n_frames frames:
    1 + (n + 2 * (win // 2) - win) // hop == n_frames for extra in [0, hop).
    An even window at hop 1 cuts even one sample into two frames, so such a
    clip gets the smallest count there is."""
    return max(1, (n_frames - 1) * p.hop + p.win_length % 2 + extra)


def frame_count(n, p):
    return 1 + (n + 2 * (p.win_length // 2) - p.win_length) // p.hop


def signal(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "silence":
        return np.zeros(n)
    return rng.integers(-3, 4, n) / 4.0


@st.composite
def spectral_cases(draw):
    """Frame parameters, a block size in rows and a clip whose frame count is
    shorter than one block, an exact multiple of it, or one frame past one."""
    p = draw(st.sampled_from(PARAMS))
    rows = draw(st.sampled_from(BLOCK_ROWS))
    block = rows or max(1, dsp._SPECTRAL_SPAN // p.fft_size)
    shape = draw(st.sampled_from(["short", "multiple", "tail"]))
    if shape == "short":
        n_frames = draw(st.integers(1, max(1, block - 1)))
    else:
        n_frames = block * draw(st.integers(1, 3)) + (shape == "tail")
    n = n_samples(n_frames, p, draw(st.integers(0, p.hop - 1)))
    assert frame_count(n, p) == max(n_frames, frame_count(1, p))
    kind = draw(st.sampled_from(["noise", "silence", "integers"]))
    w = Waveform(signal(kind, n, draw(st.integers(0, 2**32 - 1))), 22050)
    return w, p, rows


def assert_same_features(w, p, rows):
    # blocks of exactly ``rows`` rows: the span gives that many per block, and
    # a _MIN_BLOCK of 1 leaves blocks below 8 rows and short tails as they are
    span = rows * p.fft_size if rows else dsp._SPECTRAL_SPAN
    min_block = 1 if rows else dsp._MIN_BLOCK
    with mock.patch.multiple(dsp, _SPECTRAL_SPAN=span, _MIN_BLOCK=min_block):
        got = stft_magnitude(w, p)
        got_energy = energy_track(got)
    expected = reference_spectral.stft_magnitude(w, p)
    expected_energy = reference_spectral.energy_track(expected)
    assert got.frames.shape == expected.frames.shape
    assert np.array_equal(got.frames, expected.frames)
    assert np.array_equal(got_energy.values, expected_energy.values)
    assert got_energy.frame_rate == expected_energy.frame_rate
    for n_mels in (80, 40, 20):
        mel, expected_mel = mel_spectrogram(got, n_mels), mel_spectrogram(expected, n_mels)
        assert np.array_equal(mel.frames, expected_mel.frames)
        assert np.array_equal(mfcc(mel).frames, mfcc(expected_mel).frames)
    return got


@settings(max_examples=200, deadline=None)
@given(spectral_cases())
def test_matches_whole_clip_reference(case):
    assert_same_features(*case)


@pytest.mark.parametrize("p", PARAMS)
@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_every_block_size_and_framing(p, rows):
    block = rows or max(1, dsp._SPECTRAL_SPAN // p.fft_size)
    for n_frames in {1, max(1, block - 1), block, block + 1, 2 * block + 1}:
        n = n_samples(n_frames, p, p.hop // 2)
        w = Waveform(signal("noise", n, n_frames), 22050)
        assert assert_same_features(w, p, rows).n_frames == frame_count(n, p)


def test_memory_is_the_output_plus_a_block():
    # the whole-clip code held the windowed frames (T x win float64), their
    # complex spectra and then the squared magnitudes at once: about 5x the
    # output. What is left is the outputs, the reflect-padded copy of the
    # clip that _frame makes, and a block's windowed frames and spectra
    p = FrameParams()
    w = Waveform(signal("noise", 60 * 22050, 12), 22050)
    tracemalloc.start()
    try:
        spec = stft_magnitude(w, p)
        energy = energy_track(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = dsp._SPECTRAL_SPAN // p.fft_size
    block_bytes = rows * p.win_length * 8 + rows * (p.fft_size // 2 + 1) * 16
    padded_bytes = (len(w.samples) + 2 * (p.win_length // 2)) * 8
    outputs = spec.frames.nbytes + energy.values.nbytes
    assert peak < outputs + padded_bytes + 2 * block_bytes + (1 << 20)
