"""The blocked STFT magnitude and frame energy against the whole-clip code
they replaced (``reference_spectral.py``): equal spectra, energy, mel and
MFCC bit for bit at any block size, odd and short windows, hop 1 and the
smallest and largest FFT sizes, plus their memory bound. The mel and energy
rows computed a block of frames at a time (``dsp._mel_rows``), from any
frame on of a zero-padded clip, equal the public whole-array path, and the
padded clip's spectrogram starts with the clip's own rows. The block framer
equals the reference framing, and numpy's rfft and irfft equal scipy's."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit import dsp
from dubkit.audio import Waveform
from dubkit.dsp import (FrameParams, energy_track, mel_spectrogram, mfcc, pitch_track,
                        stft_magnitude)

import reference_spectral
from reference_spectral import pad_to_length

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
    # output. What is left is the outputs and one block's windowed frames and
    # spectra; frames are views of the clip, not of a reflect-padded copy
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
    outputs = spec.frames.nbytes + energy.values.nbytes
    assert peak < outputs + 2 * block_bytes


@st.composite
def padded_cases(draw):
    """Random framing (odd windows too), a clip of L samples (L <= win // 2
    among them), a padded length n (n - L < hop among them) and a block size."""
    fft = draw(st.sampled_from([16, 32, 64, 256]))
    win = draw(st.integers(1, fft))
    p = FrameParams(fft_size=fft, hop=draw(st.integers(1, win)), win_length=win)
    length = draw(st.one_of(st.integers(1, max(1, win // 2)), st.integers(1, 8 * fft)))
    extra = draw(st.one_of(st.integers(0, p.hop - 1), st.integers(0, 4 * fft)))
    kind = draw(st.sampled_from(["noise", "silence", "integers"]))
    w = Waveform(signal(kind, length, draw(st.integers(0, 2**32 - 1))), 22050)
    return w, length + extra, p, draw(st.sampled_from(BLOCK_ROWS))


def assert_mel_rows(w, n, p, rows=None, first=None):
    """dsp._mel_rows from frame ``first`` on (the shared rows, by default) of
    w zero-padded to n samples, in blocks of ``rows`` frames, against
    mel_spectrogram and energy_track of the padded clip's whole spectrogram,
    which starts with the dsp._shared_rows rows of the clip's own."""
    span = rows * p.fft_size if rows else dsp._SPECTRAL_SPAN
    shared = dsp._shared_rows(len(w.samples), p)
    first = shared if first is None else first
    with mock.patch.multiple(dsp, _SPECTRAL_SPAN=span, _MIN_BLOCK=1 if rows else dsp._MIN_BLOCK):
        own = stft_magnitude(w, p)
        mel, energy = dsp._mel_rows(w, p, 80, 0.0, 8000.0, first, n, energy=True)
    expected = stft_magnitude(pad_to_length(w, n), p)
    expected_mel = mel_spectrogram(expected).frames[first:]
    assert 0 <= shared <= own.n_frames
    assert np.array_equal(own.frames[:shared], expected.frames[:shared])
    assert mel.frames.shape == expected_mel.shape
    assert mel.frames.tobytes() == expected_mel.tobytes()
    assert energy.values.tobytes() == energy_track(expected).values[first:].tobytes()
    assert mel.frame_rate == energy.frame_rate == expected.frame_rate


@settings(max_examples=300, deadline=None)
@given(padded_cases())
def test_padded_spectrogram_equals_the_padded_clips(case):
    # the rows the padding reaches, as metrics._mfccs takes them
    assert_mel_rows(*case)


@settings(max_examples=300, deadline=None)
@given(padded_cases(), st.data())
def test_block_mel_and_energy_rows_equal_the_whole_array_path(case, data):
    w, n, p, rows = case
    assert_mel_rows(w, n, p, rows, data.draw(st.integers(0, frame_count(n, p))))


@pytest.mark.parametrize("extra", [0, 1, 255, 256, 5000])
def test_padded_spectrogram_past_one_block(extra):
    # 300 frames at the default framing: the shared rows run past the first
    # 256-row block, and the padded rows start inside the second
    p = FrameParams()
    w = Waveform(signal("noise", 300 * p.hop + 77, 5), 22050)
    assert_mel_rows(w, len(w.samples) + extra, p)


@pytest.mark.parametrize("n", [16, 256, 512, 1000, 1024, 2048, 4096])
def test_numpy_rfft_into_a_given_array_is_scipys(n):
    # dsp transforms frames with numpy.fft.rfft, pitch_track into its work
    # arrays (out=); the oracles and every pinned output were computed with
    # scipy.fft.rfft
    from scipy.fft import rfft

    rng = np.random.default_rng(n)
    for rows in (1, 2, 7, 8, 129, 300):
        for width in sorted({n, n // 2 + 1, max(1, n // 3)}):  # n longer than the input
            base = rng.uniform(-1.0, 1.0, 3 * rows + width)
            inputs = [
                rng.uniform(-1.0, 1.0, (rows, width)),
                # overlapping rows, as frames read the clip
                np.lib.stride_tricks.sliding_window_view(base, width)[::3][:rows],
                # every other sample of each row, as a column slice
                np.lib.stride_tricks.sliding_window_view(base, width)[::3][:rows, ::2],
            ]
            for x in inputs:
                out = np.empty((rows, n // 2 + 1), dtype=complex)
                np.fft.rfft(x, n=n, axis=1, out=out)
                assert out.tobytes() == rfft(x, n=n, axis=1).tobytes(), (rows, width, x.strides)


@pytest.mark.parametrize("kind", ["noise", "silence", "16-bit"])
def test_numpy_irfft_is_scipys(kind):
    # pitch_track's cross-correlation uses numpy.fft.irfft; the pitch oracle
    # and every pinned output were computed with scipy.fft.irfft
    from scipy.fft import irfft

    length, n = dsp.PITCH_FRAME_LENGTH, 2 * dsp.PITCH_FRAME_LENGTH
    rng = np.random.default_rng(len(kind))
    for rows in (1, 2, 7, 8, 9, 128, 300):
        frames = rng.uniform(-1.0, 1.0, (rows, length))
        if kind == "silence":
            frames[...] = 0.0
        elif kind == "16-bit":
            frames = np.round(frames * 32767.0) / 32768.0
        spec_full = np.fft.rfft(frames, n=n, axis=1)
        spec_head = np.fft.rfft(frames[:, : length // 2], n=n, axis=1)
        product = spec_full * spec_head.conj()  # as _pitch_block forms it
        assert np.fft.irfft(product, n=n, axis=1).tobytes() == irfft(product, n=n, axis=1).tobytes()


def assert_framing(x, n, length, hop, rows, first):
    """dsp._frame_blocks over x zero-padded to n, in blocks of ``rows``
    frames from frame ``first`` on, against the reference framing of the
    padded clip; blocks inside x must be views of it."""
    padded = np.zeros(n)
    padded[: len(x)] = x
    expected = reference_spectral._frame(padded, length, hop)
    with mock.patch.multiple(dsp, _SPECTRAL_SPAN=rows * length, _MIN_BLOCK=1):
        blocks = list(dsp._frame_blocks(x, length, hop, length, first, n))
    assert [lo for lo, _, _ in blocks] == list(range(first, len(expected), rows))
    for lo, hi, frames in blocks:
        assert hi == min(lo + rows, len(expected))
        assert np.array_equal(frames, expected[lo:hi]), (lo, hi)
        inside = lo * hop >= length // 2 and (hi - 1) * hop - length // 2 + length <= len(x)
        if inside and n > length // 2 + 1:
            assert np.shares_memory(frames, x), (lo, hi)
    return blocks


@st.composite
def framing_cases(draw):
    """A clip of L samples (1, pad, pad + 1, pad + 2 or any), odd and even
    frame lengths, zero padding to n samples, a block size that puts the
    first, interior and last blocks (or one whole block) at every offset."""
    length = draw(st.integers(1, 64))
    pad = length // 2
    hop = draw(st.integers(1, length))
    size = draw(st.sampled_from([1, max(1, pad), pad + 1, pad + 2]) | st.integers(1, 30 * length))
    n = size + draw(st.sampled_from([0, 1, hop]) | st.integers(0, 4 * length))
    x = signal(draw(st.sampled_from(["noise", "integers"])), size, draw(st.integers(0, 2**32 - 1)))
    n_frames = 1 + (n + 2 * pad - length) // hop
    rows = draw(st.integers(1, n_frames + 1))
    first = draw(st.sampled_from([0, n_frames - 1]) | st.integers(0, n_frames - 1))
    return x, n, length, hop, rows, first


@settings(max_examples=400, deadline=None)
@given(framing_cases())
def test_block_framing_equals_the_reference_framing(case):
    assert_framing(*case)


@pytest.mark.parametrize("length", [1, 2, 15, 16, 2048, 2047])
def test_block_framing_at_the_reflection_limits(length):
    pad = length // 2
    for size in sorted({1, max(1, pad), pad + 1, pad + 2, 3 * length + 5}):
        x = signal("noise", size, size)
        for hop in sorted({1, max(1, length // 4), length}):
            for n in (size, size + hop, size + 2 * length):
                n_frames = 1 + (n + 2 * pad - length) // hop
                for rows in sorted({1, 3, n_frames}):
                    assert_framing(x, n, length, hop, rows, 0)
                    assert_framing(x, n, length, hop, rows, n_frames // 2)


@pytest.mark.parametrize("n_mels", [80, 40, 2])
@pytest.mark.parametrize("seconds", [0.01, 0.3, 2.0])
def test_mel_spectrogram_keeps_its_input_and_the_in_place_path_matches(n_mels, seconds):
    # dsp._mel_rows squares each block's magnitudes in place, in its own buffer
    n = int(seconds * 22050)
    x = signal("noise", n, n_mels)
    x[: n // 3] = 0.0  # frames at the floor
    w = Waveform(x, 22050)
    spec = stft_magnitude(w)
    before = spec.frames.copy()
    mel = mel_spectrogram(spec, n_mels)
    assert spec.frames.tobytes() == before.tobytes()
    in_place, energy = dsp._mel_rows(w, FrameParams(), n_mels, 0.0, 8000.0, energy=True)
    assert in_place.frames.tobytes() == mel.frames.tobytes()
    assert in_place.frame_rate == mel.frame_rate
    assert energy.values.tobytes() == energy_track(spec).values.tobytes()
    assert energy.frame_rate == mel.frame_rate


def test_concurrent_calls_give_the_serial_results():
    # every work array belongs to one call, so two threads cannot share one
    clips = [Waveform(signal("noise", 4 * 22050 + 333 * k, k), 22050) for k in range(2)]

    def features(w):
        return stft_magnitude(w).frames, pitch_track(w).values

    serial = [features(w) for w in clips]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            for (mags, pitch), (want_mags, want_pitch) in zip(pool.map(features, clips), serial):
                assert mags.tobytes() == want_mags.tobytes()
                assert pitch.tobytes() == want_pitch.tobytes()
