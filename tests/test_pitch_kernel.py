"""The blocked YIN pitch tracker against the whole-clip tracker it replaced
(``reference_pitch.py``): equal pitch bit for bit, including clips whose
length puts a short block at numpy's in-place threshold, plus its memory
bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dubkit.audio import Waveform
from dubkit.dsp import _SPECTRAL_SPAN, PITCH_FRAME_LENGTH, pitch_track

import reference_pitch


def assert_same_pitch(w, *args):
    expected = reference_pitch.pitch_track(w, *args)
    got = pitch_track(w, *args)
    assert np.array_equal(got.values, expected.values)
    assert got.frame_rate == expected.frame_rate


def signal(kind, n, sr, seed, period=None):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sr
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "silence":
        return np.zeros(n)
    if kind == "integers":
        return rng.integers(-3, 4, n) / 4.0
    if kind == "tone+noise":
        return 0.6 * np.sin(2 * np.pi * 180.0 * t) + 0.3 * rng.uniform(-1.0, 1.0, n)
    # a tone whose period is ``period`` samples puts its first trough there
    return 0.8 * np.sin(2 * np.pi * np.arange(n) / period + rng.uniform(0, np.pi))


@st.composite
def pitch_cases(draw):
    """A waveform and pitch_track arguments: noise, silence, small integers,
    or a tone with its trough at tau_min, tau_max or in between, over a range
    of rates, hops, bands and thresholds (0.01 leaves most frames unvoiced,
    2 voices every frame)."""
    sr = draw(st.sampled_from([8000, 16000, 22050, 44100]))
    hop = draw(st.integers(7, 700))
    n = draw(st.integers(1, 160 * hop))
    f_min = draw(st.floats(20.0, 400.0))
    f_max = draw(st.floats(f_min * 1.2, sr / 2))
    tau_min = max(1, int(np.ceil(sr / f_max)))
    tau_max = min(PITCH_FRAME_LENGTH // 2, int(np.floor(sr / f_min)))
    assume(tau_min < tau_max)
    kind = draw(st.sampled_from(["noise", "silence", "integers", "tone+noise", "tone"]))
    period = draw(st.sampled_from([tau_min, tau_max, (tau_min + tau_max) / 2]))
    threshold = draw(st.sampled_from([0.01, 0.15, 1.0, 2.0]) | st.floats(0.01, 2.0))
    w = Waveform(signal(kind, n, sr, draw(st.integers(0, 2**32 - 1)), period), sr)
    return w, f_min, f_max, threshold, hop


@settings(max_examples=150, deadline=None)
@given(pitch_cases())
def test_matches_reference_tracker(case):
    assert_same_pitch(*case)


# numpy evaluates the spectrum product in another operand order below 8
# frames than at 8 or more; a tail block of 1-7 frames not merged into the
# block before it gives some frames a pitch 1 ulp off the reference.
BLOCK = _SPECTRAL_SPAN // PITCH_FRAME_LENGTH  # frames per pitch block: 128
BOUNDARY_FRAMES = [*range(1, 8), *(BLOCK * k + r for k in (1, 2) for r in range(1, 8))]


@pytest.mark.parametrize("n_frames", BOUNDARY_FRAMES)
def test_matches_reference_at_block_boundaries(n_frames):
    sr, hop = 22050, 64
    w = Waveform(signal("tone+noise", (n_frames - 1) * hop + 1, sr, n_frames), sr)
    assert len(pitch_track(w, hop=hop).values) == n_frames
    for threshold in (0.15, 2.0):
        assert_same_pitch(w, 50.0, 600.0, threshold, hop)


def test_memory_does_not_grow_with_the_clip():
    # transforming all 2584 frames at once peaks near 350 MB
    sr = 22050
    w = Waveform(signal("tone+noise", 30 * sr, sr, 11), sr)
    tracemalloc.start()
    try:
        pitch_track(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
