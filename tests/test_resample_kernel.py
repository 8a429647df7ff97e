"""The numpy polyphase resampler against scipy.signal.resample_poly
(``reference_resample.py``): equal samples bit for bit, sign bits and shape
included, over the standard rate pairs, across block boundaries and at the
factor limit, plus its memory bound and its speed against scipy's. Its
filter and the cephes i0 port in its Kaiser window equal scipy's bit for
bit."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubkit import audio
from dubkit.audio import MAX_RESAMPLE_FACTOR, Waveform, resample

import reference_resample
from helpers import STANDARD_SOURCE_RATES, STANDARD_TARGET_RATES

RATE_PAIRS = [(s, t) for s in STANDARD_SOURCE_RATES for t in STANDARD_TARGET_RATES]


def assert_same_resample(w, target_rate):
    expected = reference_resample.resample(w, target_rate)
    got = resample(w, target_rate)
    assert got.sample_rate == expected.sample_rate == target_rate
    assert got.samples.shape == expected.samples.shape
    assert np.array_equal(got.samples, expected.samples)
    assert np.array_equal(np.signbit(got.samples), np.signbit(expected.samples))


def samples(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "negative-zeros":
        return np.full(n, -0.0)
    if kind == "sparse":  # mostly -0.0 and +0.0, so many outputs sum only zeros
        x = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        x[rng.random(n) < 0.02] = rng.uniform(-1.0, 1.0)
        return x
    # full-scale square waves overshoot past +-1 when filtered, so outputs clip
    return np.where(np.sin(np.arange(n) * rng.uniform(0.01, 1.0)) < 0, -1.0, 1.0)


KINDS = ["noise", "zeros", "negative-zeros", "sparse", "clipping"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RATE_PAIRS), st.integers(0, 5000), st.sampled_from(KINDS),
       st.integers(0, 2**32 - 1))
def test_matches_resample_poly(rates, n, kind, seed):
    source, target = rates
    assert_same_resample(Waveform(samples(kind, n, seed), source), target)


@pytest.mark.parametrize("source,target", RATE_PAIRS)
def test_every_standard_pair(source, target):
    for n in (1, 2, 641, 4321):
        assert_same_resample(Waveform(samples("noise", n, n), source), target)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RATE_PAIRS), st.integers(1, 3000), st.integers(2, 300),
       st.integers(1, 4000), st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_matches_across_block_boundaries(rates, n, rows, span, products, seed):
    # small blocks put many block edges, and both padded ends, inside one
    # clip; a small product budget splits the taps into chunks
    source, target = rates
    w = Waveform(samples("noise", n, seed), source)
    with mock.patch.object(audio, "_RESAMPLE_ROWS", rows), \
            mock.patch.object(audio, "_RESAMPLE_SPAN", span), \
            mock.patch.object(audio, "_RESAMPLE_PRODUCTS", products):
        assert_same_resample(w, target)


@pytest.mark.parametrize("source,target,n", [(1000, 1000 * MAX_RESAMPLE_FACTOR, 40),
                                             (MAX_RESAMPLE_FACTOR, 1, 3 * MAX_RESAMPLE_FACTOR),
                                             (8191, 8192, 2000)])
def test_matches_at_the_factor_limit(source, target, n):
    assert_same_resample(Waveform(samples("noise", n, 5), source), target)


def test_i0_is_scipys():
    from scipy.special import i0

    x = np.linspace(0.0, 7.9, 200_001)
    assert audio._i0(x).tobytes() == i0(x).tobytes()


# (up, down): standard rate pairs, both directions, and the factor limit
@pytest.mark.parametrize("up,down", [(1, 2), (147, 160), (160, 147), (441, 640), (5120, 147),
                                     (147, 5120), (8191, MAX_RESAMPLE_FACTOR),
                                     (MAX_RESAMPLE_FACTOR, 1)])
def test_kaiser_window_and_filter_are_scipys(up, down):
    from scipy.signal import firwin, kaiser_beta
    from scipy.special import i0

    half = 10 * max(up, down)
    m = np.arange(2 * half + 1, dtype=np.float64) - half
    beta = audio._KAISER_BETA
    args = beta * np.sqrt(1 - (m / half) ** 2.0)  # the window's arguments, up to beta
    assert audio._i0(args).tobytes() == i0(args).tobytes()
    h, half_len = audio._lowpass(up, down)
    # resample_poly's filter: firwin's taps times up
    expected = firwin(2 * half + 1, 1.0 / max(up, down), window=("kaiser", kaiser_beta(80.0)))
    assert half_len == half
    assert h.tobytes() == (expected * up).tobytes()


def test_empty_waveform_resamples_to_empty():
    out = resample(Waveform(np.zeros(0), 48000), 22050)
    assert out.sample_rate == 22050
    assert out.samples.shape == (0,)


def test_ufunc_buffer_size_is_restored():
    # the resampler shrinks numpy's ufunc buffer to its block's row count:
    # the caller's size comes back after the call and after a block raises
    before = np.getbufsize()
    fill_block, sizes = audio._fill_block, []

    def failing_fill_block(lines, x, start):
        sizes.append(np.getbufsize())
        if len(sizes) == 2:
            raise RuntimeError("block failed")
        fill_block(lines, x, start)

    w = Waveform(samples("noise", 4000, 9), 44100)  # 2000 outputs, 32 blocks of 64
    with mock.patch.object(audio, "_RESAMPLE_ROWS", 64):
        assert_same_resample(w, 22050)
        assert np.getbufsize() == before
        with mock.patch.object(audio, "_fill_block", failing_fill_block), \
                pytest.raises(RuntimeError, match="block failed"):
            resample(w, 22050)
    assert sizes == [64, 64]
    assert np.getbufsize() == before


def traced_peak(w, target_rate):
    tracemalloc.start()
    try:
        out = resample(w, target_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


# the inputs and tap products one block holds, plus 1 MiB for the rest
BLOCK_BYTES = (audio._RESAMPLE_SPAN + audio._RESAMPLE_PRODUCTS) * 8 + (1 << 20)


def test_memory_is_the_output_plus_a_block():
    # upfirdn's full-length output and the clipped copy of it took 2x the output
    w = Waveform(samples("noise", 120 * 48000, 7), 48000)
    out, peak = traced_peak(w, 22050)
    assert out.n_frames == 120 * 22050
    assert peak < out.samples.nbytes + BLOCK_BYTES


@pytest.mark.parametrize("source,target,n", [(1000, 1000 * MAX_RESAMPLE_FACTOR, 400),
                                             (MAX_RESAMPLE_FACTOR, 1, 40 * MAX_RESAMPLE_FACTOR)])
def test_memory_is_bounded_at_the_factor_limit(source, target, n):
    # up = 8192: one block of all outputs would hold three output-sized arrays;
    # down = 8192: the 163841-tap filter times 40 outputs is 52 MB of products.
    # Past a block, the filter is held three times (as designed, padded to
    # whole phases and as the phase table) and a block reads about 1.5
    # filter lengths of inputs past its span
    filter_bytes = (20 * MAX_RESAMPLE_FACTOR + 1) * 8
    w = Waveform(samples("noise", n, 8), source)
    out, peak = traced_peak(w, target)
    assert out.n_frames == n * target // source
    assert peak < out.samples.nbytes + BLOCK_BYTES + 5 * filter_bytes


def best_time(f):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("source,target,seconds", [(48000, 22050, 120), (768000, 1000, 5)])
def test_compute_stays_near_resample_poly(source, target, seconds):
    # a per-tap gather over blocks of outputs took about 3x resample_poly's
    # time for the movie-length clip and 11x for the large down factor
    w = Waveform(samples("noise", source * seconds, 9), source)
    ours = best_time(lambda: resample(w, target))
    theirs = best_time(lambda: reference_resample.resample(w, target))
    assert ours < 2.5 * theirs + 0.02
