"""The mel filterbank product without BLAS (``dsp._mel_power``) against the
one-frame oracle (``reference_mel.py``) and the dense matmul it replaced, and
the determinism it buys: a mel value depends on its own frame only, so
`features` and `batch` give the same bytes on any BLAS thread count and on
any number of CPUs. The DCT after it works row by row as well.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dubkit
from dubkit import dsp
from dubkit.audio import Waveform, write_wav
from dubkit.dsp import (FrameParams, MelSpectrogram, Spectrogram, mel_filterbank,
                        mel_spectrogram, mfcc)

from helpers import jsonl, make_tone
from reference_mel import mel_power_row

# (rate, fft, bands, fmin, fmax): the default, fewer bands, a larger FFT, and
# small FFTs where some bands hold no bin at all
FILTERBANKS = [(22050, 1024, 80, 0.0, 8000.0), (16000, 512, 40, 0.0, 8000.0),
               (44100, 2048, 80, 60.0, 11025.0), (22050, 64, 40, 0.0, 8000.0),
               (8000, 32, 2, 0.0, 4000.0), (22050, 16, 20, 100.0, 200.0)]


def power(rows, bins, seed):
    """Squared magnitudes over several decades, with silent frames and bins."""
    rng = np.random.default_rng(seed)
    p = rng.random((rows, bins)) ** 2 * 10.0 ** rng.integers(-12, 4, size=(rows, 1))
    p[::5] = 0.0
    p[:, ::7] = 0.0
    return p


def mel_power(p, args):
    return dsp._mel_power(p, dsp._mel_terms(*args))


@pytest.mark.parametrize("args", FILTERBANKS)
def test_each_frame_is_the_oracle_sum(args):
    fb = mel_filterbank(*args)
    p = power(40, fb.shape[1], args[1])
    got = mel_power(p, args)
    assert got.shape == (40, args[2])
    for t in range(len(p)):
        assert got[t].tolist() == mel_power_row(p[t], fb)


@pytest.mark.parametrize("args", FILTERBANKS)
def test_within_1e_14_of_the_dense_matmul(args):
    fb = mel_filterbank(*args)
    p = power(1200, fb.shape[1], 7)
    got, dense = mel_power(p, args), p @ fb.T
    assert np.all(np.abs(got - dense) <= 1e-14 * dense)


def test_no_band_reads_a_bin_outside_its_support():
    # a NaN bin is added only into the bands whose filter reaches it
    args = FILTERBANKS[0]
    fb = mel_filterbank(*args)
    p = power(3, fb.shape[1], 3) + 1.0
    p[:, 200] = np.nan
    got = mel_power(p, args)
    assert np.array_equal(np.isnan(got), np.broadcast_to(fb[:, 200] > 0, got.shape))


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(0, 1300), cut=st.data())
def test_a_slice_of_frames_is_the_slice_of_the_whole(rows, cut):
    # blocks hold 511 frames of 513 bins: slices start and end on either side
    # of a block edge, and a block of a slice is not a block of the whole
    args = FILTERBANKS[0]
    p = power(rows, 513, rows)
    whole = mel_power(p, args)
    lo = cut.draw(st.integers(0, rows))
    hi = cut.draw(st.integers(lo, rows))
    assert mel_power(p[lo:hi], args).tobytes() == whole[lo:hi].tobytes()


@settings(max_examples=300, deadline=None)
@given(n_mels=st.integers(2, 256), rows=st.integers(0, 600), data=st.data())
def test_the_mfccs_of_a_slice_of_frames_are_the_slice_of_the_whole(n_mels, rows, data):
    # the DCT works row by row too, so the padded clip reuses the clip's own
    # MFCC rows (metrics._mfccs); rows at the log floor among them
    k = data.draw(st.integers(1, n_mels - 1))
    log_mel = np.log(np.maximum(power(rows, n_mels, data.draw(st.integers(0, 2**32 - 1))),
                                dsp._MEL_FLOOR))
    whole = mfcc(MelSpectrogram(log_mel, 86.0), k).frames
    lo = data.draw(st.integers(0, rows))
    hi = data.draw(st.integers(lo, rows))
    assert mfcc(MelSpectrogram(log_mel[lo:hi], 86.0), k).frames.tobytes() == whole[lo:hi].tobytes()


def test_empty_and_one_frame_spectrograms():
    spec = Spectrogram(np.zeros((0, 513)), FrameParams(), 22050)
    assert mel_spectrogram(spec).frames.shape == (0, 80)
    spec = Spectrogram(np.ones((1, 513)), FrameParams(), 22050)
    assert mel_spectrogram(spec).frames.tolist() == [
        np.log(mel_power_row(np.ones(513), mel_filterbank(22050, 1024, 80, 0.0, 8000.0))).tolist()]


def test_terms_are_cached_and_cover_the_filterbank():
    args = FILTERBANKS[0]
    assert dsp._mel_terms(*args) is dsp._mel_terms(*args)
    bins, weights, counts, rows = dsp._mel_terms(*args)
    fb = mel_filterbank(*args)
    assert sum(counts) == len(bins) == np.count_nonzero(fb)
    assert sorted(rows.tolist()) == list(range(80))
    assert list(counts) == sorted(counts, reverse=True)


RUN = """\
import os, sys
from dubkit import cli
{affinity}
for argv in ({features!r}, {batch!r}):
    if cli.run(argv):
        sys.exit(1)
"""


def test_features_and_batch_bytes_do_not_depend_on_threads_or_cpus(tmp_path):
    t = np.arange(2 * 22050)
    write_wav(tmp_path / "clip.wav", Waveform(0.4 * np.sin(t / 11.0) * np.sin(t / 3000.0), 22050))
    rows = []
    for k in range(10):
        gen = make_tone(200 + 31 * k, 0.4 + 0.05 * k, 22050)
        write_wav(tmp_path / f"g{k}.wav", Waveform(gen, 22050))
        write_wav(tmp_path / f"r{k}.wav", Waveform(make_tone(220 + 17 * k, 0.5, 24000), 24000))
        rows.append({"id": f"p{k}", "generated": f"g{k}.wav", "reference": f"r{k}.wav"})
    manifest = jsonl(tmp_path / "pairs.jsonl", rows)
    base = dict(os.environ, PYTHONPATH=str(Path(dubkit.__file__).parents[1]))
    runs = [("blas1", {"OPENBLAS_NUM_THREADS": "1"}, ""),
            ("blas2", {"OPENBLAS_NUM_THREADS": "2"}, "")]
    if hasattr(os, "sched_setaffinity"):
        runs.append(("one-cpu", {}, "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"))
    outputs = {}
    for name, env, affinity in runs:
        code = RUN.format(affinity=affinity,
                          features=["features", "clip.wav", "--out", f"{name}-features.json"],
                          batch=["batch", manifest, "--out", f"{name}-batch.json"])
        result = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                                cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs[name] = [(tmp_path / f"{name}-{command}.json").read_bytes()
                         for command in ("features", "batch")]
    first = outputs.pop("blas1")
    assert b'"failures": []' in first[1]
    for name, got in outputs.items():
        assert got == first, name
