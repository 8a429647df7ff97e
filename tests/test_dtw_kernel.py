"""The diagonal-major DTW kernel against the row-matrix kernel it replaced
(``reference_dtw.py``): equal cost, path and R bit for bit, including the
tie order, plus its memory bound and cell limit."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dubkit import metrics
from dubkit.audio import Waveform, write_wav
from dubkit.cli import run
from dubkit.metrics import AlignmentTooLargeError, dtw_align

import reference_dtw
from helpers import make_tone


def assert_same_alignment(a, b):
    expected = reference_dtw.dtw_align(a, b)
    got = dtw_align(a, b)
    assert got.cost == expected.cost or (np.isnan(got.cost) and np.isnan(expected.cost))
    assert np.array_equal(got.path, expected.path)
    assert got.path.dtype == expected.path.dtype
    assert got.path_len == expected.path_len
    assert (got.m, got.n) == (expected.m, expected.n)


@st.composite
def sequence_pairs(draw):
    """Two T x K sequences: small integers (many equal-cost ties), rows drawn
    from a pool of three (repeated rows), or arbitrary finite floats."""
    k = draw(st.integers(1, 16))
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["integers", "repeated", "floats"]))
    if kind == "floats":
        values = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        return (draw(arrays(np.float64, (m, k), elements=values)),
                draw(arrays(np.float64, (n, k), elements=values)))
    small = arrays(np.float64, (3 if kind == "repeated" else m, k),
                   elements=st.integers(-2, 2).map(float))
    if kind == "integers":
        return draw(small), draw(arrays(np.float64, (n, k),
                                        elements=st.integers(-2, 2).map(float)))
    pool = draw(small)
    rows = st.integers(0, 2)
    return (pool[draw(st.lists(rows, min_size=m, max_size=m))],
            pool[draw(st.lists(rows, min_size=n, max_size=n))])


@settings(max_examples=300, deadline=None)
@given(sequence_pairs())
def test_matches_reference_kernel(pair):
    assert_same_alignment(*pair)


def test_matches_reference_on_every_small_shape():
    rng = np.random.default_rng(8)
    for m in range(1, 9):
        for n in range(1, 9):
            for k in (1, 2, 13):
                assert_same_alignment(rng.integers(0, 3, (m, k)).astype(float),
                                      rng.integers(0, 3, (n, k)).astype(float))


def test_matches_reference_on_strided_and_non_finite_input():
    rng = np.random.default_rng(9)
    assert_same_alignment(np.asfortranarray(rng.normal(size=(30, 13))),
                          rng.normal(size=(40, 26))[:, ::2])
    a, b = rng.normal(size=(12, 3)), rng.normal(size=(9, 3))
    a[4, 1], b[6, 0] = np.nan, np.inf
    assert_same_alignment(a, b)


def test_mfcc_column_view_aligns_as_its_contiguous_copy():
    # mfcc keeps columns 1..13 of an 80-band DCT, so its rows sit 640 B apart
    rng = np.random.default_rng(11)
    a = rng.normal(size=(70, 80))[:, 1:14]
    b = rng.normal(size=(90, 80))[:, 1:14]
    assert not a.flags.c_contiguous
    for x, y in ((a, b), (a, np.ascontiguousarray(b)), (b, a)):
        got, copied = dtw_align(x, y), dtw_align(np.ascontiguousarray(x), np.ascontiguousarray(y))
        assert got.cost == copied.cost
        assert np.array_equal(got.path, copied.path)
        assert_same_alignment(x, y)


def test_memory_is_one_byte_per_cell():
    # float64 cost or distance matrices would need 8 B per cell each
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(1500, 13)), rng.normal(size=(1800, 13))
    tracemalloc.start()
    try:
        dtw_align(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1500 * 1800


class TestCellLimit:
    def test_refused_before_allocating(self):
        # 50000 x 50000 cells would need 2.5 GB of backpointers
        frames = np.zeros((50_000, 1))
        with pytest.raises(AlignmentTooLargeError, match="50000 x 50000"):
            dtw_align(frames, frames)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_DTW_CELLS", 99)
        assert dtw_align(np.zeros((9, 2)), np.zeros((11, 2))).cost == 0.0
        with pytest.raises(AlignmentTooLargeError):
            dtw_align(np.zeros((10, 2)), np.zeros((10, 2)))
        assert issubclass(AlignmentTooLargeError, ValueError)

    def test_batch_records_a_failure_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_DTW_CELLS", 100)
        wav = str(tmp_path / "a.wav")
        write_wav(wav, Waveform(make_tone(440.0, 0.3, 22050), 22050))
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text(json.dumps({"id": "big", "generated": wav, "reference": wav}) + "\n")
        assert run(["batch", str(manifest)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == []
        [failure] = payload["failures"]
        assert failure["id"] == "big"
        assert failure["error"].startswith("AlignmentTooLargeError: aligning ")
