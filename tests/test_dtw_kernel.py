"""The grouped anti-diagonal DTW kernel against the row-matrix kernel it
replaced (``reference_dtw.py``): equal cost, path and R bit for bit,
including the tie order, for one pair and for groups of pairs swept
together, plus its K-sum order, memory bound and cell limit."""

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


def assert_same_alignment(a, b, got=None):
    expected = reference_dtw.dtw_align(a, b)
    got = dtw_align(a, b) if got is None else got
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


def squared_differences(rng, k):
    """(a - b) ** 2 for six rows of k terms over six orders of magnitude:
    a NaN, an inf, a -inf and inf - inf in rows 0-3, rows 4 and 5 finite."""
    a = rng.normal(size=(6, k)) * 10.0 ** rng.integers(-3, 4, size=(6, k))
    b = rng.normal(size=(6, k))
    if k:
        a[0, rng.integers(k)] = np.nan
        a[1, rng.integers(k)] = np.inf
        b[2, rng.integers(k)] = -np.inf
        a[3, 0] = b[3, 0] = np.inf
    with np.errstate(invalid="ignore"):
        return (a - b) ** 2


def test_k_sum_adds_in_numpys_row_sum_order():
    # below 8 terms, 8 accumulators up to 128, halves above 128: every branch
    rng = np.random.default_rng(12)
    for k in range(301):
        terms = squared_differences(rng, k)
        got = metrics._pairwise_sum(np.ascontiguousarray(terms.T), 0, k)
        expected = terms.sum(axis=1)
        assert np.array_equal(got, expected, equal_nan=True), k


@st.composite
def pair_groups(draw):
    """1-8 pairs of mixed shapes sharing one K, as small-integer ties or
    floats, some with NaN or +-inf in either input, and a tile width."""
    k = draw(st.sampled_from(list(range(17)) + [129, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "floats", "non-finite"]))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
        if kind == "integers":
            pair = [rng.integers(-2, 3, (t, k)).astype(float) for t in (m, n)]
        else:
            pair = [rng.normal(size=(t, k)) for t in (m, n)]
        if kind == "non-finite" and k:
            for x in pair:
                x.flat[rng.integers(0, x.size, 2)] = rng.choice([np.nan, np.inf, -np.inf], 2)
        pairs.append(pair)
    return pairs, draw(st.sampled_from([1, 2, 3, None]))


@settings(max_examples=200, deadline=None)
@given(pair_groups())
def test_group_sweep_matches_reference_pair_by_pair(group):
    pairs, tile = group
    checked = [metrics._checked_pair(a, b) for a, b in pairs]
    with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
        if tile is not None:
            # _align_many sweeps tile diagonals per distance tile at this budget
            rows = max(len(a) for a, _ in pairs)
            k = pairs[0][0].shape[1]
            patch.setattr(metrics, "_TILE_BYTES", tile * 8 * max(k, 1) * len(pairs) * rows)
        results = metrics._align_many(checked)
        for (a, b), got in zip(pairs, results):
            assert_same_alignment(a, b, got)


def test_empty_coefficient_vectors_align_at_zero_cost():
    for m, n in ((1, 1), (3, 5), (7, 2)):
        got = dtw_align(np.zeros((m, 0)), np.zeros((n, 0)))
        assert got.cost == 0.0
        assert_same_alignment(np.zeros((m, 0)), np.zeros((n, 0)), got)


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
