"""Objective speech metrics: MCD, DTW-aligned MCD, and its length-weighted
variant, plus pair and corpus evaluation drivers.

The frame distance is plain Euclidean over cepstral vectors. The plain MCD
averages frame distances positionally and requires equal lengths (the pair
driver zero-pads the shorter waveform first); the DTW variants align the
sequences with the classic three-step dynamic program and normalize by the
alignment path length R. The length-weighted score additionally multiplies
by eta = max(M, N) / min(M, N), penalizing duration mismatch.
"""

import os
import stat
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import jsonl
from ._fork import _ForkedCall, _usable_cpus
from .audio import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, Waveform, _read_resampled, resample
from .dsp import FrameParams, _mel_rows, _shared_rows, mfcc
from .modes import PAD_MODES, SCALES


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Optimal monotone alignment of two cepstral sequences.

    ``cost`` is the minimal cumulative frame distance, ``path`` the list of
    0-based (i, j) index pairs from (0, 0) to (m-1, n-1) with steps in
    {(1,1), (1,0), (0,1)}; ``path_len`` is the R in cost / R.
    """

    cost: float
    path: np.ndarray
    m: int
    n: int

    @property
    def path_len(self) -> int:
        return len(self.path)


@dataclass(frozen=True)
class PairMetrics:
    """Metric row for one generated/reference pair."""

    mcd: float
    mcd_dtw: float
    mcd_dtw_sl: float
    eta: float
    m_frames: int
    n_frames: int
    pair_id: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.pair_id,
            "mcd": self.mcd,
            "mcd_dtw": self.mcd_dtw,
            "mcd_dtw_sl": self.mcd_dtw_sl,
            "eta": self.eta,
            "m_frames": self.m_frames,
            "n_frames": self.n_frames,
        }


@dataclass(frozen=True)
class MetricReport:
    """Per-pair rows in manifest order plus arithmetic-mean aggregates."""

    rows: list
    failures: list = field(default_factory=list)

    def aggregate(self) -> dict:
        agg = {"mcd": None, "mcd_dtw": None, "mcd_dtw_sl": None,
               "n_pairs": len(self.rows), "n_failures": len(self.failures)}
        if self.rows:
            for key in ("mcd", "mcd_dtw", "mcd_dtw_sl"):
                agg[key] = float(np.mean([getattr(r, key) for r in self.rows]))
        return agg

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "aggregate": self.aggregate(),
            "failures": [{"id": pid, "error": msg} for pid, msg in self.failures],
        }


@dataclass(frozen=True)
class PipelineConfig:
    """Feature and metric settings shared by pair and corpus evaluation."""

    sample_rate: int = 22050
    frame: FrameParams = FrameParams()
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0
    n_coeffs: int = 13
    scale: str = "plain"  # a key of SCALES
    pad_mode: str = "pad"  # one of PAD_MODES

    def __post_init__(self):
        if not MIN_SAMPLE_RATE <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ValueError(f"sample_rate {self.sample_rate} Hz is outside "
                             f"{MIN_SAMPLE_RATE}..{MAX_SAMPLE_RATE} Hz")
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.pad_mode not in PAD_MODES:
            raise ValueError(f"unknown pad_mode {self.pad_mode!r}")

    def to_dict(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "fft_size": self.frame.fft_size,
            "hop": self.frame.hop,
            "win_length": self.frame.win_length,
            "n_mels": self.n_mels,
            "fmin": self.fmin,
            "fmax": self.fmax,
            "n_coeffs": self.n_coeffs,
            "scale": self.scale,
            "pad_mode": self.pad_mode,
        }


def _coeff_matrix(c) -> np.ndarray:
    frames = c.frames if hasattr(c, "frames") else np.asarray(c, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("coefficient sequence must be a T x K matrix")
    return np.asarray(frames, dtype=np.float64)


def mcd(c1, c2) -> float:
    """Mean Euclidean frame distance between equal-length sequences, unscaled."""
    a, b = _coeff_matrix(c1), _coeff_matrix(c2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"coefficient count mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"frame count mismatch: {a.shape[0]} vs {b.shape[0]}; "
                         "pad upstream or use the DTW variants")
    distances = np.sqrt(((a - b) ** 2).sum(axis=1))
    return float(distances.mean())


# A DTW backpointer per cell costs 1 B, so this caps its buffer at 2 GiB.
MAX_DTW_CELLS = 2**31
# float64 frame differences held at once while the distances of a tile of
# diagonals are summed (see _tile_distances)
_TILE_BYTES = 1 << 21

# backpointer codes: 0 horizontal, 1 vertical, 2 or 3 diagonal
_HORIZ, _VERT, _DIAG = 0, 1, 2


class AlignmentTooLargeError(ValueError):
    """An alignment needs more than MAX_DTW_CELLS cells."""


def _checked_pair(c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """The two sequences as float64 matrices, once dtw_align's rules hold:
    the same K, no empty sequence, at most MAX_DTW_CELLS cells."""
    a, b = _coeff_matrix(c1), _coeff_matrix(c2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"coefficient count mismatch: {a.shape[1]} vs {b.shape[1]}")
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        raise ValueError("cannot align an empty sequence")
    if m * n > MAX_DTW_CELLS:
        raise AlignmentTooLargeError(
            f"aligning {m} x {n} frames needs {m * n} cells, "
            f"more than the {MAX_DTW_CELLS} cell limit")
    return a, b


def dtw_align(c1, c2) -> AlignmentResult:
    """Minimum-cost monotone alignment between two cepstral sequences.

    The cumulative cost gamma[i, j] = d(i, j) + min of the three
    predecessors; backtracking breaks ties preferring the diagonal step,
    then the vertical (i-1, j), then the horizontal (i, j-1), which yields
    the shortest path among equal-cost greedy backtracks.

    The sweep runs over anti-diagonals i + j = s and keeps only the costs of
    the last two, so memory is O((M + N) K) floats, a distance tile of at
    most _TILE_BYTES and one int8 backpointer per cell. More than
    MAX_DTW_CELLS cells raise AlignmentTooLargeError before anything is
    allocated.
    """
    [result] = _align_many([_checked_pair(c1, c2)])
    return result


def _align_many(pairs) -> list[AlignmentResult]:
    """dtw_align of each (a, b) in ``pairs``, all swept together.

    ``pairs`` holds float64 matrices that passed _checked_pair, all with the
    same K; each is read once, into its zero-padded coefficient columns.
    With M and N the largest lengths in the group, diagonal s covers rows
    max(0, s - N + 1)..min(M - 1, s) of every pair at once, so each step
    below is one numpy call on a (pairs, rows) slab.
    Costs live in three rotating (pairs, M + 1) buffers indexed by row + 1:
    column 0 stands for row -1, and a cell with j < 0 is a row no earlier
    diagonal reached, so both stay +inf. Cells past a pair's own M or N are
    computed from zero padding, but no cell of its grid reads them. Each
    pair's backpointers take one byte per padded cell.
    """
    count = len(pairs)
    k = pairs[0][0].shape[1]
    ms = [len(a) for a, _ in pairs]
    ns = [len(b) for _, b in pairs]
    rows_max, cols_max = max(ms), max(ns)
    n_diag = max(ms[p] + ns[p] - 1 for p in range(count))
    tile = min(n_diag, max(1, _TILE_BYTES // (8 * max(k, 1) * count * rows_max)))

    # coefficient columns, zero beyond each pair's frames; b is reversed, its
    # frame j at column last - j, with tile - 1 columns of margin on both
    # sides for the j < 0 and j >= N of a tile
    a_cols = np.zeros((k, count, rows_max))
    b_cols = np.zeros((k, count, cols_max + 2 * (tile - 1)))
    last = tile - 2 + cols_max
    for p, (a, b) in enumerate(pairs):
        a_cols[:, p, :ms[p]] = a.T
        b_cols[:, p, last - ns[p] + 1:last + 1] = b[::-1].T
    scratch = np.empty(k * count * tile * rows_max)

    los = [max(0, s - cols_max + 1) for s in range(n_diag)]
    his = [min(rows_max - 1, s) for s in range(n_diag)]
    sizes = [hi - lo + 1 for lo, hi in zip(los, his)]
    # cell (i, s - i) of pair p sits at pointers[offsets[s] + p * sizes[s] + i - los[s]]
    offsets = [0, *accumulate(count * size for size in sizes[:-1])]
    pointers = np.empty(count * sum(sizes), dtype=np.int8)
    costs = np.full((3, count, rows_max + 1), np.inf)
    near = np.empty((count, rows_max))
    vert_le = np.empty((count, rows_max), dtype=np.bool_)
    ends = {}
    for p in range(count):
        ends.setdefault(ms[p] + ns[p] - 2, []).append(p)
    final = [0.0] * count

    for s0 in range(0, n_diag, tile):
        s1 = min(s0 + tile, n_diag)
        top = los[s0]
        dist = _tile_distances(a_cols, b_cols, s0, s1, top, his[s1 - 1], last, scratch)
        for s in range(s0, s1):
            lo, hi, size = los[s], his[s], sizes[s]
            d = dist[:, s - s0, lo - top:hi - top + 1]
            cur = costs[s % 3]
            inner = cur[:, lo + 1:hi + 2]
            if s == 0:
                inner[...] = d
            else:
                prev1, prev2 = costs[(s - 1) % 3], costs[(s - 2) % 3]
                vert, horiz, diag = prev1[:, lo:hi + 1], prev1[:, lo + 1:hi + 2], prev2[:, lo:hi + 1]
                nr = near[:, :size]
                np.minimum(vert, horiz, out=nr)
                np.minimum(diag, nr, out=inner)
                np.add(d, inner, out=inner)
                # 2 * (diag <= both others) + (vert <= horiz): the backtrack tie rule
                step = pointers[offsets[s]:offsets[s] + count * size].reshape(count, size)
                np.less_equal(diag, nr, out=step.view(np.bool_))
                step += step
                le = vert_le[:, :size]
                np.less_equal(vert, horiz, out=le)
                step += le
                # row 0 and column 0 have one predecessor each
                if lo == 0:
                    step[:, 0] = _HORIZ
                if hi == s:
                    step[:, -1] = _VERT
            for p in ends.get(s, ()):
                final[p] = float(cur[p, ms[p]])

    steps = memoryview(pointers)
    starts = [offset - lo for offset, lo in zip(offsets, los)]
    results = []
    for p in range(count):
        m, n = ms[p], ns[p]
        i, j, s = m - 1, n - 1, m + n - 2
        path = [(i, j)]
        while s:
            step = steps[starts[s] + p * sizes[s] + i]
            if step >= _DIAG:
                i, j, s = i - 1, j - 1, s - 2
            elif step == _VERT:
                i, s = i - 1, s - 1
            else:
                j, s = j - 1, s - 1
            path.append((i, j))
        path.reverse()
        results.append(AlignmentResult(final[p], np.array(path, dtype=np.intp), m, n))
    return results


def _tile_distances(a_cols, b_cols, s0, s1, top, bottom, last, scratch) -> np.ndarray:
    """Frame distances of diagonals s0..s1-1 at rows top..bottom, as a
    (pairs, s1 - s0, rows) array: sqrt(((a - b) ** 2).sum()) of each two
    frames, with the sum over K in the order x.sum(axis=1) adds a row (see
    _pairwise_sum)."""
    k, count, _ = a_cols.shape
    width, height = s1 - s0, bottom - top + 1
    # b of cell (s, i) is b[s - i], column last - s + i of b_cols: one step
    # left per diagonal, one step right per row, so a strided view, no copy
    # (of nothing at K = 0, where any offset is out of the empty buffer)
    b = np.ndarray((k, count, width, height), buffer=b_cols,
                   offset=8 * (last - s0 + top) if k else 0,
                   strides=(b_cols.strides[0], b_cols.strides[1], -8, 8))
    diff = scratch[:k * count * width * height].reshape(k, count, width, height)
    np.subtract(a_cols[:, :, None, top:bottom + 1], b, out=diff)
    np.multiply(diff, diff, out=diff)
    total = _pairwise_sum(diff, 0, k)
    return np.sqrt(total, out=total)


def _pairwise_sum(x: np.ndarray, lo: int, n: int) -> np.ndarray:
    """x[lo:lo + n].sum(axis=0), added in the order of numpy's pairwise_sum
    over a contiguous row of n terms, so it equals the rows' sum(axis=1) bit
    for bit: in sequence below 8 terms, in eight accumulators up to 128, and
    above that as two halves cut at a multiple of 8. numpy starts from 0.0,
    which changes no sum of squares. Returns the sum, left in x[lo] when
    n > 0; the other terms are overwritten."""
    if n == 0:
        return np.zeros(x.shape[1:])
    if n < 8:
        for i in range(lo + 1, lo + n):
            x[lo] += x[i]
        return x[lo]
    if n <= 128:
        acc = x[lo:lo + 8]
        for i in range(lo + 8, lo + n - n % 8, 8):
            acc += x[i:i + 8]
        # ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
        for i in range(lo + n - n % 8, lo + n):
            x[lo] += x[i]
        return x[lo]
    half = n // 2 - n // 2 % 8
    total = _pairwise_sum(x, lo, half)
    total += _pairwise_sum(x, lo + half, n - half)
    return total


def mcd_dtw(a: AlignmentResult) -> float:
    """Alignment cost normalized by the path length R."""
    return a.cost / a.path_len


def mcd_dtw_sl(a: AlignmentResult) -> tuple[float, float]:
    """Length-weighted aligned MCD: (eta * cost / R, eta)."""
    if min(a.m, a.n) == 0:
        raise ValueError("alignment over an empty sequence")
    eta = max(a.m, a.n) / min(a.m, a.n)
    return eta * (a.cost / a.path_len), eta


def _cepstra(w: Waveform, cfg: PipelineConfig, first: int = 0, n: int | None = None):
    """The MFCCs of the frames from ``first`` on of w zero-padded to n samples
    (see dsp._mel_rows)."""
    mel, _ = _mel_rows(w, cfg.frame, cfg.n_mels, cfg.fmin, cfg.fmax, first, n)
    return mfcc(mel, cfg.n_coeffs)


def evaluate_pair(gen: Waveform, ref: Waveform,
                  cfg: PipelineConfig = PipelineConfig()) -> PairMetrics:
    """All three metrics for one generated/reference waveform pair.

    Both waveforms must be mono; they are resampled to the pipeline rate if
    needed. For the plain MCD the shorter waveform is zero-padded in the
    time domain (pad_mode 'strict' errors on length mismatch instead); the
    DTW variants always run on the unpadded sequences.
    """
    plain, a, b = _prepare_pair(gen, ref, cfg)
    [alignment] = _align_many([(a, b)])
    return _score(plain, alignment, cfg)


def _prepare_pair(gen: Waveform, ref: Waveform, cfg: PipelineConfig):
    """Everything evaluate_pair does before the alignment: (plain MCD, gen
    MFCCs, ref MFCCs), the MFCCs checked as dtw_align checks them."""
    gen = resample(gen, cfg.sample_rate)
    ref = resample(ref, cfg.sample_rate)
    if cfg.pad_mode == "strict" and gen.n_frames != ref.n_frames:
        raise ValueError(f"length mismatch ({gen.n_frames} vs {ref.n_frames} samples) "
                         "with pad_mode='strict'")

    n = max(gen.n_frames, ref.n_frames)
    a, a_padded = _mfccs(gen, n, cfg)
    b, b_padded = _mfccs(ref, n, cfg)
    return (mcd(a_padded, b_padded), *_checked_pair(a, b))


def _mfccs(w: Waveform, n: int, cfg: PipelineConfig):
    """(MFCCs of w, MFCCs of w zero-padded to n samples), as T x K matrices.
    Every stage is row by row, so the padded clip's first rows are w's own
    (see dsp._shared_rows): only the rows the padding reaches are
    transformed and go through mel and the DCT."""
    coeffs = _cepstra(w, cfg).frames
    if w.n_frames == n:
        return coeffs, coeffs
    shared = _shared_rows(w.n_frames, cfg.frame)
    return coeffs, np.concatenate([coeffs[:shared], _cepstra(w, cfg, shared, n).frames])


def _score(plain: float, alignment: AlignmentResult, cfg: PipelineConfig) -> PairMetrics:
    sl_value, eta = mcd_dtw_sl(alignment)
    scale = SCALES[cfg.scale]
    return PairMetrics(plain * scale, mcd_dtw(alignment) * scale, sl_value * scale, eta,
                       alignment.m, alignment.n)


@dataclass(frozen=True)
class PairEntry:
    """One manifest row: an id plus generated and reference audio paths."""

    pair_id: str
    generated: str
    reference: str


def load_pair_manifest(path) -> list[PairEntry]:
    """Read a JSON Lines pair manifest ({id, generated, reference} rows)."""
    return jsonl.load_objects(
        path, lambda row: PairEntry(jsonl.text(row, "id"), jsonl.text(row, "generated"),
                                    jsonl.text(row, "reference")),
        ("id", "generated", "reference"))


# evaluate_corpus sorts the manifest largest first by the bytes of each
# pair's two files (_pair_bytes, a stand-in for M + N) and deals it
# round-robin to at most one part per usable CPU, so each part starts with
# its longest pair, which sets its buffers' high-water mark once. A part
# prepares its pairs in that order into one group, aligned in one sweep
# before the next pair would take it past _GROUP_PAIRS pairs or _GROUP_BYTES
# of sweep memory (_group_bytes). A pair over _GROUP_BYTES alone, such as any
# pair of 30 s clips, is aligned alone. The pair cap bounds what grows with
# the pairs but _group_bytes leaves out, their own MFCCs and paths: without
# it, a part of 400 pairs of 0.5 s clips traced 5.4 MB above one of 50.
_GROUP_PAIRS = 32
_GROUP_BYTES = 1 << 22


def evaluate_corpus(entries, cfg: PipelineConfig = PipelineConfig()) -> MetricReport:
    """Evaluate every manifest pair; rows and failures come in manifest order,
    and a failing pair is recorded, not fatal.

    With parts = min(usable CPUs, pairs), the k-th pair largest first is
    scored in part k % parts, each in a forked child (_ForkedCall), so this
    process holds only the rows; on one CPU the one part is scored here. A
    row does not depend on the part or group it is scored in, so the report
    is the same bits on any number of CPUs. A child that dies raises
    ChildProcessError, and the other children are killed and reaped. Part 0
    is forked too, unlike jsonl.fold_lines' part 0: scored here, its arrays
    raised the command's peak RSS 12-16 % on the benchmark's pair workloads.
    """
    entries = list(entries)
    parts = min(_usable_cpus(), len(entries))
    order = sorted(range(len(entries)), key=lambda k: _pair_bytes(entries[k]), reverse=True)
    outcomes = [None] * len(entries)
    children = []
    try:
        for k in range(parts):
            children.append(_ForkedCall(_evaluate_part, [entries[i] for i in order[k::parts]],
                                        cfg))
        for k, child in enumerate(children):
            for i, outcome in zip(order[k::parts], child()):
                outcomes[i] = outcome
    finally:
        for child in children:
            child.close()
    return MetricReport([o for o in outcomes if isinstance(o, PairMetrics)],
                        [o for o in outcomes if not isinstance(o, PairMetrics)])


def _pair_bytes(entry: PairEntry) -> int:
    """The bytes of a pair's two files; a path that is no regular file counts
    0, and the pair fails with its own error when it is read."""
    total = 0
    for path in (entry.generated, entry.reference):
        try:  # ValueError: a NUL byte in the path
            info = os.stat(path)
            total += info.st_size if stat.S_ISREG(info.st_mode) else 0
        except (OSError, ValueError):
            pass
    return total


def _evaluate_part(entries, cfg: PipelineConfig) -> list:
    """evaluate_corpus of ``entries`` in this process, as one list in their
    order of rows and (pair id, error) failures, their pairs aligned a group
    at a time (_score_group)."""
    outcomes, group = [], []
    for entry in entries:
        try:
            pair = _prepare_pair(_read_resampled(entry.generated, cfg.sample_rate),
                                 _read_resampled(entry.reference, cfg.sample_rate), cfg)
        except Exception as exc:  # collected per-row, reported in the summary
            outcomes.append((entry.pair_id, _failure(exc)))
            continue
        if group and (len(group) == _GROUP_PAIRS
                      or _group_bytes([p[1:] for _, p in group] + [pair[1:]]) > _GROUP_BYTES):
            _score_group(group, outcomes, cfg)
            group = []
        group.append((len(outcomes), pair))
        outcomes.append(entry.pair_id)
    if group:
        _score_group(group, outcomes, cfg)
    return outcomes


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _score_group(group, outcomes: list, cfg: PipelineConfig) -> None:
    """Align the (index, prepared pair) of ``group`` in one sweep and put each
    row, or (pair id, error) failure, in ``outcomes`` at the index, which held
    the pair id. When the sweep fails, the pairs are aligned one at a time,
    so each failure is recorded for its own pair."""
    pairs = [pair[1:] for _, pair in group]
    try:
        alignments = _align_many(pairs)
    except Exception:  # retried pair by pair below
        alignments = []
        for pair in pairs:
            try:
                alignments += _align_many([pair])
            except Exception as exc:  # collected per-row
                alignments.append(_failure(exc))
    for (i, (plain, _, _)), alignment in zip(group, alignments):
        outcomes[i] = ((outcomes[i], alignment) if isinstance(alignment, str)
                       else replace(_score(plain, alignment, cfg), pair_id=outcomes[i]))


def _group_bytes(pairs) -> int:
    """The measure of _align_many's memory for ``pairs`` that _GROUP_BYTES
    budgets, not a bound: a byte per cell of pairs x M x diagonals, and the
    padded float64 coefficient columns. Besides its _TILE_BYTES tile, b's
    tile margins, the cost rows and the paths took 13-37 % more, traced."""
    rows = max(len(a) for a, _ in pairs)
    cols = max(len(b) for _, b in pairs)
    diagonals = max(len(a) + len(b) - 1 for a, b in pairs)
    k = pairs[0][0].shape[1]
    return len(pairs) * (rows * diagonals + 8 * k * (rows + cols))
