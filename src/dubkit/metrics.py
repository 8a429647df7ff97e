"""Objective speech metrics: MCD, DTW-aligned MCD, and its length-weighted
variant, plus pair and corpus evaluation drivers.

The frame distance is plain Euclidean over cepstral vectors. The plain MCD
averages frame distances positionally and requires equal lengths (the pair
driver zero-pads the shorter waveform first); the DTW variants align the
sequences with the classic three-step dynamic program and normalize by the
alignment path length R. The length-weighted score additionally multiplies
by eta = max(M, N) / min(M, N), penalizing duration mismatch.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import jsonl
from .audio import Waveform, read_wav, resample, to_mono, pad_to_length
from .dsp import FrameParams, mel_spectrogram, mfcc, stft_magnitude
from .modes import CONVENTIONAL_SCALE, PAD_MODES, SCALES  # noqa: F401 (re-exported)


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


def frame_distance(c1: np.ndarray, c2: np.ndarray) -> float:
    """Euclidean distance between two coefficient vectors."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    if c1.shape != c2.shape:
        raise ValueError(f"dimension mismatch: {c1.shape} vs {c2.shape}")
    return float(np.sqrt(((c1 - c2) ** 2).sum()))


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

# backpointer codes: 0 horizontal, 1 vertical, 2 or 3 diagonal
_HORIZ, _VERT, _DIAG = 0, 1, 2


class AlignmentTooLargeError(ValueError):
    """An alignment needs more than MAX_DTW_CELLS cells."""


def dtw_align(c1, c2) -> AlignmentResult:
    """Minimum-cost monotone alignment between two cepstral sequences.

    The cumulative cost gamma[i, j] = d(i, j) + min of the three
    predecessors; backtracking breaks ties preferring the diagonal step,
    then the vertical (i-1, j), then the horizontal (i, j-1), which yields
    the shortest path among equal-cost greedy backtracks.

    The sweep runs over anti-diagonals i + j = s and keeps only the costs of
    the last two, so memory is O(M + N) floats plus one int8 backpointer
    per cell. More than MAX_DTW_CELLS cells raise AlignmentTooLargeError
    before anything is allocated.
    """
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

    # cell (i, s - i) of diagonal s sits at pointers[starts[s] + i]
    pointers = np.empty(m * n, dtype=np.int8)
    starts = []
    # b[s - i] for rising i is a forward slice of b_rev, contiguous for speed;
    # a too, since mfcc returns a column slice of the whole DCT matrix
    a = np.ascontiguousarray(a)
    b_rev = np.ascontiguousarray(b[::-1])
    diff = np.empty((min(m, n), a.shape[1]))
    prev2 = prev1 = None
    filled = 0
    for s in range(m + n - 1):
        lo, hi = max(0, s - n + 1), min(m - 1, s)
        size = hi - lo + 1
        starts.append(filled - lo)
        # frame distances of the diagonal, with frame_distance's arithmetic
        d = diff[:size]
        np.subtract(a[lo:hi + 1], b_rev[n - 1 - s + lo:n - s + hi], out=d)
        np.multiply(d, d, out=d)
        cur = d.sum(axis=1)
        np.sqrt(cur, out=cur)
        if s == 0:
            prev1 = cur
            filled = 1
            continue
        # interior cells i0..i1 take the cheapest of their three predecessors
        i0, i1 = max(1, lo), min(hi, s - 1)
        if i0 <= i1:
            lo1, lo2 = max(0, s - n), max(0, s - n - 1)
            vert = prev1[i0 - 1 - lo1:i1 - lo1]
            horiz = prev1[i0 - lo1:i1 + 1 - lo1]
            diag = prev2[i0 - 1 - lo2:i1 - lo2]
            near = np.minimum(vert, horiz)
            inner = cur[i0 - lo:i1 + 1 - lo]
            np.add(inner, np.minimum(diag, near), out=inner)
            # 2 * (diag <= both others) + (vert <= horiz): the backtrack tie rule
            step = pointers[filled + i0 - lo:filled + i1 + 1 - lo]
            np.less_equal(diag, near, out=step.view(np.bool_))
            step += step
            step += vert <= horiz
        # row 0 and column 0 have one predecessor each
        if lo == 0:
            cur[0] += prev1[0]
            pointers[filled] = _HORIZ
        if hi == s:
            cur[-1] += prev1[-1]
            pointers[filled + size - 1] = _VERT
        prev2, prev1 = prev1, cur
        filled += size

    steps = memoryview(pointers)
    i, j, s = m - 1, n - 1, m + n - 2
    path = [(i, j)]
    while s:
        step = steps[starts[s] + i]
        if step >= _DIAG:
            i, j, s = i - 1, j - 1, s - 2
        elif step == _VERT:
            i, s = i - 1, s - 1
        else:
            j, s = j - 1, s - 1
        path.append((i, j))
    path.reverse()
    return AlignmentResult(float(prev1[0]), np.array(path, dtype=np.intp), m, n)


def mcd_dtw(a: AlignmentResult) -> float:
    """Alignment cost normalized by the path length R."""
    return a.cost / a.path_len


def mcd_dtw_sl(a: AlignmentResult) -> tuple[float, float]:
    """Length-weighted aligned MCD: (eta * cost / R, eta)."""
    if min(a.m, a.n) == 0:
        raise ValueError("alignment over an empty sequence")
    eta = max(a.m, a.n) / min(a.m, a.n)
    return eta * (a.cost / a.path_len), eta


def extract_mfcc(w: Waveform, cfg: PipelineConfig):
    """Waveform -> MFCC sequence under the pipeline settings."""
    spec = stft_magnitude(w, cfg.frame)
    mel = mel_spectrogram(spec, cfg.n_mels, cfg.fmin, cfg.fmax)
    return mfcc(mel, cfg.n_coeffs)


def evaluate_pair(gen: Waveform, ref: Waveform,
                  cfg: PipelineConfig = PipelineConfig()) -> PairMetrics:
    """All three metrics for one generated/reference waveform pair.

    Both waveforms must be mono; they are resampled to the pipeline rate if
    needed. For the plain MCD the shorter waveform is zero-padded in the
    time domain (pad_mode 'strict' errors on length mismatch instead); the
    DTW variants always run on the unpadded sequences.
    """
    gen = resample(gen, cfg.sample_rate)
    ref = resample(ref, cfg.sample_rate)
    if cfg.pad_mode == "strict" and gen.n_frames != ref.n_frames:
        raise ValueError(f"length mismatch ({gen.n_frames} vs {ref.n_frames} samples) "
                         "with pad_mode='strict'")

    c_gen = extract_mfcc(gen, cfg)
    c_ref = extract_mfcc(ref, cfg)
    # only the shorter waveform is padded and extracted again
    n = max(gen.n_frames, ref.n_frames)
    plain = mcd(c_gen if gen.n_frames == n else extract_mfcc(pad_to_length(gen, n), cfg),
                c_ref if ref.n_frames == n else extract_mfcc(pad_to_length(ref, n), cfg))

    alignment = dtw_align(c_gen, c_ref)
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
        path, lambda row: PairEntry(str(row["id"]), str(row["generated"]),
                                    str(row["reference"])),
        ("id", "generated", "reference"))


def evaluate_corpus(entries, cfg: PipelineConfig = PipelineConfig()) -> MetricReport:
    """Evaluate every manifest pair in order; failures are collected, not fatal."""
    rows, failures = [], []
    for entry in entries:
        try:
            gen = to_mono(read_wav(entry.generated))
            ref = to_mono(read_wav(entry.reference))
            rows.append(replace(evaluate_pair(gen, ref, cfg), pair_id=entry.pair_id))
        except Exception as exc:  # collected per-row, reported in the summary
            failures.append((entry.pair_id, f"{type(exc).__name__}: {exc}"))
    return MetricReport(rows, failures)
