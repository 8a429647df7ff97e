"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's code paths: the DTW
oracle enumerates every monotone path, the cepstral oracle spells out the
filterbank and DCT sums with plain loops, and the accuracy oracle is a
brute-force cosine loop. The library reads WAVs and writes none: the
fixture WAVs are packed here.
"""

import json
import math
import os
import re
import struct
import tempfile

import numpy as np

from dubkit.scoring import load_embeddings

# the rates audio arrives at, and the working rates it is resampled to
STANDARD_SOURCE_RATES = (8000, 11025, 16000, 24000, 32000, 44100, 48000, 88200,
                         96000, 176400, 192000, 352800, 384000, 705600, 768000)
STANDARD_TARGET_RATES = (16000, 22050, 24000, 44100, 48000)


def use_cpus(monkeypatch, n):
    """Make evaluate_corpus and `dubkit features` see ``n`` usable CPUs: with
    one, the batch pairs and the pitch track are scored in the calling
    process, where a patch, a warning filter or tracemalloc sees them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def spy_forks(monkeypatch):
    """The pids of the children os.fork starts from here on."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def reaped(pid):
    """True once ``pid`` is no child of this process: neither running nor a
    zombie waiting to be reaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def at(path, lineno):
    """Regex for the ``path:lineno: `` prefix every JSONL error starts with."""
    return "^" + re.escape(f"{path}:{lineno}: ")


def jsonl(path, rows):
    """Write ``rows`` as JSON Lines to ``path`` and return the path as a string."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def format_timestamp(ms: int) -> str:
    """An SRT timestamp, HH:MM:SS,mmm (more hour digits past 99 hours)."""
    hours, rem = divmod(ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, millis = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d},{millis:03d}"


def cue(index: int, start_ms: int, end_ms: int, text: str) -> dict:
    """A cue as parse_srt returns it."""
    return {"index": index, "start_ms": start_ms, "end_ms": end_ms, "text": text}


def serialize_srt(entries) -> str:
    """SRT text of parse_srt's cues, one blank line between cues."""
    blocks = [
        f"{e['index']}\n{format_timestamp(e['start_ms'])} --> "
        f"{format_timestamp(e['end_ms'])}\n{e['text']}"
        for e in entries
    ]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def embeddings(rows):
    """``load_embeddings`` of (label, id, vector) rows written to a temporary
    JSONL file; a temporary directory, not ``tmp_path``, so hypothesis tests
    can call it once per example."""
    with tempfile.TemporaryDirectory() as tmp:
        path = jsonl(os.path.join(tmp, "embeddings.jsonl"),
                     [{"label": label, "id": key, "vector": list(vector)}
                      for label, key, vector in rows])
        return load_embeddings(path)


def make_tone(freq, duration_s, sample_rate, amplitude=0.8, phase=0.0):
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return amplitude * np.sin(2 * np.pi * freq * t + phase)


def make_sawtooth(freq, duration_s, sample_rate, amplitude=0.8):
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    phase = t * freq
    return amplitude * (2.0 * (phase - np.floor(phase + 0.5)))


def write_pcm16_wav(path, channels, sample_rate):
    """PCM16 writer: ``channels`` is a list of per-channel float arrays. Each
    sample is rounded on the 32768 scale read_wav divides by and clipped to
    the int16 range, so samples read from a PCM16 file write back exactly."""
    frames = np.stack(channels, axis=1)
    quantized = np.clip(np.rint(frames * 32768), -32768, 32767).astype("<i2")
    _write_riff(path, quantized.tobytes(), 1, len(channels), sample_rate, 16)


def write_pcm16_raw(path, int_samples, n_channels, sample_rate):
    """PCM16 writer taking raw int16 values (for exact-quantization tests)."""
    payload = struct.pack(f"<{len(int_samples)}h", *int_samples)
    _write_riff(path, payload, 1, n_channels, sample_rate, 16)


def write_float32_wav(path, samples, sample_rate):
    payload = struct.pack(f"<{len(samples)}f", *samples)
    _write_riff(path, payload, 3, 1, sample_rate, 32)


def _write_riff(path, payload, format_tag, n_channels, sample_rate, bits):
    block_align = n_channels * bits // 8
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, format_tag, n_channels,
                                       sample_rate, sample_rate * block_align,
                                       block_align, bits))
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)


def enumerate_dtw_paths(dist):
    """Yield (cost, path) for every monotone path through ``dist``."""
    m, n = dist.shape

    def walk(i, j, cost, path):
        cost = cost + dist[i, j]
        path = path + [(i, j)]
        if i == m - 1 and j == n - 1:
            yield cost, path
            return
        if i + 1 < m and j + 1 < n:
            yield from walk(i + 1, j + 1, cost, path)
        if i + 1 < m:
            yield from walk(i + 1, j, cost, path)
        if j + 1 < n:
            yield from walk(i, j + 1, cost, path)

    yield from walk(0, 0, 0.0, [])


def brute_force_dtw_cost(a, b):
    """Minimum path cost by exhaustive enumeration of all monotone paths."""
    dist = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            dist[i, j] = np.sqrt(((a[i] - b[j]) ** 2).sum())
    return min(cost for cost, _ in enumerate_dtw_paths(dist))


def textbook_mfcc(power_frames, sample_rate, fft_size, n_mels, fmin, fmax,
                  n_coeffs, floor=1e-10):
    """Loop-coded mel filterbank -> log -> orthonormal DCT-II, coefficients 1..K."""

    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = fft_size // 2 + 1
    mel_lo, mel_hi = to_mel(fmin), to_mel(fmax)
    edges = [from_mel(mel_lo + (mel_hi - mel_lo) * k / (n_mels + 1))
             for k in range(n_mels + 2)]

    filterbank = [[0.0] * n_bins for _ in range(n_mels)]
    for m in range(n_mels):
        lower, center, upper = edges[m], edges[m + 1], edges[m + 2]
        for k in range(n_bins):
            f = k * sample_rate / fft_size
            if lower < f < center:
                filterbank[m][k] = (f - lower) / (center - lower)
            elif center <= f < upper:
                filterbank[m][k] = (upper - f) / (upper - center)
            elif f == center:
                filterbank[m][k] = 1.0

    out = []
    for frame in power_frames:
        logmel = []
        for m in range(n_mels):
            acc = 0.0
            for k in range(n_bins):
                acc += filterbank[m][k] * frame[k]
            logmel.append(math.log(max(floor, acc)))
        coeffs = []
        for k in range(1, n_coeffs + 1):
            acc = 0.0
            for j in range(n_mels):
                acc += logmel[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n_mels))
            coeffs.append(acc * math.sqrt(2.0 / n_mels))
        out.append(coeffs)
    return np.array(out)


def brute_force_accuracy(train_rows, test_rows):
    """Cosine-argmax accuracy with explicit loops over labels and members.

    Rows are (label, vector) pairs; vectors need not be normalized.
    """

    def unit(v):
        norm = math.sqrt(sum(x * x for x in v))
        return [x / norm for x in v]

    sums = {}
    counts = {}
    for label, vector in train_rows:
        v = unit(vector)
        if label not in sums:
            sums[label] = [0.0] * len(v)
            counts[label] = 0
        sums[label] = [a + b for a, b in zip(sums[label], v)]
        counts[label] += 1
    centroids = {label: [x / counts[label] for x in vec] for label, vec in sums.items()}

    correct = 0
    for label, vector in test_rows:
        best_label, best_sim = None, -2.0
        for cand in sorted(centroids):
            c = centroids[cand]
            c_norm = math.sqrt(sum(x * x for x in c))
            if c_norm < 1e-12:
                continue
            v_norm = math.sqrt(sum(x * x for x in vector))
            sim = sum(a * b for a, b in zip(vector, c)) / (v_norm * c_norm)
            if sim > best_sim:
                best_label, best_sim = cand, sim
        if best_label == label:
            correct += 1
    return 100.0 * correct / len(test_rows)
