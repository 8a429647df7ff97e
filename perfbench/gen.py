"""Deterministic synthetic inputs for the benchmark workloads.

Every generator draws from a numpy Generator keyed by (seed, workload
name), so the same seed always writes byte-identical WAV, JSONL and SRT
files. Nothing here imports dubkit: the inputs must not depend on the
code under test.
"""

import json
import struct
import zlib

import numpy as np

EMOTIONS = ("angry", "disgust", "fear", "happy", "neutral", "sad", "surprise", "others")

_SYLLABLES = ("ka", "lo", "mi", "ren", "tas", "vo", "zu", "pel", "dor", "shi",
              "an", "bri", "cu", "fen", "gal", "hop", "ix", "jun", "mar", "ost")


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """Independent stream per (seed, workload)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def write_wav(path, samples: np.ndarray, rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM."""
    frames = samples if samples.ndim == 2 else samples[:, None]
    pcm = np.clip(np.rint(frames * 32767.0), -32768, 32767).astype("<i2").tobytes()
    channels = frames.shape[1]
    header = (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate,
                                      rate * channels * 2, channels * 2, 16)
              + b"data" + struct.pack("<I", len(pcm)))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)


def speechlike(rng: np.random.Generator, n: int, rate: int,
               voiced_share: float = 0.6) -> np.ndarray:
    """Syllable-sized segments of harmonic voicing, noise and silence."""
    f0 = np.zeros(n)
    amp = np.zeros(n)
    noise_amp = np.zeros(n)
    pos = 0
    while pos < n:
        length = int(rng.uniform(0.08, 0.4) * rate)
        end = min(n, pos + length)
        kind = rng.random()
        if kind < voiced_share:
            start_hz, end_hz = rng.uniform(90.0, 260.0, size=2)
            f0[pos:end] = np.linspace(start_hz, end_hz, end - pos)
            amp[pos:end] = rng.uniform(0.2, 0.6)
            noise_amp[pos:end] = 0.01
        elif kind < voiced_share + 0.25:
            noise_amp[pos:end] = rng.uniform(0.02, 0.1)
        else:
            noise_amp[pos:end] = 0.002
        pos = end
    phase = 2.0 * np.pi * np.cumsum(f0) / rate
    voiced = np.zeros(n)
    for h in range(1, 9):
        # harmonics above Nyquist are dropped, not aliased
        voiced += np.where(h * f0 < rate / 2, np.sin(h * phase), 0.0) / h
    return np.clip(0.5 * amp * voiced + noise_amp * rng.standard_normal(n), -1.0, 1.0)


def pair_set(out_dir, rng, specs):
    """Write generated/reference WAV pairs and their batch manifest.

    ``specs`` holds (gen_seconds, gen_rate, ref_seconds, ref_rate) rows.
    Returns (manifest path, rows, seconds of audio).
    """
    rows = []
    seconds = 0.0
    for k, (gen_s, gen_rate, ref_s, ref_rate) in enumerate(specs):
        gen_path = f"{out_dir}/gen_{k:04d}.wav"
        ref_path = f"{out_dir}/ref_{k:04d}.wav"
        write_wav(gen_path, speechlike(rng, int(gen_s * gen_rate), gen_rate), gen_rate)
        write_wav(ref_path, speechlike(rng, int(ref_s * ref_rate), ref_rate), ref_rate)
        seconds += int(gen_s * gen_rate) / gen_rate + int(ref_s * ref_rate) / ref_rate
        rows.append({"id": f"pair{k:04d}", "generated": gen_path, "reference": ref_path})
    manifest = f"{out_dir}/pairs.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return manifest, rows, seconds


def movie_clip(path, rng, seconds: float, rate: int, channels: int,
               voiced_share: float) -> float:
    """A multichannel clip, one speech track mixed into every channel; returns seconds."""
    n = int(seconds * rate)
    speech = speechlike(rng, n, rate, voiced_share)
    gains = rng.uniform(0.6, 1.0, size=channels)
    frames = speech[:, None] * gains + 0.003 * rng.standard_normal((n, channels))
    write_wav(path, np.clip(frames, -1.0, 1.0), rate)
    return n / rate


def _words(rng, count: int) -> list[str]:
    picks = rng.integers(0, len(_SYLLABLES), size=(count, 3))
    sizes = rng.integers(1, 4, size=count)
    return ["".join(_SYLLABLES[i] for i in row[:s]) for row, s in zip(picks, sizes)]


def _sentence(rng, vocab: list[str]) -> str:
    n = int(rng.integers(2, 14))
    words = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + (".", "!", "?", ",")[int(rng.integers(0, 4))]


def embeddings(train_path, test_path, rng, n_labels: int, per_label: int,
               dim: int, spread: float) -> None:
    """Labeled vectors around shared class means.

    ``spread`` scales the per-vector noise against unit-length class means,
    so neighbouring classes overlap and accuracy stays well below 100 %.
    """
    labels = [f"spk{i:03d}" for i in range(n_labels)]
    means = rng.standard_normal((n_labels, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    for path in (train_path, test_path):
        order = rng.permutation(n_labels * per_label)
        vectors = means[order % n_labels] + spread * rng.standard_normal(
            (len(order), dim)) / np.sqrt(dim)
        with open(path, "w", encoding="utf-8") as fh:
            for k, (cls, vec) in enumerate(zip(order % n_labels, vectors)):
                numbers = ",".join(f"{x:.6f}" for x in vec.tolist())
                fh.write(f'{{"label": "{labels[cls]}", "id": "u{k:06d}", '
                         f'"vector": [{numbers}]}}\n')


def clip_manifest(path, rng, n_rows: int, n_movies: int, n_speakers: int) -> float:
    """Clip-manifest JSONL; returns the summed clip duration in seconds."""
    vocab = _words(rng, 3000)
    movies = rng.integers(0, n_movies, size=n_rows)
    speakers = rng.integers(0, n_speakers, size=n_rows)
    emotions = rng.integers(0, len(EMOTIONS), size=n_rows)
    starts = rng.integers(0, 7_000_000, size=n_rows)
    lengths = rng.integers(500, 9000, size=n_rows)
    next_index = [0] * n_movies
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(n_rows):
            movie = int(movies[k])
            next_index[movie] += 1
            # every field is plain ASCII without quotes, so no JSON escaping
            fh.write(f'{{"movie_id": "m{movie:03d}", "clip_index": {next_index[movie]}, '
                     f'"speaker": "s{speakers[k]:04d}", '
                     f'"emotion": "{EMOTIONS[emotions[k]]}", '
                     f'"text": "{_sentence(rng, vocab)}", "start_ms": {starts[k]}, '
                     f'"end_ms": {starts[k] + lengths[k]}}}\n')
    return float(lengths.sum()) / 1000.0


def _timestamp(ms: int) -> str:
    hours, rem = divmod(ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, millis = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d},{millis:03d}"


def subtitles(path, rng, n_cues: int) -> float:
    """SubRip file of consecutive cues; returns the summed cue span in seconds."""
    vocab = _words(rng, 2000)
    gaps = rng.integers(50, 3000, size=n_cues)
    lengths = rng.integers(600, 6000, size=n_cues)
    two_lines = rng.random(n_cues) < 0.3
    t = 0
    blocks = []
    for k in range(n_cues):
        start = t + int(gaps[k])
        end = start + int(lengths[k])
        text = _sentence(rng, vocab)
        if two_lines[k]:
            text += "\n" + _sentence(rng, vocab)
        blocks.append(f"{k + 1}\n{_timestamp(start)} --> {_timestamp(end)}\n{text}\n")
        t = end
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(blocks))
    return float(lengths.sum()) / 1000.0
