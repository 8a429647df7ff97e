"""Output checks for every CLI invocation the benchmark makes.

Each check takes the parsed JSON document and returns a list of
problems; every problem counts as one failed operation.
"""

import json

import numpy as np


def batch(doc: dict, manifest_rows: list) -> list:
    problems = [f"pair {f['id']} failed: {f['error']}" for f in doc["failures"]]
    if doc["aggregate"]["n_pairs"] != len(manifest_rows):
        problems.append(f"n_pairs {doc['aggregate']['n_pairs']} != "
                        f"{len(manifest_rows)} manifest rows")
    ids = [row["id"] for row in doc["rows"]]
    if ids != [row["id"] for row in manifest_rows]:
        problems.append("rows are not in manifest order")
    for row in doc["rows"]:
        m, n = row["m_frames"], row["n_frames"]
        if row["eta"] != max(m, n) / min(m, n):
            problems.append(f"{row['id']}: eta {row['eta']} != max/min({m}, {n})")
        if row["mcd_dtw_sl"] != row["eta"] * row["mcd_dtw"]:
            problems.append(f"{row['id']}: mcd_dtw_sl != eta * mcd_dtw")
    return problems


def features(doc: dict, fmin: float = 50.0, fmax: float = 600.0) -> list:
    pitch = np.asarray(doc["pitch"])
    bad = np.count_nonzero((pitch != 0) & ((pitch < fmin) | (pitch > fmax)))
    problems = [f"{bad} pitch values outside {{0}} U [{fmin}, {fmax}]"] if bad else []
    lengths = {len(doc[key]) for key in ("mel", "mfcc", "pitch", "energy")}
    if lengths != {doc["n_frames"]}:
        problems.append(f"track lengths {sorted(lengths)} != n_frames {doc['n_frames']}")
    return problems


def _load_vectors(path):
    labels, vectors = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            labels.append(row["label"])
            vectors.append(row["vector"])
    x = np.asarray(vectors, dtype=np.float64)
    return np.asarray(labels), x / np.sqrt((x**2).sum(axis=1, keepdims=True))


def brute_force_accuracy(train_path, test_path) -> float:
    """Cosine argmax over per-label centroids; first max wins over sorted labels."""
    train_labels, train = _load_vectors(train_path)
    test_labels, test = _load_vectors(test_path)
    labels = sorted(set(train_labels))
    centroids = np.stack([train[train_labels == label].mean(axis=0) for label in labels])
    centroids /= np.sqrt((centroids**2).sum(axis=1, keepdims=True))
    predicted = np.asarray(labels)[np.argmax(test @ centroids.T, axis=1)]
    return 100.0 * int((predicted == test_labels).sum()) / len(test_labels)


def accuracy(doc: dict, expected_percent: float) -> list:
    if doc["accuracy_percent"] != expected_percent:
        return [f"accuracy_percent {doc['accuracy_percent']} != brute force "
                f"{expected_percent}"]
    return []


def split(doc: dict, clip_ids: list, ratios=(0.6, 0.1, 0.3)) -> list:
    n = len(clip_ids)
    parts = {key: doc[key] for key in ("train", "val", "test")}
    problems = []
    seen = set()
    for key, ids in parts.items():
        if len(set(ids)) != len(ids) or seen & set(ids):
            problems.append(f"{key} overlaps another part or repeats an id")
        seen |= set(ids)
    if seen != set(clip_ids):
        problems.append("parts do not cover the manifest exactly")
    n_train, n_val = int(ratios[0] * n + 1e-9), int(ratios[1] * n + 1e-9)
    sizes = {"train": n_train, "val": n_val, "test": n - n_train - n_val}
    if {key: len(ids) for key, ids in parts.items()} != sizes or doc["sizes"] != sizes:
        problems.append(f"sizes {doc['sizes']} break the floor rule {sizes}")
    return problems


def stats(doc: dict, n_rows: int) -> list:
    total = sum(doc["emotion_counts"].values())
    if not total == doc["n_clips"] == n_rows:
        return [f"emotion counts sum to {total}, n_clips {doc['n_clips']}, "
                f"manifest has {n_rows} rows"]
    return []


def srt_plan(doc: dict, n_cues: int) -> list:
    problems = []
    if len(doc["jobs"]) != n_cues:
        problems.append(f"{len(doc['jobs'])} jobs for {n_cues} cues")
    if len(doc["commands"]) != 2 * n_cues:
        problems.append(f"{len(doc['commands'])} commands for {n_cues} cues")
    return problems
