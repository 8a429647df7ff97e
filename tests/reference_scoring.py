"""``dubkit.scoring``'s embedding path as it stood when each row became a
record object normalized on its own, kept as the oracle that the one-matrix
loader must match: the same labels, the same vector and centroid bits, the
same accuracy and the same first-error message. Its rows come from
``reference_jsonl``, which parses them with ``json.loads`` alone. Test-only.
"""

from dataclasses import dataclass

import numpy as np

from dubkit.scoring import CentroidModel, EmbeddingFormatError, _normalize

import reference_jsonl


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    label: str
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Labeled unit vectors sharing one dimension."""

    records: list
    dim: int | None

    def __len__(self) -> int:
        return len(self.records)


class _RecordChecker:
    """Validates and normalizes (label, id, vector) rows one at a time,
    against the rows checked before; ``dim`` is the established size."""

    def __init__(self):
        self.dim = None
        self._seen = set()

    def __call__(self, label, record_id, vector) -> EmbeddingRecord:
        try:
            v = np.asarray(vector, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise EmbeddingFormatError("vector is not numeric") from None
        if v.ndim != 1 or v.size == 0:
            raise EmbeddingFormatError("vector must be a flat, nonempty number list")
        if not np.all(np.isfinite(v)):
            raise EmbeddingFormatError("non-finite vector entry")
        if self.dim is None:
            self.dim = v.size
        elif v.size != self.dim:
            raise EmbeddingFormatError(f"dimension {v.size} does not match "
                                       f"established dimension {self.dim}")
        unit, norm = _normalize(v)
        if norm == 0.0:
            raise EmbeddingFormatError("zero vector")
        key = (str(label), str(record_id))
        if key in self._seen:
            raise EmbeddingFormatError(f"duplicate (label, id) {key}")
        self._seen.add(key)
        return EmbeddingRecord(str(label), unit)


def load_embeddings(path) -> EmbeddingSet:
    """Read a JSONL embedding file ({label, id, vector} rows)."""
    check = _RecordChecker()
    records = reference_jsonl.load_objects(
        path, lambda row: check(row["label"], row["id"], row["vector"]),
        ("label", "id", "vector"), EmbeddingFormatError)
    return EmbeddingSet(records, check.dim)


def build_centroids(embeddings: EmbeddingSet) -> CentroidModel:
    """Average each label's normalized members into its centroid."""
    if not embeddings.records:
        raise ValueError("cannot build centroids from an empty embedding set")
    members: dict = {}
    for record in embeddings.records:
        members.setdefault(record.label, []).append(record.vector)
    # sum() adds the members one at a time, in file order
    centroids = {label: sum(vs[1:], vs[0]) / len(vs) for label, vs in members.items()}
    normalized = {label: _normalize(c) for label, c in centroids.items()}
    labels = tuple(sorted(label for label, (_, norm) in normalized.items()
                          if norm >= 1e-12))
    units = np.array([normalized[label][0] for label in labels])
    return CentroidModel(centroids, labels, units)


def _nearest(queries: np.ndarray, model: CentroidModel) -> tuple[np.ndarray, np.ndarray]:
    """Per query row, the index in ``model.labels`` of the most cosine-similar
    centroid and that similarity; the first maximum wins, so exact ties go to
    the smallest label. einsum without ``optimize`` (no BLAS) sums each pair on
    its own, so a pair's similarity does not depend on the other rows."""
    if queries.shape[1:] != (model.dim,):
        raise ValueError(f"query dimension {queries.shape[1:]} does not match model "
                         f"dimension {model.dim}")
    if not np.isfinite(queries).all():
        raise ValueError("cannot classify a non-finite vector")
    unit, norms = _normalize(queries)
    if not norms.all():
        raise ValueError("cannot classify a zero vector")
    if not model.labels:
        raise ValueError("all centroids are degenerate")
    sims = np.einsum("nd,ld->nl", unit, model.units)
    best = sims.argmax(axis=1)
    return best, sims[np.arange(len(sims)), best]


def accuracy(test: EmbeddingSet, model: CentroidModel) -> float:
    """Percentage of test records whose predicted label matches their own."""
    if not test.records:
        raise ValueError("empty test set")
    best, _ = _nearest(np.array([r.vector for r in test.records]), model)
    correct = sum(1 for r, i in zip(test.records, best) if model.labels[i] == r.label)
    return 100.0 * correct / len(test.records)
