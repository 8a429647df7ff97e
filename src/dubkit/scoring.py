"""Identity/emotion accuracy from speaker-style embeddings, and MOS
aggregation for listening tests.

Embeddings arrive from an external encoder as JSON Lines and are
L2-normalized on load. Per-label centroids are plain means of the
normalized members; classification picks the centroid with the highest
cosine similarity. The same machinery serves speaker identity and emotion
labels alike. MOS ratings live on the 1..5 scale in half-point steps and
are summarized as mean ± a 95% normal-approximation half-width.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonl


class EmbeddingFormatError(ValueError):
    """An embedding row is malformed; the message starts with its location."""


class RatingError(ValueError):
    """A rating is outside the 1..5 half-point grid."""


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    label: str
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Labeled unit vectors sharing one dimension."""

    records: list
    dim: int | None

    @classmethod
    def from_rows(cls, rows) -> "EmbeddingSet":
        """Build from (label, id, vector) triples, normalizing each vector."""
        check = _RecordChecker()
        records = []
        for n, (label, record_id, vector) in enumerate(rows, start=1):
            try:
                records.append(check(label, record_id, vector))
            except EmbeddingFormatError as exc:
                raise EmbeddingFormatError(f"row {n}: {exc}") from None
        return cls(records, check.dim)

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
        norm = np.sqrt((v**2).sum())
        if norm == 0.0:
            raise EmbeddingFormatError("zero vector")
        key = (str(label), str(record_id))
        if key in self._seen:
            raise EmbeddingFormatError(f"duplicate (label, id) {key}")
        self._seen.add(key)
        return EmbeddingRecord(str(label), v / norm)


def load_embeddings(path) -> EmbeddingSet:
    """Read a JSONL embedding file ({label, id, vector} rows)."""
    check = _RecordChecker()
    records = jsonl.load_objects(
        path, lambda row: check(row["label"], row["id"], row["vector"]),
        ("label", "id", "vector"), EmbeddingFormatError)
    return EmbeddingSet(records, check.dim)


@dataclass(frozen=True, eq=False)
class CentroidModel:
    """Per-label mean of normalized member embeddings.

    Centroids are stored unnormalized; cosine comparison renormalizes at
    query time. Labels whose members cancel to a (near-)zero centroid are
    kept but flagged degenerate and never win a classification.
    """

    centroids: dict
    counts: dict
    degenerate: frozenset = field(default_factory=frozenset)

    @property
    def dim(self) -> int:
        return next(iter(self.centroids.values())).size


def build_centroids(embeddings: EmbeddingSet) -> CentroidModel:
    """Average each label's normalized members into its centroid."""
    if not embeddings.records:
        raise ValueError("cannot build centroids from an empty embedding set")
    sums: dict = {}
    counts: dict = {}
    for record in embeddings.records:
        if record.label in sums:
            sums[record.label] = sums[record.label] + record.vector
            counts[record.label] += 1
        else:
            sums[record.label] = record.vector.copy()
            counts[record.label] = 1
    centroids = {label: total / counts[label] for label, total in sums.items()}
    degenerate = frozenset(label for label, c in centroids.items()
                           if np.sqrt((c**2).sum()) < 1e-12)
    return CentroidModel(centroids, counts, degenerate)


def classify(vector, model: CentroidModel) -> tuple[str, float]:
    """Label of the most cosine-similar centroid, with the similarity.

    Ties break toward the lexicographically smallest label.
    """
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1 or v.size != model.dim:
        raise ValueError(f"query dimension {v.shape} does not match model dimension "
                         f"{model.dim}")
    v_norm = np.sqrt((v**2).sum())
    if v_norm == 0.0:
        raise ValueError("cannot classify a zero vector")
    best_label = None
    best_sim = -np.inf
    for label in sorted(model.centroids):
        if label in model.degenerate:
            continue
        centroid = model.centroids[label]
        sim = float(v @ centroid / (v_norm * np.sqrt((centroid**2).sum())))
        if sim > best_sim:
            best_label, best_sim = label, sim
    if best_label is None:
        raise ValueError("all centroids are degenerate")
    return best_label, best_sim


def accuracy(test: EmbeddingSet, model: CentroidModel) -> float:
    """Percentage of test records whose predicted label matches their own."""
    if not test.records:
        raise ValueError("empty test set")
    correct = sum(1 for r in test.records if classify(r.vector, model)[0] == r.label)
    return 100.0 * correct / len(test.records)


@dataclass(frozen=True)
class MosSummary:
    """Mean opinion score with a 95% confidence half-width."""

    mean: float
    half_width: float
    n: int
    std: float

    @property
    def rendered(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f}"

    def to_dict(self) -> dict:
        return {**vars(self), "rendered": self.rendered}


def mos_aggregate(ratings) -> MosSummary:
    """Summarize ACR ratings (1..5 in half-point steps).

    The half-width is 1.96 * sample std / sqrt(n); a single rating has
    std 0 by convention.
    """
    values = []
    for r in ratings:
        if isinstance(r, (bool, np.bool_)):
            raise RatingError(f"rating {r!r} is a boolean, not a number")
        values.append(float(r))
    if not values:
        raise RatingError("no ratings given")
    for r in values:
        if not (1.0 <= r <= 5.0) or (2.0 * r) != round(2.0 * r):
            raise RatingError(f"rating {r!r} is not on the 1..5 half-point scale")
    arr = np.array(values)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    half_width = 1.96 * std / math.sqrt(len(arr))
    return MosSummary(mean, half_width, len(arr), std)


def _rating(line: str) -> float:
    text = line.strip()
    if text.startswith("{"):
        value = jsonl.parse_object(text, ("score",))["score"]
        if not isinstance(value, bool):
            try:
                return float(value)
            except (TypeError, ValueError, OverflowError):
                pass
        raise ValueError(f"score is not a number: {value!r}")
    fields = [f.strip() for f in text.split(",") if f.strip()]
    if len(fields) != 1:
        raise ValueError("expected a single rating column")
    try:
        return float(fields[0])
    except ValueError:
        raise ValueError(f"not a number: {fields[0]!r}") from None


def load_ratings(path) -> list[float]:
    """Read ratings from a single-column CSV or a JSONL of {rater, item, score}."""
    return jsonl.load_lines(path, _rating)
