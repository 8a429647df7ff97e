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
from dataclasses import dataclass

import numpy as np

from . import jsonl


class EmbeddingFormatError(ValueError):
    """An embedding row is malformed; the message starts with its location."""


class RatingError(ValueError):
    """A rating is not a number on the 1..5 half-point grid."""


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """Labeled unit vectors sharing one dimension: ``labels`` in file order
    and ``vectors``, the matching n x dim rows."""

    labels: tuple
    vectors: np.ndarray

    @property
    def dim(self) -> int | None:
        return self.vectors.shape[1] if len(self.labels) else None

    def __len__(self) -> int:
        return len(self.labels)


_TINY = np.finfo(np.float64).tiny  # the smallest normal float


def _normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``v`` scaled to unit L2 length along its last axis, and that length.

    The length is ``np.sqrt((v**2).sum())`` and the unit vector ``v`` divided
    by it wherever the sum of squares is a finite, normal float, so ordinary
    vectors keep their bits. Where it overflows, or falls below the normal
    range and loses precision or reaches 0, both are computed from ``v``
    divided by its largest magnitude. A zero vector has length 0 and a NaN
    unit vector.
    """
    with np.errstate(over="ignore"):
        squares = (v**2).sum(axis=-1, keepdims=True)
    norm = np.sqrt(squares)
    redo = ~((squares >= _TINY) & (squares < np.inf))[..., 0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        unit = v / norm
        if redo.any():  # only these rows go through the rescaling temporaries
            rows = v[redo]
            peak = np.abs(rows).max(axis=-1, keepdims=True)
            scaled = rows / np.where(peak == 0.0, 1.0, peak)
            scaled_norm = np.sqrt((scaled**2).sum(axis=-1, keepdims=True))
            unit[redo] = scaled / scaled_norm
            norm[redo] = scaled_norm * peak
    return unit, norm[..., 0]


def load_embeddings(path) -> EmbeddingSet:
    """Read a JSONL embedding file ({label, id, vector} rows).

    Each row is checked as it is read, so the first bad row is the one
    reported; the vectors are then normalized together as one matrix.
    """
    vectors = []
    seen = set()

    def check(row) -> str:
        try:
            v = np.asarray(row["vector"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise EmbeddingFormatError("vector is not numeric") from None
        if v.ndim != 1 or v.size == 0:
            raise EmbeddingFormatError("vector must be a flat, nonempty number list")
        # numpy converts "1.0" and true as well; a flat vector here is a list
        if not {int, float}.issuperset(map(type, row["vector"])):
            raise EmbeddingFormatError("vector is not numeric")
        if not np.all(np.isfinite(v)):
            raise EmbeddingFormatError("non-finite vector entry")
        if vectors and v.size != vectors[0].size:
            raise EmbeddingFormatError(f"dimension {v.size} does not match "
                                       f"established dimension {vectors[0].size}")
        if not v.any():
            raise EmbeddingFormatError("zero vector")
        key = (jsonl.text(row, "label"), jsonl.text(row, "id"))
        if key in seen:
            raise EmbeddingFormatError(f"duplicate (label, id) {key}")
        seen.add(key)
        vectors.append(v)
        return key[0]

    labels = jsonl.load_objects(path, check, ("label", "id", "vector"),
                                EmbeddingFormatError)
    if not vectors:
        return EmbeddingSet((), np.empty((0, 0)))
    stacked = np.array(vectors)
    vectors.clear()  # the rows live on in ``stacked`` alone
    return EmbeddingSet(tuple(labels), _normalize(stacked)[0])


@dataclass(frozen=True, eq=False)
class CentroidModel:
    """Per-label mean of normalized member embeddings (``centroids``), and
    the sorted ``labels`` whose centroid is not (near-)zero with those
    centroids at unit length (``units``, one row per label). A degenerate
    label, whose members cancel, is left out of ``labels`` and never wins.
    """

    centroids: dict
    labels: tuple
    units: np.ndarray

    @property
    def dim(self) -> int:
        return next(iter(self.centroids.values())).size


def build_centroids(embeddings: EmbeddingSet) -> CentroidModel:
    """Average each label's normalized members into its centroid."""
    if not len(embeddings):
        raise ValueError("cannot build centroids from an empty embedding set")
    members: dict = {}
    for label, vector in zip(embeddings.labels, embeddings.vectors):
        members.setdefault(label, []).append(vector)
    # sum() adds the members one at a time, in file order
    centroids = {label: sum(vs[1:], vs[0]) / len(vs) for label, vs in members.items()}
    normalized = {label: _normalize(c) for label, c in centroids.items()}
    labels = tuple(sorted(label for label, (_, norm) in normalized.items()
                          if norm >= 1e-12))
    units = np.array([normalized[label][0] for label in labels])
    return CentroidModel(centroids, labels, units)


def accuracy(test: EmbeddingSet, model: CentroidModel) -> float:
    """Percentage of test vectors whose most cosine-similar centroid carries
    their own label.

    The first maximum wins, so exact ties go to the lexicographically
    smallest label. einsum without ``optimize`` (no BLAS) sums each pair on
    its own, so a vector's similarities do not depend on the other rows.
    """
    if not len(test):
        raise ValueError("empty test set")
    if test.vectors.shape[1:] != (model.dim,):
        raise ValueError(f"query dimension {test.vectors.shape[1:]} does not match "
                         f"model dimension {model.dim}")
    if not np.isfinite(test.vectors).all():
        raise ValueError("cannot classify a non-finite vector")
    unit, norms = _normalize(test.vectors)
    if not norms.all():
        raise ValueError("cannot classify a zero vector")
    if not model.labels:
        raise ValueError("all centroids are degenerate")
    best = np.einsum("nd,ld->nl", unit, model.units).argmax(axis=1)
    correct = sum(1 for label, i in zip(test.labels, best) if model.labels[i] == label)
    return 100.0 * correct / len(test)


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
        _on_scale(r)
    arr = np.array(values)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    half_width = 1.96 * std / math.sqrt(len(arr))
    return MosSummary(mean, half_width, len(arr), std)


def _on_scale(r: float) -> float:
    if not (1.0 <= r <= 5.0) or (2.0 * r) != round(2.0 * r):
        raise RatingError(f"rating {r!r} is not on the 1..5 half-point scale")
    return r


def _rating(line: str) -> float:
    return _on_scale(_number(line))


def _number(line: str) -> float:
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
    """Read ratings from a single-column CSV or a JSONL of {rater, item, score};
    a row that is not a rating on the 1..5 half-point scale is a RatingError
    located at ``path:line``."""
    return jsonl.load_lines(path, _rating, RatingError)
