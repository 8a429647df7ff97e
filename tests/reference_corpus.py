"""``dubkit.corpus`` as it stood before its per-row work was cut and its
files were read a part per CPU, kept as the oracles that ``corpus_stats``'
chunked word count, the manifest loader's inline row checks and the
``stats`` and ``split`` commands' folds must match: a manifest is read whole
into ``ClipRecord``s by ``reference_jsonl``, one row at a time. Test-only;
not imported by dubkit.
"""

import random
import string
from collections import Counter

from dubkit import jsonl
from dubkit.corpus import EMOTIONS, ClipRecord, CorpusStats, ManifestError, SplitAssignment

import reference_jsonl

FIELDS = ("movie_id", "clip_index", "speaker", "emotion", "text", "start_ms", "end_ms")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize_for_counts(text: str) -> list[str]:
    """Word-count tokens: lowercase, ASCII punctuation removed."""
    return [t for t in text.lower().translate(_PUNCT_TABLE).split() if t]


def ranked_word_counts(texts) -> list:
    """(word, count) pairs, most frequent first, ties in word order."""
    counter: Counter = Counter()
    for text in texts:
        counter.update(tokenize_for_counts(text))
    return sorted(counter.items(), key=lambda item: (-item[1], item[0]))


def record_from_row(row: dict) -> ClipRecord:
    """A manifest row's record, each field through jsonl's checks."""
    return ClipRecord(
        movie_id=jsonl.text(row, "movie_id"),
        clip_index=jsonl.integer(row, "clip_index"),
        speaker=jsonl.text(row, "speaker"),
        emotion=jsonl.text(row, "emotion"),
        text=jsonl.text(row, "text"),
        start_ms=jsonl.integer(row, "start_ms"),
        end_ms=jsonl.integer(row, "end_ms"),
    )


def load_manifest(path) -> list[ClipRecord]:
    return reference_jsonl.load_objects(path, record_from_row, FIELDS, ManifestError)


def corpus_stats(records) -> CorpusStats:
    """Statistics of a record list, row by row; the durations are added left
    to right."""
    records = list(records)
    if not records:
        raise ValueError("cannot compute statistics of an empty record list")
    lengths = [len(r.text.split()) for r in records]
    total_duration = 0
    for r in records:
        total_duration += r.duration_s
    emotion_counts = {emotion: 0 for emotion in EMOTIONS}
    for r in records:
        emotion_counts[r.emotion] += 1
    return CorpusStats(
        n_movies=len({r.movie_id for r in records}),
        n_clips=len(records),
        n_speakers=len({r.speaker for r in records}),
        avg_subtitle_words=sum(lengths) / len(records),
        avg_duration_s=total_duration / len(records),
        emotion_counts=emotion_counts,
        word_counts=ranked_word_counts(r.text for r in records),
        utterance_length_histogram=dict(Counter(lengths)),
    )


def split_dataset(records, ratios, seed: int, stratify_by_speaker: bool) -> SplitAssignment:
    """The seeded floor-rule split of a record list."""
    records = list(records)
    if len(records) < 3:
        raise ValueError(f"need at least 3 records to split, got {len(records)}")
    ids = [r.clip_id for r in records]
    if len(set(ids)) != len(ids):
        seen = set()
        clash = next(i for i in ids if i in seen or seen.add(i))
        raise ValueError(f"duplicate clip id {jsonl.excerpt(clash)}; cannot partition")
    groups = [ids]
    if stratify_by_speaker:
        by_speaker: dict = {}
        for record in records:
            by_speaker.setdefault(record.speaker, []).append(record.clip_id)
        groups = [by_speaker[speaker] for speaker in sorted(by_speaker)]
    rng = random.Random(seed)
    train, val, test = [], [], []
    for group in groups:
        rng.shuffle(group)
        n_train = int(ratios[0] * len(group) + 1e-9)
        n_val = int(ratios[1] * len(group) + 1e-9)
        train += group[:n_train]
        val += group[n_train : n_train + n_val]
        test += group[n_train + n_val :]
    return SplitAssignment(train, val, test, seed)
