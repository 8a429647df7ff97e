"""``dubkit.corpus`` as it stood before its per-row work was cut, kept as
the oracles that ``corpus_stats``' chunked word count and the manifest
loader's inline row checks must match. Test-only; not imported by dubkit.
"""

import string
from collections import Counter

from dubkit import jsonl
from dubkit.corpus import ClipRecord

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
