"""Corpus construction: clip records, subtitle-driven clip plans, seeded
train/val/test splits and descriptive statistics.

A clip record is one dubbed utterance: movie, cue index, speaker, one of
eight emotion labels, the subtitle text and its time span. Media cutting
itself is delegated to an external tool; the clip plan is pure data with
optional FFmpeg-style argument vectors as a convenience.
"""

import operator
import random
import string
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path

from . import jsonl
from .modes import AUDIO_MODES

EMOTIONS = ("angry", "disgust", "fear", "happy", "neutral", "sad", "surprise", "others")

_REQUIRED_FIELDS = ("movie_id", "clip_index", "speaker", "emotion", "text",
                    "start_ms", "end_ms")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
# rows whose texts corpus_stats tokenises in one string
_COUNT_CHUNK = 1024


class ManifestError(ValueError):
    """A manifest row is invalid; the message starts with ``path:lineno:``."""


@dataclass(frozen=True)
class ClipRecord:
    """One utterance of the corpus."""

    movie_id: str
    clip_index: int
    speaker: str
    emotion: str
    text: str
    start_ms: int
    end_ms: int

    def __post_init__(self):
        _check_clip(self.emotion, self.start_ms, self.end_ms)

    @property
    def clip_id(self) -> str:
        return f"{self.movie_id}_{self.clip_index:05d}"

    @property
    def duration_s(self) -> float:
        return (self.end_ms - self.start_ms) / 1000.0


def _check_clip(emotion, start_ms, end_ms) -> None:
    """The checks of a ClipRecord's values beyond their types."""
    if emotion not in EMOTIONS:
        raise ValueError(f"unknown emotion {jsonl.excerpt(emotion)}; "
                         f"expected one of {', '.join(EMOTIONS)}")
    if end_ms <= start_ms:
        raise ValueError(f"clip duration must be positive ({start_ms}..{end_ms} ms)")


_row_fields = operator.itemgetter(*_REQUIRED_FIELDS)
_record_fields = operator.attrgetter(*_REQUIRED_FIELDS)


def _typed_fields(row: dict) -> tuple:
    """A manifest row's ClipRecord fields, each of its type, in order."""
    fields = movie_id, clip_index, speaker, emotion, text, start_ms, end_ms = _row_fields(row)
    # the common row, checked inline; any other goes through jsonl's checks
    if not (type(movie_id) is type(speaker) is type(emotion) is type(text) is str
            and type(clip_index) is type(start_ms) is type(end_ms) is int
            and -jsonl.INT64_END <= clip_index < jsonl.INT64_END
            and -jsonl.INT64_END <= start_ms < jsonl.INT64_END
            and -jsonl.INT64_END <= end_ms < jsonl.INT64_END):
        fields = (jsonl.text(row, "movie_id"), jsonl.integer(row, "clip_index"),
                  jsonl.text(row, "speaker"), jsonl.text(row, "emotion"),
                  jsonl.text(row, "text"), jsonl.integer(row, "start_ms"),
                  jsonl.integer(row, "end_ms"))
    return fields


def _line_fields(line: str) -> tuple:
    """A manifest line's ClipRecord fields, through ClipRecord's checks."""
    fields = _typed_fields(jsonl.parse_object(line, _REQUIRED_FIELDS))
    _check_clip(fields[3], fields[5], fields[6])
    return fields


def load_manifest(path) -> list[ClipRecord]:
    """Read a JSONL clip manifest, validating every row."""
    return jsonl.load_objects(path, lambda row: ClipRecord(*_typed_fields(row)),
                              _REQUIRED_FIELDS, ManifestError)


@dataclass(frozen=True)
class ClipPlan:
    """Machine-readable cutting plan for one movie; each of ``jobs`` is a
    dict, the object ``srt plan`` writes for its cue."""

    movie_id: str
    movie_path: str
    out_dir: str
    audio_mode: str
    jobs: list
    commands: list | None = None

    def to_dict(self) -> dict:
        plan = dict(vars(self))
        if self.commands is None:
            del plan["commands"]
        return plan


def _clip_commands(job: dict, movie_path: str) -> list:
    span = ["-ss", f"{job['start_s']:.3f}", "-to", f"{job['end_s']:.3f}"]
    video = ["ffmpeg", "-y", "-i", movie_path, *span, "-c:v", "copy", "-an",
             job["out_video"]]
    audio = ["ffmpeg", "-y", "-i", movie_path, *span, "-map", "0:a:0",
             *AUDIO_MODES[job["audio_mode"]], job["out_audio"]]
    return [video, audio]


def clip_movie_id(movie_path, movie_id: str | None = None) -> str:
    """The id a clip plan names its files by: ``movie_id``, else the movie's
    file stem.

    Raises ValueError for an empty id, ``.``, ``..`` or one holding a ``/``:
    those would name clips with no movie part or outside ``out_dir``.
    """
    if movie_id is None:
        movie_id = Path(movie_path).stem
    if movie_id in ("", ".", "..") or "/" in movie_id:
        raise ValueError(f"movie id {movie_id!r} cannot name clip files: it must be "
                         "non-empty, not '.' or '..', and hold no '/'")
    return movie_id


def build_clip_plan(entries, movie_path, out_dir, audio_mode: str = "center-channel",
                    movie_id: str | None = None, emit_commands: bool = False) -> ClipPlan:
    """Turn parse_srt's cue dicts into one cut-and-extract job dict per cue.

    Output files are named ``{movie_id}_{index:05d}.wav`` / ``.mp4`` under
    ``out_dir``; ``clip_movie_id`` picks and checks the id. The plan is
    data only; ``emit_commands`` additionally includes FFmpeg-compatible
    argument vectors for an external runner.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("cannot plan clips from an empty cue list")
    if audio_mode not in AUDIO_MODES:
        raise ValueError(f"unknown audio_mode {audio_mode!r}")
    indices = [e["index"] for e in entries]
    duplicates = sorted({i for i, c in Counter(indices).items() if c > 1})
    if duplicates:
        raise ValueError(f"duplicate cue indices in plan: {duplicates}")

    movie_path = str(movie_path)
    out_dir = str(out_dir)
    movie_id = clip_movie_id(movie_path, movie_id)

    # str(Path(out_dir) / name), with out_dir normalised once: "", "." and "./"
    # add no directory, and "/" and "//" keep their slashes
    base = str(Path(out_dir))
    prefix = "" if base == "." else base if base.endswith("/") else base + "/"
    jobs = []
    for entry in entries:
        stem = f"{prefix}{movie_id}_{entry['index']:05d}"
        jobs.append({"movie_id": movie_id, "index": entry["index"],
                     "start_s": entry["start_ms"] / 1000.0,
                     "end_s": entry["end_ms"] / 1000.0, "audio_mode": audio_mode,
                     "out_audio": f"{stem}.wav", "out_video": f"{stem}.mp4"})
    commands = None
    if emit_commands:
        commands = [cmd for job in jobs for cmd in _clip_commands(job, movie_path)]
    return ClipPlan(movie_id, movie_path, out_dir, audio_mode, jobs, commands)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint, exhaustive train/val/test clip-id lists."""

    train: list
    val: list
    test: list
    seed: int

    def to_dict(self) -> dict:
        return {**vars(self),
                "sizes": {"train": len(self.train), "val": len(self.val),
                          "test": len(self.test)}}


def _sum_in_order(values) -> float:
    """The values added left to right, as sum() adds floats before Python
    3.12; from 3.12 it compensates the rounding, which changes the bits."""
    total = 0
    for value in values:
        total += value
    return total


def check_ratios(ratios) -> None:
    """Raise ValueError unless ``ratios`` are three positive numbers summing
    to 1; written so that NaN fails."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    total = _sum_in_order(ratios)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"ratios must sum to 1, got {total}")


def split_dataset(records, ratios=(0.6, 0.1, 0.3), seed: int = 0,
                  stratify_by_speaker: bool = False) -> SplitAssignment:
    """Random train/val/test split with floor-rule sizes.

    Sizes are floor(r_train * n) and floor(r_val * n) with the remainder
    going to test; the shuffle is fully determined by ``seed``. The
    speaker-stratified mode applies the same rule within each speaker's
    records instead, in sorted speaker order.
    """
    return _split([_split_part(stratify_by_speaker, map(_record_fields, records))],
                  ratios, seed, stratify_by_speaker)


def _manifest_split(path, ratios, seed: int, stratify_by_speaker: bool) -> SplitAssignment:
    """split_dataset(load_manifest(path), ...), a part per CPU (jsonl.fold_lines)."""
    parts = jsonl.fold_lines(path, _line_fields,
                             partial(_split_part, stratify_by_speaker), ManifestError)
    return _split(parts, ratios, seed, stratify_by_speaker)


def _split_part(stratify_by_speaker: bool, rows) -> tuple:
    """(clip ids, speakers) of some rows' ClipRecord fields; no speakers
    unless the split is stratified by them."""
    ids, speakers = [], []
    for movie_id, clip_index, speaker, *_ in rows:
        ids.append(f"{movie_id}_{clip_index:05d}")
        if stratify_by_speaker:
            speakers.append(speaker)
    return ids, speakers


def _split(parts, ratios, seed: int, stratify_by_speaker: bool) -> SplitAssignment:
    """split_dataset of the rows whose _split_part results are ``parts``."""
    check_ratios(ratios)
    ids = [i for part_ids, _ in parts for i in part_ids]
    if len(ids) < 3:
        raise ValueError(f"need at least 3 records to split, got {len(ids)}")
    if len(set(ids)) != len(ids):
        seen = set()
        clash = next(i for i in ids if i in seen or seen.add(i))
        raise ValueError(f"duplicate clip id {jsonl.excerpt(clash)}; cannot partition")

    groups = [ids]
    if stratify_by_speaker:
        by_speaker: dict = {}
        for part_ids, speakers in parts:
            for clip_id, speaker in zip(part_ids, speakers):
                by_speaker.setdefault(speaker, []).append(clip_id)
        groups = [by_speaker[speaker] for speaker in sorted(by_speaker)]
    rng = random.Random(seed)
    train: list = []
    val: list = []
    test: list = []
    for group in groups:
        rng.shuffle(group)
        # epsilon guards float products like 0.6 * n that are integral in exact arithmetic
        n_train = int(ratios[0] * len(group) + 1e-9)
        n_val = int(ratios[1] * len(group) + 1e-9)
        train += group[:n_train]
        val += group[n_train : n_train + n_val]
        test += group[n_train + n_val :]
    return SplitAssignment(train, val, test, seed)


@dataclass(frozen=True)
class CorpusStats:
    """Descriptive statistics over a clip manifest."""

    n_movies: int
    n_clips: int
    n_speakers: int
    avg_subtitle_words: float
    avg_duration_s: float
    emotion_counts: dict
    word_counts: list
    utterance_length_histogram: dict

    def to_dict(self, top_words: int | None = None) -> dict:
        words = self.word_counts if top_words is None else self.word_counts[:top_words]
        return {
            "n_movies": self.n_movies,
            "n_clips": self.n_clips,
            "n_speakers": self.n_speakers,
            "avg_subtitle_words": self.avg_subtitle_words,
            "avg_duration_s": self.avg_duration_s,
            "emotion_counts": dict(self.emotion_counts),
            "word_counts": [[w, c] for w, c in words],
            "utterance_length_histogram": {str(k): v for k, v
                                           in sorted(self.utterance_length_histogram.items())},
            # kept so the stats document keeps its keys; stats reads no audio
            "pitch_mean_hz": None,
            "pitch_variance": None,
        }


def corpus_stats(records) -> CorpusStats:
    """Compute manifest statistics.

    Average subtitle length counts whitespace tokens; ranked word counts
    use lowercased, punctuation-stripped tokens.
    """
    return _stats([_stats_part(map(_record_fields, records))])


def _manifest_stats(path) -> CorpusStats:
    """corpus_stats(load_manifest(path)), a part per CPU (jsonl.fold_lines)."""
    return _stats(jsonl.fold_lines(path, _line_fields, _stats_part, ManifestError))


def _stats_part(rows) -> tuple:
    """What corpus_stats keeps of some rows' ClipRecord fields, durations
    in row order."""
    histogram, words, emotions = Counter(), Counter(), Counter()
    movies, speakers, durations, n_tokens = set(), set(), array("d"), 0
    # a chunk of texts is tokenised at once: "\n" is whitespace, and neither
    # cased nor case-ignorable, so str.lower's final-sigma rule sees each row
    # end as the end of a string
    while chunk := list(islice(rows, _COUNT_CHUNK)):
        movie_ids, _, speaker_ids, emotion_names, texts, starts, ends = zip(*chunk)
        lengths = [len(text.split()) for text in texts]
        histogram.update(lengths)
        n_tokens += sum(lengths)
        words.update("\n".join(texts).lower().translate(_PUNCT_TABLE).split())
        emotions.update(emotion_names)
        movies.update(movie_ids)
        speakers.update(speaker_ids)
        durations.extend([(end - start) / 1000.0 for start, end in zip(starts, ends)])
    return histogram, n_tokens, words, emotions, movies, speakers, durations


def _stats(parts) -> CorpusStats:
    """corpus_stats of the rows whose _stats_part results are ``parts``."""
    histograms, n_tokens, words, emotions, movies, speakers, durations = zip(*parts)
    n_clips = sum(map(len, durations))
    if not n_clips:
        raise ValueError("cannot compute statistics of an empty record list")
    emotion_counts = sum(emotions, Counter())
    return CorpusStats(
        n_movies=len(set().union(*movies)),
        n_clips=n_clips,
        n_speakers=len(set().union(*speakers)),
        avg_subtitle_words=sum(n_tokens) / n_clips,
        # added left to right, part 0's first, to the bits of a one-part sum
        avg_duration_s=_sum_in_order(chain.from_iterable(durations)) / n_clips,
        emotion_counts={emotion: emotion_counts[emotion] for emotion in EMOTIONS},
        word_counts=sorted(sum(words, Counter()).items(),
                           key=lambda item: (-item[1], item[0])),
        utterance_length_histogram=dict(sum(histograms, Counter())),
    )
