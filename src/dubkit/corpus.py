"""Corpus construction: clip records, subtitle-driven clip plans, seeded
train/val/test splits and descriptive statistics.

A clip record is one dubbed utterance: movie, cue index, speaker, one of
eight emotion labels, the subtitle text and its time span. Media cutting
itself is delegated to an external tool; the clip plan is pure data with
optional FFmpeg-style argument vectors as a convenience.
"""

import random
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import jsonl

EMOTIONS = ("angry", "disgust", "fear", "happy", "neutral", "sad", "surprise", "others")

_REQUIRED_FIELDS = ("movie_id", "clip_index", "speaker", "emotion", "text",
                    "start_ms", "end_ms")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# each audio mode's FFmpeg arguments: the centre channel alone, or all channels averaged
AUDIO_MODES = {"center-channel": ("-af", "pan=mono|c0=FC"), "downmix": ("-ac", "1")}


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
        if self.emotion not in EMOTIONS:
            raise ValueError(f"unknown emotion {self.emotion!r}; "
                             f"expected one of {', '.join(EMOTIONS)}")
        if self.end_ms <= self.start_ms:
            raise ValueError(f"clip duration must be positive "
                             f"({self.start_ms}..{self.end_ms} ms)")

    @property
    def clip_id(self) -> str:
        return f"{self.movie_id}_{self.clip_index:05d}"

    @property
    def duration_s(self) -> float:
        return (self.end_ms - self.start_ms) / 1000.0


def _record_from_row(row: dict) -> ClipRecord:
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
    """Read a JSONL clip manifest, validating every row."""
    return jsonl.load_objects(path, _record_from_row, _REQUIRED_FIELDS, ManifestError)


@dataclass(frozen=True)
class ClipJob:
    """One planned video cut plus audio extraction."""

    movie_id: str
    index: int
    start_s: float
    end_s: float
    audio_mode: str
    out_audio: str
    out_video: str

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class ClipPlan:
    """Machine-readable cutting plan for one movie."""

    movie_id: str
    movie_path: str
    out_dir: str
    audio_mode: str
    jobs: list
    commands: list | None = None

    def to_dict(self) -> dict:
        plan = {**vars(self), "jobs": [job.to_dict() for job in self.jobs]}
        if self.commands is None:
            del plan["commands"]
        return plan


def _clip_commands(job: ClipJob, movie_path: str) -> list:
    span = ["-ss", f"{job.start_s:.3f}", "-to", f"{job.end_s:.3f}"]
    video = ["ffmpeg", "-y", "-i", movie_path, *span, "-c:v", "copy", "-an",
             job.out_video]
    audio = ["ffmpeg", "-y", "-i", movie_path, *span, "-map", "0:a:0",
             *AUDIO_MODES[job.audio_mode], job.out_audio]
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
    """Turn subtitle cues into one cut-and-extract job per cue.

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
    indices = [e.index for e in entries]
    duplicates = sorted({i for i, c in Counter(indices).items() if c > 1})
    if duplicates:
        raise ValueError(f"duplicate cue indices in plan: {duplicates}")

    movie_path = str(movie_path)
    out_dir = str(out_dir)
    movie_id = clip_movie_id(movie_path, movie_id)

    jobs = []
    for entry in entries:
        stem = f"{movie_id}_{entry.index:05d}"
        jobs.append(ClipJob(
            movie_id=movie_id,
            index=entry.index,
            start_s=entry.start_ms / 1000.0,
            end_s=entry.end_ms / 1000.0,
            audio_mode=audio_mode,
            out_audio=str(Path(out_dir) / f"{stem}.wav"),
            out_video=str(Path(out_dir) / f"{stem}.mp4"),
        ))
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


def check_ratios(ratios) -> None:
    """Raise ValueError unless ``ratios`` are three positive numbers summing
    to 1; written so that NaN fails."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")


def split_dataset(records, ratios=(0.6, 0.1, 0.3), seed: int = 0,
                  stratify_by_speaker: bool = False) -> SplitAssignment:
    """Random train/val/test split with floor-rule sizes.

    Sizes are floor(r_train * n) and floor(r_val * n) with the remainder
    going to test; the shuffle is fully determined by ``seed``. The
    speaker-stratified mode applies the same rule within each speaker's
    records instead, in sorted speaker order.
    """
    records = list(records)
    check_ratios(ratios)
    if len(records) < 3:
        raise ValueError(f"need at least 3 records to split, got {len(records)}")
    ids = [r.clip_id for r in records]
    if len(set(ids)) != len(ids):
        seen = set()
        clash = next(i for i in ids if i in seen or seen.add(i))
        raise ValueError(f"duplicate clip id {clash!r}; cannot partition")

    groups = [ids]
    if stratify_by_speaker:
        by_speaker: dict = {}
        for record in records:
            by_speaker.setdefault(record.speaker, []).append(record.clip_id)
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


def tokenize_for_counts(text: str) -> list[str]:
    """Word-count tokens: lowercase, ASCII punctuation removed."""
    return [t for t in text.lower().translate(_PUNCT_TABLE).split() if t]


def corpus_stats(records) -> CorpusStats:
    """Compute manifest statistics.

    Average subtitle length counts whitespace tokens; ranked word counts
    use lowercased, punctuation-stripped tokens.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot compute statistics of an empty record list")

    lengths = [len(r.text.split()) for r in records]
    histogram = Counter(lengths)
    total_tokens = sum(lengths)

    word_counter: Counter = Counter()
    for record in records:
        word_counter.update(tokenize_for_counts(record.text))
    ranked = sorted(word_counter.items(), key=lambda item: (-item[1], item[0]))

    emotion_counts = {emotion: 0 for emotion in EMOTIONS}
    for record in records:
        emotion_counts[record.emotion] += 1

    return CorpusStats(
        n_movies=len({r.movie_id for r in records}),
        n_clips=len(records),
        n_speakers=len({r.speaker for r in records}),
        avg_subtitle_words=total_tokens / len(records),
        avg_duration_s=sum(r.duration_s for r in records) / len(records),
        emotion_counts=emotion_counts,
        word_counts=ranked,
        utterance_length_histogram=dict(histogram),
    )

