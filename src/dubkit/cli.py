"""Command-line frontend.

Every subcommand reads files named on the command line, validates its
flags up front, and emits exactly one JSON document (stdout or --out)
that echoes the effective configuration, so identical inputs and flags
produce byte-identical output. Exit codes: 0 success, 2 usage/validation
failure, 1 runtime or data failure.
"""

import argparse
import json
import sys

from . import __version__
from .audio import Waveform, read_wav, resample, to_mono
from .corpus import (build_clip_plan, check_ratios, corpus_stats, load_manifest,
                     split_dataset)
from .dsp import (FrameParams, energy_track, mel_spectrogram, mfcc, pitch_track,
                  stft_magnitude)
from .metrics import (PipelineConfig, evaluate_corpus, evaluate_pair, extract_mfcc,
                      load_pair_manifest)
from .scoring import accuracy, build_centroids, load_embeddings, load_ratings, \
    mos_aggregate
from .srt import parse_srt


class UsageError(ValueError):
    """Flag validation failure; maps to exit code 2."""


def _add_output_flags(parser):
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON document here instead of stdout")
    parser.add_argument("--pretty", action="store_true",
                        help="render a human-readable view instead of JSON")


def _add_pipeline_flags(parser):
    parser.add_argument("--rate", type=int, default=22050,
                        help="working sample rate in Hz (default 22050)")
    parser.add_argument("--fft", type=int, default=1024,
                        help="FFT size in samples (default 1024)")
    parser.add_argument("--hop", type=int, default=256,
                        help="hop size in samples (default 256)")
    parser.add_argument("--win", type=int, default=1024,
                        help="window length in samples (default 1024)")
    parser.add_argument("--n-mels", type=int, default=80,
                        help="mel band count (default 80)")
    parser.add_argument("--fmin", type=float, default=0.0,
                        help="mel band floor in Hz (default 0)")
    parser.add_argument("--fmax", type=float, default=8000.0,
                        help="mel band ceiling in Hz (default 8000)")
    parser.add_argument("--k", type=int, default=13,
                        help="MFCC coefficient count (default 13)")


def _add_metric_flags(parser):
    parser.add_argument("--scale", choices=("plain", "conventional"), default="plain",
                        help="MCD scaling (default plain: no dB constant)")
    parser.add_argument("--pad-mode", choices=("pad", "strict"), default="pad",
                        help="zero-pad the shorter waveform for plain MCD, "
                             "or error on length mismatch (default pad)")


def _pipeline_config(args) -> PipelineConfig:
    """The pipeline flags as a config, checked before any file is read by
    running the library's own extractors on one sample of silence."""
    try:
        frame = FrameParams(fft_size=args.fft, hop=args.hop, win_length=args.win)
        cfg = PipelineConfig(sample_rate=args.rate, frame=frame,
                             n_mels=args.n_mels, fmin=args.fmin, fmax=args.fmax,
                             n_coeffs=args.k,
                             scale=getattr(args, "scale", "plain"),
                             pad_mode=getattr(args, "pad_mode", "pad"))
        silence = Waveform([0.0], cfg.sample_rate)
        extract_mfcc(silence, cfg)
        if hasattr(args, "pitch_fmin"):
            _pitch(silence, args, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _pitch(w, args, cfg):
    return pitch_track(w, args.pitch_fmin, args.pitch_fmax, args.pitch_threshold,
                       hop=cfg.frame.hop)


def cmd_features(args) -> dict:
    cfg = _pipeline_config(args)
    w = resample(to_mono(read_wav(args.audio)), cfg.sample_rate)
    spec = stft_magnitude(w, cfg.frame)
    mel = mel_spectrogram(spec, cfg.n_mels, cfg.fmin, cfg.fmax)
    coeffs = mfcc(mel, cfg.n_coeffs)
    pitch = _pitch(w, args, cfg)
    energy = energy_track(spec)
    config = cfg.to_dict()
    config.update({"pitch_fmin": args.pitch_fmin, "pitch_fmax": args.pitch_fmax,
                   "pitch_threshold": args.pitch_threshold, "input": args.audio})
    return {
        "config": config,
        "n_frames": spec.n_frames,
        "frame_rate": spec.frame_rate,
        "mel": mel.frames.tolist(),
        "mfcc": coeffs.frames.tolist(),
        "pitch": pitch.values.tolist(),
        "energy": energy.values.tolist(),
    }


def cmd_mcd(args) -> dict:
    cfg = _pipeline_config(args)
    gen = to_mono(read_wav(args.generated))
    ref = to_mono(read_wav(args.reference))
    row = evaluate_pair(gen, ref, cfg).to_dict()
    row.pop("id")
    config = cfg.to_dict()
    config.update({"generated": args.generated, "reference": args.reference})
    return {"config": config, **row}


def cmd_batch(args) -> dict:
    cfg = _pipeline_config(args)
    entries = load_pair_manifest(args.manifest)
    report = evaluate_corpus(entries, cfg)
    config = cfg.to_dict()
    config["manifest"] = args.manifest
    return {"config": config, **report.to_dict()}


def cmd_accuracy(args) -> dict:
    train = load_embeddings(args.train)
    test = load_embeddings(args.test)
    model = build_centroids(train)
    value = accuracy(test, model)
    return {
        "config": {"train": args.train, "test": args.test,
                   "label_key": args.label_key},
        "label_key": args.label_key,
        "n_train": len(train),
        "n_test": len(test),
        "n_labels": len(model.centroids),
        "accuracy_percent": value,
    }


def cmd_mos(args) -> dict:
    summary = mos_aggregate(load_ratings(args.ratings))
    return {"config": {"ratings": args.ratings}, **summary.to_dict()}


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_srt_parse(args) -> dict:
    entries = parse_srt(_read_text(args.srt))
    return {
        "config": {"srt": args.srt},
        "n_entries": len(entries),
        "entries": [vars(e) for e in entries],
    }


def cmd_srt_plan(args) -> dict:
    entries = parse_srt(_read_text(args.srt))
    plan = build_clip_plan(entries, movie_path=args.movie, out_dir=args.out_dir,
                           audio_mode=args.audio_mode, movie_id=args.movie_id,
                           emit_commands=args.emit_commands)
    return {
        "config": {"srt": args.srt, "movie": args.movie, "out_dir": args.out_dir,
                   "audio_mode": args.audio_mode, "emit_commands": args.emit_commands},
        **plan.to_dict(),
    }


def _parse_ratios(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--ratios needs three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--ratios values must be numbers, got {text!r}") from None


def cmd_split(args) -> dict:
    ratios = _parse_ratios(args.ratios)
    try:
        check_ratios(ratios)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    records = load_manifest(args.manifest)
    assignment = split_dataset(records, ratios, seed=args.seed,
                               stratify_by_speaker=args.stratify_by_speaker)
    return {
        "config": {"manifest": args.manifest, "ratios": list(ratios),
                   "seed": args.seed,
                   "stratify_by_speaker": args.stratify_by_speaker},
        **assignment.to_dict(),
    }


def cmd_stats(args) -> dict:
    if args.top_words < 0:
        raise UsageError(f"--top-words must be >= 0, got {args.top_words}")
    records = load_manifest(args.manifest)
    stats = corpus_stats(records)
    top = None if args.top_words == 0 else args.top_words
    return {
        "config": {"manifest": args.manifest, "top_words": args.top_words},
        **stats.to_dict(top_words=top),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dubkit",
        description="Objective metrics and corpus tools for movie-dubbing speech "
                    "synthesis.")
    parser.add_argument("--version", action="version", version=f"dubkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("features", help="extract mel/MFCC/pitch/energy from one WAV")
    p.add_argument("audio", help="input WAV file")
    _add_pipeline_flags(p)
    p.add_argument("--pitch-fmin", type=float, default=50.0,
                   help="pitch search floor in Hz (default 50)")
    p.add_argument("--pitch-fmax", type=float, default=600.0,
                   help="pitch search ceiling in Hz (default 600)")
    p.add_argument("--pitch-threshold", type=float, default=0.15,
                   help="voicing threshold on the normalized difference "
                        "(default 0.15)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("mcd", help="score one generated/reference WAV pair")
    p.add_argument("generated", help="generated speech WAV")
    p.add_argument("reference", help="reference speech WAV")
    _add_pipeline_flags(p)
    _add_metric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mcd)

    p = sub.add_parser("batch", help="score every pair in a JSONL manifest")
    p.add_argument("manifest", help="JSONL with {id, generated, reference} rows")
    _add_pipeline_flags(p)
    _add_metric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("accuracy",
                       help="centroid-classification accuracy of labeled embeddings")
    p.add_argument("--train", required=True,
                   help="JSONL embeddings used to build centroids")
    p.add_argument("--test", required=True, help="JSONL embeddings to classify")
    p.add_argument("--label-key", choices=("speaker", "emotion"), default="speaker",
                   help="what the label field denotes (echoed in output; "
                        "default speaker)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_accuracy)

    p = sub.add_parser("mos", help="aggregate listening-test ratings")
    p.add_argument("ratings",
                   help="single-column CSV or JSONL with {rater, item, score} rows")
    _add_output_flags(p)
    p.set_defaults(func=cmd_mos)

    p = sub.add_parser("srt", help="subtitle tools")
    srt_sub = p.add_subparsers(dest="srt_command", required=True, metavar="ACTION")

    q = srt_sub.add_parser("parse", help="parse an SRT file to JSON")
    q.add_argument("srt", help="SubRip subtitle file")
    _add_output_flags(q)
    q.set_defaults(func=cmd_srt_parse)

    q = srt_sub.add_parser("plan", help="derive a clip-cutting plan from an SRT file")
    q.add_argument("srt", help="SubRip subtitle file")
    q.add_argument("--movie", required=True, help="source movie file the plan cuts")
    q.add_argument("--out-dir", default="clips",
                   help="directory for planned outputs (default clips)")
    q.add_argument("--movie-id", default=None,
                   help="identifier used in output names (default: movie stem)")
    q.add_argument("--audio-mode", choices=("center-channel", "downmix"),
                   default="center-channel",
                   help="audio extraction mode (default center-channel)")
    q.add_argument("--emit-commands", action="store_true",
                   help="include FFmpeg-compatible argument vectors")
    _add_output_flags(q)
    q.set_defaults(func=cmd_srt_plan)

    p = sub.add_parser("split", help="seeded train/val/test split of a manifest")
    p.add_argument("manifest", help="JSONL clip manifest")
    p.add_argument("--ratios", default="0.6,0.1,0.3",
                   help="train,val,test fractions (default 0.6,0.1,0.3)")
    p.add_argument("--seed", type=int, required=True,
                   help="shuffle seed (required; there is no hidden default)")
    p.add_argument("--stratify-by-speaker", action="store_true",
                   help="apply the split within each speaker's records")
    _add_output_flags(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="descriptive statistics of a clip manifest")
    p.add_argument("manifest", help="JSONL clip manifest")
    p.add_argument("--top-words", type=int, default=30,
                   help="ranked words to include, 0 for all (default 30)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_stats)

    return parser


def _render_pretty(payload, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                lines.append(_render_pretty(value, indent + 1))
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{pad}{key}:")
                columns = list(value[0].keys())
                rows = [[_fmt(v.get(c)) for c in columns] for v in value]
                widths = [max(len(c), *(len(r[i]) for r in rows))
                          for i, c in enumerate(columns)]
                lines.append(pad + "  " + "  ".join(c.ljust(w) for c, w
                                                    in zip(columns, widths)))
                for row in rows:
                    lines.append(pad + "  " + "  ".join(cell.ljust(w) for cell, w
                                                        in zip(row, widths)))
            else:
                lines.append(f"{pad}{key}: {_fmt(value)}")
    else:
        lines.append(f"{pad}{_fmt(payload)}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, list):
        if len(value) > 6:
            return f"[{len(value)} values]"
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _emit(payload, args) -> None:
    if args.pretty:
        text = _render_pretty(payload) + "\n"
    else:
        text = json.dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def run(argv=None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except UsageError as exc:
        _error("usage", str(exc))
        return 2
    except Exception as exc:  # data/runtime failure: structured stderr, exit 1
        _error(type(exc).__name__, str(exc))
        return 1
    _emit(payload, args)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
