"""dubkit: objective metrics and corpus tools for movie-dubbing speech synthesis.

The package covers the full desk workflow around a dubbed-speech corpus:
WAV ingestion and preprocessing, spectral/cepstral/pitch features, the
MCD / MCD-DTW / length-weighted MCD-DTW metric family, embedding-centroid
identity and emotion accuracy, MOS aggregation, and SRT-driven corpus
construction with splits and statistics.

Submodules load on first use (PEP 562): ``import dubkit`` imports none of
them, and ``dubkit.read_wav`` or ``dubkit.metrics`` imports only the one it
names, so a caller that never touches audio never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# every submodule, with the public names the package re-exports from it
_EXPORTS = {
    "audio": ("Waveform", "read_wav", "read_mono", "to_mono", "resample"),
    "dsp": ("FrameParams", "Spectrogram", "MelSpectrogram", "MfccSequence",
            "PitchTrack", "EnergyTrack", "stft_magnitude", "mel_filterbank",
            "mel_spectrogram", "mfcc", "energy_track", "pitch_track"),
    "metrics": ("AlignmentResult", "PairMetrics", "MetricReport", "PipelineConfig",
                "PairEntry", "mcd", "dtw_align", "mcd_dtw", "mcd_dtw_sl",
                "evaluate_pair", "evaluate_corpus", "load_pair_manifest"),
    "scoring": ("EmbeddingSet", "CentroidModel", "MosSummary", "load_embeddings",
                "build_centroids", "accuracy", "mos_aggregate", "load_ratings"),
    "srt": ("load_srt", "parse_srt"),
    "corpus": ("ClipRecord", "ClipPlan", "CorpusStats", "SplitAssignment",
               "EMOTIONS", "build_clip_plan", "corpus_stats", "load_manifest",
               "split_dataset"),
    "cli": (),
    "jsonl": (),
    "modes": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
