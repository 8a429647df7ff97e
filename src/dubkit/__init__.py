"""dubkit: objective metrics and corpus tools for movie-dubbing speech synthesis.

The package covers the full desk workflow around a dubbed-speech corpus:
WAV ingestion and preprocessing, spectral/cepstral/pitch features, the
MCD / MCD-DTW / length-weighted MCD-DTW metric family, embedding-centroid
identity and emotion accuracy, MOS aggregation, and SRT-driven corpus
construction with splits and statistics.
"""

__version__ = "0.1.0"

from .audio import (Waveform, pad_to_length, read_wav, resample, to_mono,
                    write_wav)
from .dsp import (EnergyTrack, FrameParams, MelSpectrogram, MfccSequence,
                  PitchTrack, Spectrogram, energy_track, mel_filterbank,
                  mel_spectrogram, mfcc, pitch_stats, pitch_track,
                  stft_magnitude)
from .metrics import (AlignmentResult, MetricReport, PairEntry, PairMetrics,
                      PipelineConfig, dtw_align, evaluate_corpus, evaluate_pair,
                      frame_distance, load_pair_manifest, mcd, mcd_dtw,
                      mcd_dtw_sl)
from .scoring import (CentroidModel, EmbeddingSet, MosSummary, accuracy,
                      build_centroids, classify, load_embeddings, load_ratings,
                      mos_aggregate)
from .srt import SrtEntry, parse_srt, serialize_srt
from .corpus import (ClipPlan, ClipRecord, CorpusStats, EMOTIONS,
                     SplitAssignment, build_clip_plan, corpus_stats,
                     load_manifest, split_dataset)

__all__ = [
    "__version__",
    # audio
    "Waveform", "read_wav", "write_wav", "to_mono", "resample", "pad_to_length",
    # dsp
    "FrameParams", "Spectrogram", "MelSpectrogram", "MfccSequence", "PitchTrack",
    "EnergyTrack", "stft_magnitude", "mel_filterbank", "mel_spectrogram", "mfcc",
    "energy_track", "pitch_track", "pitch_stats",
    # metrics
    "AlignmentResult", "PairMetrics", "MetricReport", "PipelineConfig",
    "PairEntry", "frame_distance", "mcd", "dtw_align", "mcd_dtw", "mcd_dtw_sl",
    "evaluate_pair", "evaluate_corpus", "load_pair_manifest",
    # scoring
    "EmbeddingSet", "CentroidModel", "MosSummary", "load_embeddings",
    "build_centroids", "classify", "accuracy", "mos_aggregate", "load_ratings",
    # corpus
    "SrtEntry", "parse_srt", "serialize_srt", "ClipRecord", "ClipPlan",
    "CorpusStats", "SplitAssignment", "EMOTIONS", "build_clip_plan",
    "corpus_stats", "load_manifest", "split_dataset",
]
