"""Time-frequency feature extraction with hop-size wavelet transforms.

The package computes full continuous wavelet transforms, a strided
variant that evaluates coefficients only every ``hop`` samples, a
decimate-then-transform variant, and a dyadic filter-bank DWT, plus
scalogram rendering, persistence, and a timing harness comparing the
computational cost of the paths.
"""

from .bench import BenchReport, bench_single, extrapolate_dataset, reports_to_jsonl
from .dwt import DB4, HAAR, DwtDecomposition, FilterBank, dwt_decompose, dwt_scalogram
from .errors import (
    CoefficientOverflow,
    DegenerateLabels,
    EmptySignal,
    InvalidBank,
    InvalidCount,
    InvalidHop,
    InvalidParameter,
    InvalidRange,
    InvalidScale,
    InvalidSpec,
    IoFailure,
    MalformedHeader,
    MalformedRiff,
    NonFiniteSamples,
    TooManyLevels,
    TruncatedPayload,
    UnsupportedEncoding,
    WavehopError,
)
from .metrics import LabeledScores, auc_roc, energy_score
from .scalogram import (
    ScalogramImage,
    magnitude,
    read_matrix_bin,
    render,
    write_csv,
    write_matrix_bin,
    write_pgm,
)
from .signal_io import SignalBuffer, SynthSpec, decimate, read_wav, synthesize, write_wav
from .wavelet import (
    CoefficientMatrix,
    MorletParams,
    ScaleGrid,
    cwt_direct,
    cwt_fft,
    cwth_decimate,
    cwth_strided,
    make_scale_grid,
    sample_wavelet,
    scale_to_frequency,
)

__version__ = "0.1.0"
