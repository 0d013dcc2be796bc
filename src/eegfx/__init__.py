"""EEG feature extraction, significance ranking, and subset selection.

Subpackage map:

- :mod:`eegfx.signals` — epochs, records, montage, segmentation
- :mod:`eegfx.time_features` — time-domain feature catalog, including
  the shared ``moments`` kernel
- :mod:`eegfx.freq_features` — Welch PSD and spectral features
- :mod:`eegfx.wavelets` — DWT cascade and sub-band features
- :mod:`eegfx.evaluation` — KDE Bayes error, significance, epoch detection metrics
- :mod:`eegfx.cfs` — correlation-based feature selection
- :mod:`eegfx.edf`, :mod:`eegfx.annotations`, :mod:`eegfx.synth` — I/O & synthesis
- :mod:`eegfx.pipeline` — record -> feature table extraction through one
  feature registry, with hemisphere means over montage sides
- :mod:`eegfx.bench` — runtime-scaling slopes of feature functions
- :mod:`eegfx.cli` — extract | evaluate | select | synth | bench
"""

__version__ = "0.1.0"

from eegfx.signals import (  # noqa: F401
    DEFAULT_MONTAGE,
    Epoch,
    EpochLabel,
    Montage,
    Record,
    label_epoch,
    segment,
)
from eegfx.time_features import (  # noqa: F401
    StatSummary,
    approximate_entropy,
    average_power,
    box_counting_fd,
    dfa,
    distribution_entropy,
    energy,
    fuzzy_entropy,
    higuchi_fd,
    hjorth,
    hurst_exponent,
    line_length,
    local_extrema,
    moments,
    nonlinear_energy,
    permutation_entropy,
    rms,
    sample_entropy,
    shannon_entropy,
    stat_summary,
    svd_entropy,
    template_entropies,
    weighted_permutation_entropy,
    zero_crossings,
)
from eegfx.freq_features import (  # noqa: F401
    Psd,
    iwbw,
    iwmf,
    median_frequency,
    peak_frequency,
    psd_welch,
    sef,
    spectral_entropy,
)
from eegfx.wavelets import (  # noqa: F401
    WAVELETS,
    WaveletDecomposition,
    dwt,
    idwt,
    subband_features,
)
from eegfx.evaluation import (  # noqa: F401
    SIGNIFICANCE_THRESHOLD,
    DetectionCounts,
    KdeModel,
    SignificanceReport,
    bayes_error,
    epoch_metrics,
    err0,
    feature_significance,
    fit_kde,
    improvement_rate,
    significance_csv,
)
from eegfx.cfs import (  # noqa: F401
    MeritTrace,
    discretize,
    forward_search,
    merit,
    symmetric_correlation,
)
from eegfx.feature_table import FeatureTable  # noqa: F401
from eegfx.edf import (  # noqa: F401
    EdfHeader,
    EdfSignal,
    read_edf,
    read_edf_header,
    write_edf,
)
from eegfx.annotations import (  # noqa: F401
    merge_intervals,
    parse_chbmit_summary,
    read_annotations,
    write_annotations,
)
from eegfx.synth import SynthSpec, synth_record  # noqa: F401
from eegfx.config import RunConfig  # noqa: F401
from eegfx.pipeline import DEFAULT_FEATURES, FEATURE_CATALOG, extract  # noqa: F401
from eegfx.bench import BenchResult, bench_csv, run_bench  # noqa: F401
