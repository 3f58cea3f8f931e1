"""Chatter detection in turning vibration signals.

Pipeline: ingest labeled acceleration recordings, decompose them with the
wavelet packet transform or ensemble empirical mode decomposition, extract
statistics of the informative component, rank features by recursive
elimination, and classify chatter vs chatter-free with four built-in
classifiers under within-configuration and transfer-learning protocols.
"""

from .emd import EemdParams, ImfSet, SiftStop, eemd, emd, envelope_mean, find_extrema, sift_imf
from .errors import (
    ChatterDetectError,
    DomainError,
    ParseError,
    ValidationError,
)
from .features import (
    EEMD_FEATURE_NAMES,
    WPT_FEATURE_NAMES,
    eemd_features,
    magnitude_spectrum,
    wpt_features,
)
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    emit_report,
    prepare_eemd_config,
    prepare_from_manifest,
    prepare_wpt_config,
    run_transfer,
    run_transfer_combined,
    run_within,
)
from .ingest import (
    CuttingConfig,
    FilterCascade,
    Label,
    LabelInterval,
    Manifest,
    Segment,
    TimeSeries,
    config_for_stickout,
    cut_segments,
    design_lowpass,
    filter_and_downsample,
    load_labels,
    load_manifest,
    load_timeseries,
    window_segments,
)
from .ml import (
    FeatureRanking,
    LinearModel,
    Standardizer,
    TreeEnsembleModel,
    make_trainer,
    nested_feature_accuracies,
    rfe_rank,
    train_boosting,
    train_forest,
    train_logistic,
    train_svm,
)
from .select import in_band_fraction, select_imf, select_packet
from .wavelet import (
    FrequencyBand,
    PacketTree,
    WaveletFilters,
    db10_filters,
    energy_ratios,
    packet_band,
    predict_informative_packets,
    reconstruct_packet,
    wpt_decompose,
)

__version__ = "0.1.0"
