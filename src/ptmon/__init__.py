"""Certified runtime monitoring of past-time signal temporal logic.

The package turns a predictor's guesses about a system's recent past into
*certified* statements about temporal-logic formulas: a calibrated monitor
emits a lower bound on each formula's robustness that holds with a
user-chosen probability, and one calibration can be reused across every
formula of the supported fragment.

Layout:

* :mod:`ptmon.logic` — formula types, parser, printer, horizons.
* :mod:`ptmon.robustness` — episodes, robustness evaluation, basis vectors.
* :mod:`ptmon.fragment` — basis layouts (atom dictionaries, predicate history),
  min/max decoders, compilation.
* :mod:`ptmon.conformal` — split-conformal calibration and certified bounds.
* :mod:`ptmon.monitors` — streaming and whole-episode certification, verdicts.
* :mod:`ptmon.benchmark` — crossroad scenario, predictor stubs, dataset I/O.
* :mod:`ptmon.metrics` — certification quality metrics and reports.
* :mod:`ptmon.cli` — the ``ptmon`` command-line tool.
"""

from .benchmark import (
    DEFAULT_INTERVALS,
    PREDICATE_NAMES,
    CrossroadConfig,
    PredictorStub,
    generate_dataset,
    load_manifest,
    load_split,
    simulate_episode,
)
from .conformal import (
    CalibratedMonitor,
    ScoreCache,
    ScoreConfig,
    calibrate,
    certified_lower_bound,
    certified_lower_bounds,
    estimate_sigma,
    interval_propagate,
    load_monitor,
    observer_calibrate,
    predicted_basis,
    radius_for_support,
    sample_level2_time,
    save_monitor,
    score_matrix,
    split_quantile,
)
from .fragment import (
    AtomicDictionary,
    Decoder,
    HistoryLayout,
    build_depth1_dictionary,
    compile_history_decoder,
    compile_semantic_decoder,
    decode,
    decode_series,
)
from .logic import (
    Always,
    And,
    Eventually,
    Formula,
    FormulaSyntaxError,
    NotInFragmentError,
    Or,
    Predicate,
    TimeInterval,
    format_formula,
    horizon,
    parse_formula,
)
from .monitors import (
    Label,
    MonitorVerdict,
    RollingBuffer,
    observer_certify,
    rolling_certify,
    run_episode,
    run_monitors,
    semantic_certify,
)
from .robustness import (
    BasisKind,
    BasisVector,
    Episode,
    robustness_series,
    semantic_basis_series,
)

__version__ = "0.1.0"

__all__ = [
    "Always",
    "And",
    "AtomicDictionary",
    "BasisKind",
    "BasisVector",
    "CalibratedMonitor",
    "CrossroadConfig",
    "DEFAULT_INTERVALS",
    "Decoder",
    "Episode",
    "Eventually",
    "Formula",
    "FormulaSyntaxError",
    "HistoryLayout",
    "Label",
    "MonitorVerdict",
    "NotInFragmentError",
    "Or",
    "PREDICATE_NAMES",
    "Predicate",
    "PredictorStub",
    "RollingBuffer",
    "ScoreCache",
    "ScoreConfig",
    "TimeInterval",
    "build_depth1_dictionary",
    "calibrate",
    "certified_lower_bound",
    "certified_lower_bounds",
    "compile_history_decoder",
    "compile_semantic_decoder",
    "decode",
    "decode_series",
    "estimate_sigma",
    "format_formula",
    "generate_dataset",
    "horizon",
    "interval_propagate",
    "load_manifest",
    "load_monitor",
    "load_split",
    "observer_calibrate",
    "observer_certify",
    "parse_formula",
    "predicted_basis",
    "radius_for_support",
    "robustness_series",
    "rolling_certify",
    "run_episode",
    "run_monitors",
    "sample_level2_time",
    "save_monitor",
    "score_matrix",
    "semantic_basis_series",
    "semantic_certify",
    "simulate_episode",
    "split_quantile",
    "__version__",
]
