"""tsnet: visibility-graph and scaling analysis of univariate time series.

Convert a series into its natural visibility graph, then measure degree
structure, power-law tails, clustering, assortativity, average path
length growth, and long-range correlation (DFA Hurst exponents).
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateFit,
    DisconnectedGraph,
    EmptySeries,
    InsufficientTailPoints,
    InvalidParam,
    MissingColumn,
    NetworkError,
    ParseError,
    ScaleOutOfRange,
    MomentOverflow,
    SeriesTooShort,
    TsnetError,
    Unavailable,
    UnrecognizedFormat,
    ZeroDegreeVariance,
)
from .series import SummaryStats, TimeSeries, from_csv, summary
from .visibility import VisibilityGraph, build_fast, build_naive
from .dfa import (
    DfaResult,
    classify_persistence,
    default_scales,
    dfa_fluctuation,
    fit_hurst,
)
from .netstats import (
    ClusteringReport,
    DegreeDistribution,
    DegreeTailFit,
    SmallWorldCurve,
    all_pairs_average_path,
    assortativity,
    clustering,
    default_prefix_sizes,
    degree_distribution,
    fit_powerlaw_tail,
    small_world_curve,
    small_world_verdict,
)
from .generators import KINDS, GeneratorSpec, generate
from .report import build_report, canonical_json, run_stages

__all__ = [
    "__version__",
    "TsnetError",
    "EmptySeries",
    "SeriesTooShort",
    "MomentOverflow",
    "MissingColumn",
    "ParseError",
    "ScaleOutOfRange",
    "DegenerateFit",
    "InsufficientTailPoints",
    "ZeroDegreeVariance",
    "DisconnectedGraph",
    "InvalidParam",
    "NetworkError",
    "UnrecognizedFormat",
    "Unavailable",
    "TimeSeries",
    "SummaryStats",
    "from_csv",
    "summary",
    "VisibilityGraph",
    "build_naive",
    "build_fast",
    "DfaResult",
    "dfa_fluctuation",
    "fit_hurst",
    "default_scales",
    "classify_persistence",
    "DegreeDistribution",
    "DegreeTailFit",
    "ClusteringReport",
    "SmallWorldCurve",
    "degree_distribution",
    "fit_powerlaw_tail",
    "clustering",
    "assortativity",
    "all_pairs_average_path",
    "small_world_curve",
    "small_world_verdict",
    "default_prefix_sizes",
    "GeneratorSpec",
    "generate",
    "KINDS",
    "run_stages",
    "build_report",
    "canonical_json",
]
