"""windcast: wind power forecasting with switchable training strategies.

Core pieces: a small dense network with analytic gradients (network), an
Adam-family optimizer with gradient centralization, cosine learning-rate
decay and uniform parameter noise (optim), CSV windowing and splits
(data), deterministic and interval metrics (metrics), permutation
importance and local linear surrogates (explain), and a CLI (cli).
"""

from .data import (
    CsvSchema,
    Scaler,
    SupervisedSet,
    TimeSeriesFrame,
    apply_scaler,
    chronological_split,
    fit_scaler,
    load_csv,
    make_lag_windows,
    make_nwp_set,
)
from .errors import (
    DataError,
    DivergenceError,
    SchemaError,
    ToolkitError,
    UsageError,
)
from .explain import (
    LimeConfig,
    fit_lime,
    generate_perturbations,
    permutation_importance,
)
from .metrics import (
    DEFAULT_QUANTILE_LEVELS,
    IntervalForecast,
    crps_from_quantiles,
    deterministic_report,
    interval_from_quantiles,
    interval_metrics,
    nmae,
    nrmse,
    probabilistic_report,
    quantile_score,
    r2,
)
from .model_io import ModelBundle, load_model, save_model
from .network import (
    Architecture,
    Loss,
    Network,
    QuantileForecast,
    backward,
    forward,
    init_network,
    predict_quantiles,
)
from .optim import (
    Optimizer,
    OptimizerConfig,
    StrategyConfig,
    TrainingTrace,
    centralize_gradient,
    cosine_lr,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "CsvSchema",
    "DEFAULT_QUANTILE_LEVELS",
    "DataError",
    "DivergenceError",
    "IntervalForecast",
    "LimeConfig",
    "Loss",
    "ModelBundle",
    "Network",
    "Optimizer",
    "OptimizerConfig",
    "QuantileForecast",
    "Scaler",
    "SchemaError",
    "StrategyConfig",
    "SupervisedSet",
    "TimeSeriesFrame",
    "ToolkitError",
    "TrainingTrace",
    "UsageError",
    "apply_scaler",
    "backward",
    "centralize_gradient",
    "chronological_split",
    "cosine_lr",
    "crps_from_quantiles",
    "deterministic_report",
    "fit_lime",
    "fit_scaler",
    "forward",
    "generate_perturbations",
    "init_network",
    "interval_from_quantiles",
    "interval_metrics",
    "load_csv",
    "load_model",
    "make_lag_windows",
    "make_nwp_set",
    "nmae",
    "nrmse",
    "permutation_importance",
    "predict_quantiles",
    "probabilistic_report",
    "quantile_score",
    "r2",
    "save_model",
    "train",
]
