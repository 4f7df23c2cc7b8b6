"""Run configuration: a single versioned JSON document.

Each section parses straight into the type that acts on it:

* data -> DataConfig (source CSV and featurization mode);
* model -> ModelConfig: one network.Architecture, its inputs set by the
  data section, and one network.Loss from the loss and quantile_levels
  keys; an mse loss ignores quantile_levels;
* optimizer -> optim.OptimizerConfig;
* strategies -> optim.StrategyConfig (the three optional training
  add-ons); total_epochs defaults to training.epochs;
* training -> TrainingSection (loop controls and seed);
* split -> three train/validation/test ratios, which
  data.chronological_split checks against each other.

Every other value is checked when the document is parsed, so a bad
config fails the same way whichever command loads it; a trained model's
commands then check the data section against the model
(pipeline.build_dataset), before the CSV is read. Unknown keys are
rejected so typos fail loudly. CLI flags may override individual fields
after load.

Example document:

{
  "schema_version": 1,
  "data": {
    "path": "wind.csv",
    "timestamp_col": "timestamp",
    "target_col": "power",
    "mode": "lags",
    "lag": 48,
    "horizon": 1
  },
  "model": {"hidden_sizes": [16], "loss": "mse"},
  "optimizer": {"kind": "adam", "fixed_lr": 0.001},
  "strategies": {"centralize": true, "cosine_lr": true, "initial_lr": 0.1,
                 "noise_tau": 0.0001, "noise_seed": 7},
  "training": {"epochs": 200, "seed": 0},
  "split": [0.8, 0.1, 0.1]
}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import InvalidArchitectureError, SchemaError, UsageError
from .metrics import DEFAULT_QUANTILE_LEVELS
from .network import (
    HIDDEN_ACTIVATIONS, MAX_LAYER_WIDTH, OUTPUT_ACTIVATIONS, Architecture, Loss,
)
from .optim import OptimizerConfig, StrategyConfig

CONFIG_SCHEMA_VERSION = 1


def _check_keys(section: str, doc, allowed) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"config section {section!r} must be an object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise SchemaError(f"config section {section!r}: unknown keys {sorted(unknown)}")


def _typed(section: str, key: str, value, types, allow_none=False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise SchemaError(f"config {section}.{key}: expected a number, got a boolean")
    if not isinstance(value, types):
        raise SchemaError(f"config {section}.{key}: bad type {type(value).__name__}")
    return value


def _number(section: str, key: str, value) -> float:
    return float(_typed(section, key, value, (int, float)))


@dataclass
class DataConfig:
    path: str
    timestamp_col: str
    target_col: str
    mode: str = "lags"  # "lags" or "nwp"
    feature_cols: tuple[str, ...] = ()
    lag: int = 48
    horizon: int = 1
    horizon_alignment: int = 0


@dataclass
class ModelConfig:
    architecture: Architecture  # inputs from the data section, outputs from the loss
    loss: Loss = Loss()


@dataclass
class TrainingSection:
    epochs: int = 100
    batch_size: int | None = None
    early_stop_patience: int | None = None
    seed: int = 0


@dataclass
class RunConfig:
    data: DataConfig
    model: ModelConfig
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    strategies: StrategyConfig = field(default_factory=StrategyConfig)
    training: TrainingSection = field(default_factory=TrainingSection)
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    base_dir: str = "."

    @property
    def data_path(self) -> str:
        """Data path resolved relative to the config file's directory."""
        if os.path.isabs(self.data.path):
            return self.data.path
        return os.path.join(self.base_dir, self.data.path)


def _parse_data(doc: dict) -> DataConfig:
    _check_keys("data", doc, (
        "path", "timestamp_col", "target_col", "mode", "feature_cols",
        "lag", "horizon", "horizon_alignment",
    ))
    for key in ("path", "timestamp_col", "target_col"):
        if key not in doc:
            raise SchemaError(f"config data.{key} is required")
    feature_cols = doc.get("feature_cols", [])
    if not isinstance(feature_cols, list) or not all(isinstance(c, str) for c in feature_cols):
        raise SchemaError("config data.feature_cols must be a list of strings")
    cfg = DataConfig(
        path=_typed("data", "path", doc["path"], str),
        timestamp_col=_typed("data", "timestamp_col", doc["timestamp_col"], str),
        target_col=_typed("data", "target_col", doc["target_col"], str),
        mode=doc.get("mode", "lags"),
        feature_cols=tuple(feature_cols),
        lag=_typed("data", "lag", doc.get("lag", 48), int),
        horizon=_typed("data", "horizon", doc.get("horizon", 1), int),
        horizon_alignment=_typed(
            "data", "horizon_alignment", doc.get("horizon_alignment", 0), int
        ),
    )
    if cfg.mode not in ("lags", "nwp"):
        raise SchemaError(f"config data.mode must be 'lags' or 'nwp', got {cfg.mode!r}")
    if cfg.mode == "nwp" and not cfg.feature_cols:
        raise SchemaError("config data.feature_cols is required in nwp mode")
    if cfg.lag < 1 or cfg.horizon < 1 or cfg.horizon_alignment < 0:
        raise SchemaError("config data: lag/horizon must be >= 1, alignment >= 0")
    return cfg


def _parse_model(doc: dict, n_inputs: int, inputs_key: str) -> ModelConfig:
    """The model section, for n_inputs inputs set by the data section's
    inputs_key, which a too-wide input layer is reported under."""
    _check_keys("model", doc, (
        "hidden_sizes", "hidden_activation", "output_activation",
        "loss", "quantile_levels",
    ))
    hidden = doc.get("hidden_sizes", [16])
    if not isinstance(hidden, list) or not hidden or any(type(s) is not int or s < 1 for s in hidden):
        raise SchemaError("config model.hidden_sizes must be positive integers")
    hidden_act = doc.get("hidden_activation", "relu")
    output_act = doc.get("output_activation", "identity")
    if hidden_act not in HIDDEN_ACTIVATIONS or output_act not in OUTPUT_ACTIVATIONS:
        raise SchemaError(f"config model: hidden_activation must be one of {HIDDEN_ACTIVATIONS}"
                          f" and output_activation one of {OUTPUT_ACTIVATIONS}")
    kind = doc.get("loss", "mse")
    levels = doc.get("quantile_levels")
    if levels is None:
        levels = DEFAULT_QUANTILE_LEVELS
    loss = Loss(kind, levels if kind == "pinball" else ())
    try:  # within network.MAX_PARAMETERS and MAX_LAYER_WIDTH
        arch = Architecture((n_inputs, *hidden, loss.n_outputs), hidden_act, output_act)
    except InvalidArchitectureError as exc:
        key = inputs_key if n_inputs > MAX_LAYER_WIDTH else "model.hidden_sizes"
        raise SchemaError(f"config {key}: {exc}") from None
    return ModelConfig(arch, loss)


def _parse_optimizer(doc: dict) -> OptimizerConfig:
    _check_keys("optimizer", doc, ("kind", "beta1", "beta2", "epsilon", "fixed_lr"))
    return OptimizerConfig(
        kind=doc.get("kind", "adam"),
        beta1=_number("optimizer", "beta1", doc.get("beta1", 0.9)),
        beta2=_number("optimizer", "beta2", doc.get("beta2", 0.999)),
        epsilon=_number("optimizer", "epsilon", doc.get("epsilon", 1e-8)),
        fixed_lr=_number("optimizer", "fixed_lr", doc.get("fixed_lr", 0.001)),
    )


def _parse_strategies(doc: dict, epochs: int) -> StrategyConfig:
    _check_keys("strategies", doc, (
        "centralize", "cosine_lr", "initial_lr", "total_epochs",
        "noise_tau", "noise_seed",
    ))
    total = _typed("strategies", "total_epochs", doc.get("total_epochs"), int, allow_none=True)
    return StrategyConfig(
        centralize=_typed("strategies", "centralize", doc.get("centralize", False), bool),
        cosine_lr=_typed("strategies", "cosine_lr", doc.get("cosine_lr", False), bool),
        initial_lr=_number("strategies", "initial_lr", doc.get("initial_lr", 0.1)),
        total_epochs=epochs if total is None else total,
        noise_tau=_number("strategies", "noise_tau", doc.get("noise_tau", 0.0)),
        noise_seed=_typed("strategies", "noise_seed", doc.get("noise_seed", 0), int),
    )


def _parse_training(doc: dict) -> TrainingSection:
    _check_keys("training", doc, ("epochs", "batch_size", "early_stop_patience", "seed"))
    cfg = TrainingSection(
        epochs=_typed("training", "epochs", doc.get("epochs", 100), int),
        batch_size=_typed("training", "batch_size", doc.get("batch_size"), int, allow_none=True),
        early_stop_patience=_typed(
            "training", "early_stop_patience", doc.get("early_stop_patience"), int, allow_none=True
        ),
        seed=_typed("training", "seed", doc.get("seed", 0), int),
    )
    if cfg.epochs < 1:
        raise SchemaError("config training.epochs must be >= 1")
    if cfg.seed < 0:
        raise SchemaError("config training.seed must be >= 0")
    if cfg.batch_size is not None and cfg.batch_size < 1:
        raise SchemaError("config training.batch_size must be >= 1 (leave it out for full batch)")
    if cfg.early_stop_patience is not None and cfg.early_stop_patience < 0:
        raise SchemaError("config training.early_stop_patience must be >= 0")
    return cfg


def parse_config(doc: dict, base_dir: str = ".") -> RunConfig:
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    _check_keys("<root>", doc, (
        "schema_version", "data", "model", "optimizer", "strategies",
        "training", "split",
    ))
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaError(f"unsupported config schema_version {version!r}")
    if "data" not in doc:
        raise SchemaError("config section 'data' is required")
    split = doc.get("split", [0.8, 0.1, 0.1])
    if not isinstance(split, list) or len(split) != 3:
        raise SchemaError("config split must be a list of three ratios")
    split = tuple(_number("split", str(i), r) for i, r in enumerate(split))
    data = _parse_data(doc["data"])
    lags = data.mode == "lags"
    model = _parse_model(doc.get("model", {}), data.lag if lags else len(data.feature_cols),
                         "data.lag" if lags else "data.feature_cols")
    optimizer = _parse_optimizer(doc.get("optimizer", {}))
    training = _parse_training(doc.get("training", {}))
    strategies = _parse_strategies(doc.get("strategies", {}), training.epochs)
    return RunConfig(data, model, optimizer, strategies, training, split, base_dir)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))
