"""Run configuration: a single versioned JSON document.

Each section parses straight into the type that acts on it. The data,
optimizer, strategies and training sections are read field by field from
their dataclasses: each key's default and type are its field's.

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
from dataclasses import MISSING, dataclass, field, fields

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


# each annotation a section's dataclass may use, as a string, and the
# JSON type a value for it is read from
_TYPES = {"str": str, "bool": bool, "int": int, "int | None": int, "float": (int, float),
          "tuple[str, ...]": list}


def _typed(section: str, key: str, value, annotation: str):
    """value as a field annotated annotation holds it: an int becomes a
    float where a float goes, a list of strings a tuple, and a bool is no
    number."""
    where = f"config {section}.{key}"
    if value is None and annotation == "int | None":
        return None
    if annotation == "tuple[str, ...]":
        if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
            raise SchemaError(f"{where} must be a list of strings")
        return tuple(value)
    if isinstance(value, bool) and annotation != "bool":
        raise SchemaError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, _TYPES[annotation]):
        raise SchemaError(f"{where}: bad type {type(value).__name__}")
    if annotation == "float":
        try:
            return float(value)
        except OverflowError:
            raise SchemaError(f"{where}: an integer too large for a float") from None
    return value


def _section(cls, section: str, doc):
    """cls built from the config section's keys, one per field: a key
    left out takes the field's default, and a field without one is
    required."""
    declared = fields(cls)
    _check_keys(section, doc, [f.name for f in declared])
    for f in declared:
        if f.name not in doc and f.default is MISSING:
            raise SchemaError(f"config {section}.{f.name} is required")
    return cls(**{f.name: _typed(section, f.name, doc[f.name], f.type)
                  for f in declared if f.name in doc})


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

    def __post_init__(self) -> None:
        if self.mode not in ("lags", "nwp"):
            raise SchemaError(f"config data.mode must be 'lags' or 'nwp', got {self.mode!r}")
        if self.mode == "nwp" and not self.feature_cols:
            raise SchemaError("config data.feature_cols is required in nwp mode")
        if self.lag < 1 or self.horizon < 1 or self.horizon_alignment < 0:
            raise SchemaError("config data: lag/horizon must be >= 1, alignment >= 0")


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

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise SchemaError("config training.epochs must be >= 1")
        if self.seed < 0:
            raise SchemaError("config training.seed must be >= 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise SchemaError(
                "config training.batch_size must be >= 1 (leave it out for full batch)"
            )
        if self.early_stop_patience is not None and self.early_stop_patience < 0:
            raise SchemaError("config training.early_stop_patience must be >= 0")


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
    split = tuple(_typed("split", str(i), r, "float") for i, r in enumerate(split))
    data = _section(DataConfig, "data", doc["data"])
    lags = data.mode == "lags"
    model = _parse_model(doc.get("model", {}), data.lag if lags else len(data.feature_cols),
                         "data.lag" if lags else "data.feature_cols")
    optimizer = _section(OptimizerConfig, "optimizer", doc.get("optimizer", {}))
    training = _section(TrainingSection, "training", doc.get("training", {}))
    strategies = doc.get("strategies", {})
    horizon = ("strategies", "total_epochs")
    if isinstance(strategies, dict) and strategies.get("total_epochs") is None:
        strategies = {**strategies, "total_epochs": training.epochs}
        horizon = ("training", "epochs")
    strategies = _section(StrategyConfig, "strategies", strategies)
    if strategies.cosine_lr:  # the schedule divides by its horizon as a float
        _typed(*horizon, strategies.total_epochs, "float")
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
