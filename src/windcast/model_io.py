"""Saving and loading trained models as JSON.

The document carries the architecture, every weight and bias, the scaler
bounds, lag/feature bookkeeping and the training loss. The loss is held
as one network.Loss and written as three keys derived from it: kind
("point" for mse, "quantile" for pinball), loss_kind and quantile_levels.
load_model reads all three and rejects a file whose keys disagree.
horizon_alignment, an nwp set's target offset, is written only when it is
not 0, the value a file without it loads as, so a default model's bytes
and older files stay as they were.
Floats are written with their shortest round-trip representation, so
save -> load reproduces parameters bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import atomic_write_text, dump_json, read_json
from .data import Scaler
from .errors import NonFiniteForecastError, SchemaError
from .network import Architecture, Loss, Network, infer, predict_quantiles

FORMAT_NAME = "windcast-model"
SCHEMA_VERSION = 1
KINDS = {"point": "mse", "quantile": "pinball"}  # model kind -> loss kind


@dataclass
class ModelBundle:
    """Everything needed to turn raw series values into predictions."""

    network: Network
    scaler: Scaler
    target_name: str
    feature_names: tuple[str, ...]
    loss: Loss = Loss()
    lag: int | None = None
    horizon: int = 1
    horizon_alignment: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_outputs = self.network.architecture.n_outputs
        if n_outputs != self.loss.n_outputs:
            raise SchemaError(
                f"{self.kind} model needs {self.loss.n_outputs} outputs, network has {n_outputs}"
            )
        n_inputs = self.network.architecture.n_inputs  # a lags model has one input per lag
        for what, count in (("feature names", len(self.feature_names)), ("lags", self.lag)):
            if count not in (None, n_inputs):
                raise SchemaError(f"{count} {what} for a network of {n_inputs} inputs")

    @property
    def kind(self) -> str:
        """'quantile' for a pinball loss, 'point' for mse."""
        return "quantile" if self.loss.kind == "pinball" else "point"

    @property
    def quantile_levels(self) -> tuple[float, ...]:
        return self.loss.levels

    def forecast(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The scaled (n, k) forecast of x's rows, sorted per row for a quantile
        model, and its point column: the one output or the level nearest 0.5.
        Every command forecasts here, on network.infer's fixed blocks; a
        forecast that is not finite raises NonFiniteForecastError."""
        levels = self.quantile_levels
        with np.errstate(over="ignore", invalid="ignore"):
            if levels:
                values = predict_quantiles(self.network, x, levels).values
            else:
                values = infer(self.network, x)
        if not np.isfinite(values).all():
            bad = float(values[~np.isfinite(values)][0])
            raise NonFiniteForecastError(
                f"the model forecasts {bad!r}, not a finite value: its parameters "
                "overflow float64 arithmetic"
            )
        if not levels:
            return values, values[:, 0]
        return values, values[:, int(np.argmin(np.abs(np.subtract(levels, 0.5))))]


def save_model(path: str, bundle: ModelBundle) -> None:
    doc = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "architecture": {
            "layer_sizes": list(bundle.network.architecture.layer_sizes),
            "hidden_activation": bundle.network.architecture.hidden_activation,
            "output_activation": bundle.network.architecture.output_activation,
        },
        "kind": bundle.kind,
        "loss_kind": bundle.loss.kind,
        "quantile_levels": list(bundle.quantile_levels),
        "lag": bundle.lag,
        "horizon": bundle.horizon,
        "target_name": bundle.target_name,
        "feature_names": list(bundle.feature_names),
        "scaler": bundle.scaler.to_dict(),
        "weights": [w.tolist() for w in bundle.network.weights],
        "biases": [b.tolist() for b in bundle.network.biases],
        "metadata": bundle.metadata,
    }
    if bundle.horizon_alignment:
        doc["horizon_alignment"] = bundle.horizon_alignment
    atomic_write_text(path, dump_json(doc))


def _numbers(name: str, value) -> np.ndarray:
    """A nested list of finite numbers as a float array."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # overflow: an integer too large
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise SchemaError(f"{name} must hold finite numbers only")
    return arr


def _scaler(doc) -> Scaler:
    """The scaler object: each column's [min, max], two finite numbers."""
    if not isinstance(doc, dict):
        raise SchemaError("scaler must be an object of column bounds")
    for name, bounds in doc.items():
        if _numbers(f"scaler bounds of {name!r}", bounds).shape != (2,):
            raise SchemaError(f"scaler bounds of {name!r} must be [min, max]")
    return Scaler.from_dict(doc)


def _parse_bundle(doc) -> ModelBundle:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise SchemaError(f"not a {FORMAT_NAME} file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    for key in ("architecture", "kind", "target_name", "feature_names",
                "scaler", "weights", "biases"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    arch = doc["architecture"]
    keys = ("layer_sizes", "hidden_activation", "output_activation")
    if not isinstance(arch, dict) or not set(keys) <= arch.keys():
        raise SchemaError(f"architecture must be an object with keys {keys}")
    sizes = arch["layer_sizes"]
    if not isinstance(sizes, list) or any(type(n) is not int for n in sizes):
        raise SchemaError("architecture.layer_sizes must be a list of integers")
    # before any array: this checks the sizes against network.MAX_PARAMETERS
    architecture = Architecture(tuple(sizes), arch["hidden_activation"], arch["output_activation"])
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError(f"unknown model kind {kind!r}")
    loss_kind = doc.get("loss_kind", KINDS[kind])
    if loss_kind != KINDS[kind]:
        raise SchemaError(f"a {kind} model cannot have loss_kind {loss_kind!r}")
    weights, biases = doc["weights"], doc["biases"]
    if not isinstance(weights, list) or not isinstance(biases, list):
        raise SchemaError("weights and biases must be lists")
    names = doc["feature_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise SchemaError("feature_names must be a list of strings")
    horizon = doc.get("horizon", 1)
    if type(horizon) is not int or horizon < 1:
        raise SchemaError(f"horizon must be an integer >= 1, got {horizon!r}")
    alignment = doc.get("horizon_alignment", 0)
    if type(alignment) is not int or alignment < 0:
        raise SchemaError(f"horizon_alignment must be an integer >= 0, got {alignment!r}")
    lag = doc.get("lag")
    if lag is not None and (type(lag) is not int or lag < 1):
        raise SchemaError(f"lag must be null or an integer >= 1, got {lag!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    scaler = _scaler(doc["scaler"])
    target = doc["target_name"]
    if not isinstance(target, str) or target not in scaler.columns:
        raise SchemaError(f"target_name must be a string naming a scaler column, got {target!r}")
    return ModelBundle(
        network=Network(
            architecture,
            [_numbers(f"weights[{k}]", w) for k, w in enumerate(weights)],
            [_numbers(f"biases[{k}]", b) for k, b in enumerate(biases)],
        ),
        scaler=scaler,
        target_name=target,
        feature_names=tuple(names),
        loss=Loss(loss_kind, doc.get("quantile_levels", [])),
        lag=lag,
        horizon=horizon,
        horizon_alignment=alignment,
        metadata=metadata,
    )


def load_model(path: str) -> ModelBundle:
    """Read a model file; every SchemaError names the file."""
    doc = read_json(path)
    try:
        return _parse_bundle(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
