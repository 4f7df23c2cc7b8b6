"""parse_config builds the optimizer, strategy and loss types directly."""

import re

import numpy as np
import pytest

from windcast.config import parse_config
from windcast.errors import SchemaError
from windcast.metrics import DEFAULT_QUANTILE_LEVELS
from windcast.network import Architecture, Loss
from windcast.optim import OptimizerConfig, StrategyConfig

DATA = {"path": "wind.csv", "timestamp_col": "timestamp", "target_col": "power"}


def test_sections_parse_into_their_types():
    config = parse_config({
        "data": DATA,
        "model": {"loss": "pinball", "quantile_levels": [0.1, 0.5, 0.9]},
        "optimizer": {"kind": "nadam", "beta1": 0.8, "fixed_lr": 1},
        "strategies": {"cosine_lr": True, "noise_tau": 0.001},
        "training": {"epochs": 7},
    })
    assert config.optimizer == OptimizerConfig("nadam", beta1=0.8, fixed_lr=1.0)
    assert type(config.optimizer.fixed_lr) is float
    assert config.strategies == StrategyConfig(cosine_lr=True, noise_tau=0.001, total_epochs=7)
    assert config.model.loss == Loss("pinball", (0.1, 0.5, 0.9))


def test_defaults():
    config = parse_config({"data": DATA})
    assert config.optimizer == OptimizerConfig()
    assert config.strategies == StrategyConfig(total_epochs=100)
    assert config.model.loss == Loss("mse")
    assert config.split == (0.8, 0.1, 0.1)
    pinball = parse_config({"data": DATA, "model": {"loss": "pinball"}}).model.loss
    assert pinball == Loss("pinball", DEFAULT_QUANTILE_LEVELS)


def test_total_epochs_resolves_to_training_epochs_unless_set():
    doc = {"data": DATA, "training": {"epochs": 30}}
    assert parse_config(doc).strategies.total_epochs == 30
    doc["strategies"] = {"total_epochs": 45}
    assert parse_config(doc).strategies.total_epochs == 45


def test_zero_epochs_names_the_key_that_was_set():
    with pytest.raises(SchemaError, match=r"^config training\.epochs must be >= 1$"):
        parse_config({"data": DATA, "training": {"epochs": 0}})


def test_mse_ignores_quantile_levels():
    doc = {"data": DATA, "model": {"loss": "mse", "quantile_levels": [0.2, 0.8]}}
    assert parse_config(doc).model.loss == Loss("mse")


@pytest.mark.parametrize("section, body", [
    ("optimizer", {"kind": "sgd"}),
    ("model", {"loss": "huber"}),
    ("model", {"hidden_activation": "swish"}),
    ("model", {"hidden_sizes": 16}),
    ("strategies", {"initial_lr": 0}),
    ("training", []),
    ("training", {"seed": -3}),
    ("strategies", {"noise_seed": -1}),
    ("training", {"epochs": 0}),
])
def test_bad_values_rejected_at_parse(section, body):
    with pytest.raises(SchemaError):
        parse_config({"data": DATA, section: body})


@pytest.mark.parametrize("data, hidden, loss, accepted", [
    ({"mode": "lags", "lag": 2149}, 4649, "mse", True),  # 2149 -> h -> 1: the cap exactly
    ({"mode": "lags", "lag": 2}, 3_333_333, "mse", False),  # the inputs count
    ({"mode": "nwp", "feature_cols": ["a"]}, 3_333_333, "pinball", False),  # so do the outputs
    ({"mode": "lags", "lag": 48}, 1_000_000_000, "mse", False),
])
def test_parameter_cap_checked_at_parse(data, hidden, loss, accepted):
    doc = {"data": {**DATA, **data}, "model": {"hidden_sizes": [hidden], "loss": loss}}
    if accepted:
        assert parse_config(doc).model.architecture.layer_sizes[1:-1] == (hidden,)
        return
    with pytest.raises(SchemaError, match=r"^config model\.hidden_sizes: .* above the cap") as exc:
        parse_config(doc)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("data, hidden, key", [
    # 1 -> h -> 1: within the parameter cap
    ({"mode": "lags", "lag": 1}, 3_333_333, "model.hidden_sizes"),
    # the input layer counts, and is set by the data section
    ({"mode": "lags", "lag": 8193}, 1, "data.lag"),
    ({"mode": "nwp", "feature_cols": [f"f{i}" for i in range(8193)]}, 1, "data.feature_cols"),
])
def test_layer_width_cap_checked_at_parse(data, hidden, key, monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "array", no_arrays)
    monkeypatch.setattr(np, "empty", no_arrays)
    doc = {"data": {**DATA, **data}, "model": {"hidden_sizes": [hidden]}}
    with pytest.raises(SchemaError, match=rf"^config {re.escape(key)}: .* units in one "
                                          r"layer, above the cap of 8,192$") as exc:
        parse_config(doc)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("data, loss, sizes", [
    ({}, "mse", (48, 16, 1)),  # lags mode, lag 48 by default
    ({"mode": "nwp", "feature_cols": ["ws", "wd"]}, "pinball", (2, 16, 21)),
])
def test_model_section_holds_its_architecture(data, loss, sizes):
    doc = {"data": {**DATA, **data}, "model": {"loss": loss, "hidden_activation": "tanh"}}
    assert parse_config(doc).model.architecture == Architecture(sizes, "tanh", "identity")
