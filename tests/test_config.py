"""parse_config builds the optimizer, strategy and loss types directly."""

import copy
import dataclasses
import random
import re

import numpy as np
import pytest

from windcast.config import (
    _TYPES, DataConfig, RunConfig, TrainingSection, _typed, parse_config,
)
from windcast.errors import SchemaError, ToolkitError
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


KINDS = "('adam', 'nadam', 'rmsprop', 'adamax')"


@pytest.mark.parametrize("doc, text", [
    # required keys
    ({}, "config section 'data' is required"),
    ({"data": {"timestamp_col": "t", "target_col": "p"}}, "config data.path is required"),
    ({"data": {"path": "w", "target_col": "p"}}, "config data.timestamp_col is required"),
    ({"data": {"path": "w", "timestamp_col": "t"}}, "config data.target_col is required"),
    # unknown keys
    ({"data": {**DATA, "lags": 4}}, "config section 'data': unknown keys ['lags']"),
    ({"data": DATA, "optimizer": {"lr": 1}}, "config section 'optimizer': unknown keys ['lr']"),
    ({"data": DATA, "strategies": {"noise": 1}},
     "config section 'strategies': unknown keys ['noise']"),
    ({"data": DATA, "training": {"epoch": 1}}, "config section 'training': unknown keys ['epoch']"),
    # sections that are not objects
    ({"data": []}, "config section 'data' must be an object"),
    ({"data": DATA, "optimizer": 3}, "config section 'optimizer' must be an object"),
    ({"data": DATA, "strategies": None}, "config section 'strategies' must be an object"),
    # a bool, a string or null where a number goes, and other types
    ({"data": DATA, "optimizer": {"beta1": True}},
     "config optimizer.beta1: expected a number, got a boolean"),
    ({"data": DATA, "training": {"epochs": True}},
     "config training.epochs: expected a number, got a boolean"),
    ({"data": {**DATA, "path": True}}, "config data.path: expected a number, got a boolean"),
    ({"data": {**DATA, "lag": "48"}}, "config data.lag: bad type str"),
    ({"data": DATA, "strategies": {"noise_tau": "0"}}, "config strategies.noise_tau: bad type str"),
    ({"data": DATA, "strategies": {"total_epochs": "9"}},
     "config strategies.total_epochs: bad type str"),
    ({"data": DATA, "optimizer": {"fixed_lr": None}},
     "config optimizer.fixed_lr: bad type NoneType"),
    ({"data": DATA, "training": {"epochs": None}}, "config training.epochs: bad type NoneType"),
    ({"data": DATA, "training": {"batch_size": 1.5}}, "config training.batch_size: bad type float"),
    ({"data": DATA, "strategies": {"centralize": 1}}, "config strategies.centralize: bad type int"),
    ({"data": {**DATA, "feature_cols": "ws"}},
     "config data.feature_cols must be a list of strings"),
    ({"data": {**DATA, "feature_cols": [1]}}, "config data.feature_cols must be a list of strings"),
    # the data section's range checks
    ({"data": {**DATA, "lag": 0}}, "config data: lag/horizon must be >= 1, alignment >= 0"),
    ({"data": {**DATA, "horizon": 0}}, "config data: lag/horizon must be >= 1, alignment >= 0"),
    ({"data": {**DATA, "horizon_alignment": -1}},
     "config data: lag/horizon must be >= 1, alignment >= 0"),
    ({"data": {**DATA, "mode": "x"}}, "config data.mode must be 'lags' or 'nwp', got 'x'"),
    ({"data": {**DATA, "mode": 5}}, "config data.mode: bad type int"),
    ({"data": {**DATA, "mode": "nwp"}}, "config data.feature_cols is required in nwp mode"),
    # the training section's
    ({"data": DATA, "training": {"epochs": 0}}, "config training.epochs must be >= 1"),
    ({"data": DATA, "training": {"seed": -1}}, "config training.seed must be >= 0"),
    ({"data": DATA, "training": {"batch_size": 0}},
     "config training.batch_size must be >= 1 (leave it out for full batch)"),
    ({"data": DATA, "training": {"early_stop_patience": -1}},
     "config training.early_stop_patience must be >= 0"),
    # the optimizer's
    ({"data": DATA, "optimizer": {"kind": "sgd"}}, f"optimizer kind must be one of {KINDS}"),
    ({"data": DATA, "optimizer": {"kind": 5}}, "config optimizer.kind: bad type int"),
    ({"data": DATA, "optimizer": {"beta2": 1.0}}, "beta1 and beta2 must lie in [0, 1)"),
    ({"data": DATA, "optimizer": {"epsilon": 0}}, "epsilon must be finite and > 0"),
    ({"data": DATA, "optimizer": {"fixed_lr": float("inf")}}, "fixed_lr must be finite and > 0"),
    # the strategies'
    ({"data": DATA, "strategies": {"initial_lr": 0}}, "initial_lr must be finite and > 0"),
    ({"data": DATA, "strategies": {"total_epochs": 0}}, "total_epochs must be >= 1"),
    ({"data": DATA, "strategies": {"noise_tau": -1}},
     "noise_tau must be >= 0, with 2 * noise_tau finite"),
    ({"data": DATA, "strategies": {"noise_seed": -1}}, "noise_seed must be >= 0"),
    # bad split entries
    ({"data": DATA, "split": [0.8, 0.2]}, "config split must be a list of three ratios"),
    ({"data": DATA, "split": [0.8, "0.1", 0.1]}, "config split.1: bad type str"),
    ({"data": DATA, "split": [True, 0.1, 0.1]}, "config split.0: expected a number, got a boolean"),
])
def test_section_errors_keep_their_text(doc, text):
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert str(exc.value) == text
    assert exc.value.exit_code == 2


def test_a_null_total_epochs_falls_back_to_training_epochs():
    doc = {"data": DATA, "training": {"epochs": 12}, "strategies": {"total_epochs": None}}
    assert parse_config(doc).strategies.total_epochs == 12


@pytest.mark.parametrize("cls", [DataConfig, OptimizerConfig, StrategyConfig, TrainingSection])
def test_every_section_field_has_a_type_rule(cls):
    assert {f.type for f in dataclasses.fields(cls)} <= _TYPES.keys()


@pytest.mark.parametrize("annotation, value, parsed", [
    ("float", 3, 3.0),
    ("float", 0.25, 0.25),
    ("int | None", None, None),
    ("int | None", 4, 4),
    ("tuple[str, ...]", ["a", "b"], ("a", "b")),
    ("bool", False, False),
    ("str", "x", "x"),
])
def test_typed_reads_each_annotation(annotation, value, parsed):
    typed = _typed("s", "k", value, annotation)
    assert typed == parsed and type(typed) is type(parsed)


@pytest.mark.parametrize("build", [
    lambda: DataConfig("wind.csv", "timestamp", "power", lag=0),
    lambda: DataConfig("wind.csv", "timestamp", "power", mode="nwp"),
    lambda: TrainingSection(epochs=0),
    lambda: TrainingSection(batch_size=0),
])
def test_sections_check_themselves_when_built_directly(build):
    with pytest.raises(SchemaError):
        build()


# the README's quick start config, and the same with a quantile model
README_CONFIG = {
    "schema_version": 1,
    "data": {"path": "wind.csv", "timestamp_col": "timestamp", "target_col": "power",
             "mode": "nwp", "feature_cols": ["WS10", "WD10", "WS100", "WD100"]},
    "model": {"hidden_sizes": [16], "loss": "mse"},
    "optimizer": {"kind": "adam", "fixed_lr": 0.2},
    "strategies": {"centralize": True, "cosine_lr": True, "initial_lr": 0.2,
                   "noise_tau": 0.0001, "noise_seed": 5},
    "training": {"epochs": 60, "seed": 1},
}
QUANTILE_CONFIG = {**README_CONFIG, "model": {"hidden_sizes": [16], "loss": "pinball",
                                              "quantile_levels": [0.1, 0.5, 0.9]}}
HUGE = 10 ** 400
VALUES = ["x", True, None, 0, -1, -0.5, 2.5, float("nan"), float("inf"), float("-inf"),
          HUGE, -HUGE, [], {}, [0.5], ["x"]]


def _value(rng):
    return copy.deepcopy(rng.choice(VALUES))  # later mutations may edit it


def _places(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, value in node.items() if isinstance(node, dict) else ():
        yield from _places(value, path + (key,))


def _mutate(doc, rng):
    """doc with one to three of: a key deleted, an unknown key added, a
    value replaced by another type, a negative, NaN, +-inf, a huge
    integer, or an empty list or object."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_places(doc)))
        if not path:
            return _value(rng)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = rng.randrange(4)
        if action == 0 and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == 1 and isinstance(parent, dict):
            parent[f"unknown_{rng.randrange(9)}"] = _value(rng)
        elif action == 2 and isinstance(parent[path[-1]], (int, float)):
            parent[path[-1]] = -parent[path[-1]]
        else:
            parent[path[-1]] = _value(rng)
    return doc


def test_config_fuzz_ends_in_a_config_or_an_exit_code():
    rng = random.Random(20240)
    for case in range(3000):
        doc = _mutate(rng.choice((README_CONFIG, QUANTILE_CONFIG)), rng)
        try:
            config = parse_config(doc)
        except ToolkitError as exc:
            assert exc.exit_code in (1, 2), f"case {case}: {exc!r}"
            continue
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
        assert isinstance(config, RunConfig)
        levels = config.model.loss.levels
        assert all(0.0 < q < 1.0 for q in levels) and list(levels) == sorted(set(levels))
