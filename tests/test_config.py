"""parse_config builds the optimizer, strategy and loss types directly."""

import pytest

from windcast.config import parse_config
from windcast.errors import SchemaError
from windcast.metrics import DEFAULT_QUANTILE_LEVELS
from windcast.network import Loss
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
    ({"mode": "lags", "lag": 1}, 3_333_333, "mse", True),  # 1 -> h -> 1: the cap exactly
    ({"mode": "lags", "lag": 2}, 3_333_333, "mse", False),  # the inputs count
    ({"mode": "nwp", "feature_cols": ["a"]}, 3_333_333, "pinball", False),  # so do the outputs
    ({"mode": "lags", "lag": 48}, 1_000_000_000, "mse", False),
])
def test_parameter_cap_checked_at_parse(data, hidden, loss, accepted):
    doc = {"data": {**DATA, **data}, "model": {"hidden_sizes": [hidden], "loss": loss}}
    if accepted:
        assert parse_config(doc).model.hidden_sizes == (hidden,)
        return
    with pytest.raises(SchemaError, match=r"^config model\.hidden_sizes: .* above the cap") as exc:
        parse_config(doc)
    assert exc.value.exit_code == 2
