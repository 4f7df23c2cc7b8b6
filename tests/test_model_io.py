"""Model files: byte-exact round trips of committed golden files, the three
loss keys derived from one Loss, and rejection of malformed files.

The golden files in tests/data were written by save_model from bundles
built with init_network: a point model 2 -> 3 -> 1 (relu, seed 11, mse)
and a quantile model 2 -> 3 -> 3 (tanh, seed 12, pinball at levels
0.1/0.5/0.9), both with a three-column scaler.
"""

import json
import os

import numpy as np
import pytest

from windcast.errors import SchemaError
from windcast.model_io import load_model, save_model
from windcast.network import Loss, init_network

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = {
    "point": (os.path.join(DATA, "golden_point_model.json"), Loss("mse")),
    "quantile": (
        os.path.join(DATA, "golden_quantile_model.json"),
        Loss("pinball", (0.1, 0.5, 0.9)),
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_round_trip_is_byte_identical(tmp_path, kind):
    path, loss = GOLDEN[kind]
    bundle = load_model(path)
    assert bundle.kind == kind
    assert bundle.loss == loss
    assert bundle.quantile_levels == loss.levels
    out = tmp_path / "model.json"
    save_model(str(out), bundle)
    with open(path, "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_parameters_are_init_network_of_their_seed(kind):
    bundle = load_model(GOLDEN[kind][0])
    net = init_network(bundle.network.architecture, bundle.metadata["seed"])
    assert net.flat.tobytes() == bundle.network.flat.tobytes()


def _edited(tmp_path, kind, edit):
    """A copy of a golden file with edit(doc) applied; returns its path."""
    with open(GOLDEN[kind][0]) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / f"edited_{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _rejected(path, match):
    with pytest.raises(SchemaError, match=match) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert excinfo.value.exit_code == 2


@pytest.mark.parametrize("kind, edit, match", [
    ("point", lambda d: d.update(kind="interval"), "unknown model kind"),
    ("point", lambda d: d.update(kind=["point"]), "unknown model kind"),
    ("point", lambda d: d.update(loss_kind="pinball"), "point model cannot have loss_kind"),
    ("quantile", lambda d: d.update(loss_kind="mse"), "quantile model cannot have loss_kind"),
    ("point", lambda d: d.update(quantile_levels=[0.5]), "mse loss takes no quantile levels"),
    ("quantile", lambda d: d.update(quantile_levels=[0.1, 0.9]), "needs 2 outputs"),
])
def test_disagreeing_loss_keys_rejected(tmp_path, kind, edit, match):
    _rejected(_edited(tmp_path, kind, edit), match)


def test_missing_loss_kind_follows_the_model_kind(tmp_path):
    path = _edited(tmp_path, "quantile", lambda d: d.pop("loss_kind"))
    assert load_model(path).loss == GOLDEN["quantile"][1]


def _set_weight(value):
    def edit(doc):
        doc["weights"][0][0][0] = value
    return edit


@pytest.mark.parametrize("kind, edit, match", [
    ("point", _set_weight("abc"), r"weights\[0\] must hold finite numbers"),
    ("point", _set_weight(None), r"weights\[0\] must hold finite numbers"),
    ("point", _set_weight([1.0, 2.0]), r"weights\[0\] must hold finite numbers"),
    ("point", lambda d: d["biases"].__setitem__(1, ["x"]), r"biases\[1\] must hold"),
    ("point", lambda d: d.update(weights=3.0), "weights and biases must be lists"),
    ("point", lambda d: d.update(architecture=[2, 3, 1]), "architecture must be an object"),
    ("point", lambda d: d["architecture"].pop("layer_sizes"), "object with keys"),
    ("point", lambda d: d["architecture"].pop("hidden_activation"), "object with keys"),
    ("quantile", lambda d: d["architecture"].pop("output_activation"), "object with keys"),
    ("point", lambda d: d["architecture"].update(layer_sizes=[2, "3", 1]), "list of integers"),
    ("point", lambda d: d["architecture"].update(layer_sizes=3), "list of integers"),
    ("quantile", lambda d: d.update(quantile_levels=[0.1, "half", 0.9]), "list of numbers"),
    ("quantile", lambda d: d.update(quantile_levels=0.5), "list of numbers"),
])
def test_malformed_file_rejected_naming_it(tmp_path, kind, edit, match):
    _rejected(_edited(tmp_path, kind, edit), match)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(scaler=[["power", 0.0, 10.0]]), "scaler must be an object"),
    (lambda d: d["scaler"].update(power=[0.0]), r"scaler bounds of 'power' must be \[min, max\]"),
    (lambda d: d["scaler"].update(ws="wide"), "scaler bounds of 'ws' must hold finite numbers"),
    (lambda d: d.update(feature_names=2), "feature_names must be a list of strings"),
    (lambda d: d.update(feature_names=["ws", 3]), "feature_names must be a list of strings"),
    (lambda d: d.update(horizon=1.5), "horizon must be an integer >= 1"),
    (lambda d: d.update(horizon="1"), "horizon must be an integer >= 1"),
    (lambda d: d.update(horizon=0), "horizon must be an integer >= 1"),
    (lambda d: d.update(horizon_alignment=-1), "horizon_alignment must be an integer >= 0"),
    (lambda d: d.update(horizon_alignment=True), "horizon_alignment must be an integer >= 0"),
    (lambda d: d.update(target_name=5), "target_name must be a string naming a scaler column"),
    (lambda d: d.update(target_name="energy"), "target_name must be a string naming a scaler"),
    (lambda d: d.update(lag="x"), "lag must be null or an integer >= 1"),
    (lambda d: d.update(lag=-3), "lag must be null or an integer >= 1"),
    (lambda d: d.update(metadata=3), "metadata must be an object"),
    (lambda d: d.update(feature_names=["ws"]), "1 feature names for a network of 2 inputs"),
    (lambda d: d.update(feature_names=["ws", "wd", "ws"]), "3 feature names for a network of 2"),
    (lambda d: d.update(lag=3), "3 lags for a network of 2 inputs"),
    (lambda d: d.update(lag=1), "1 lags for a network of 2 inputs"),
])
def test_malformed_scaler_names_and_horizon_rejected(tmp_path, edit, match):
    _rejected(_edited(tmp_path, "point", edit), match)


def test_horizon_alignment_round_trips_and_defaults_to_zero(tmp_path):
    bundle = load_model(GOLDEN["point"][0])  # a file without the key
    assert bundle.horizon_alignment == 0
    bundle.horizon_alignment = 3
    out = str(tmp_path / "aligned.json")
    save_model(out, bundle)
    assert load_model(out).horizon_alignment == 3


def test_parameter_cap_checked_before_any_array(tmp_path, monkeypatch):
    def edit(doc):
        doc["architecture"]["layer_sizes"] = [2, 1_000_000_000, 1]
    path = _edited(tmp_path, "point", edit)

    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "array", no_arrays)
    monkeypatch.setattr(np, "empty", no_arrays)
    _rejected(path, "above the cap of 10,000,000")


def test_layer_width_cap_checked_before_any_array(tmp_path, monkeypatch):
    def edit(doc):
        doc["architecture"]["layer_sizes"] = [1, 3_333_333, 1]  # within the parameter cap
    path = _edited(tmp_path, "point", edit)

    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "array", no_arrays)
    monkeypatch.setattr(np, "empty", no_arrays)
    _rejected(path, "3,333,333 units in one layer, above the cap of 8,192")
