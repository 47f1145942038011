"""Measurement/model serialization round-trip tests."""

import json

import numpy as np
import pytest

from repro.codec import decode, encode
from repro.errors import ArtifactError, MeasurementError
from repro.measure.experiment import Measurements
from repro.measure.io import load_measurements, save_measurements
from repro.modeling import Modeler, fit_constant
from repro.modeling.hypothesis import Model


def sample_measurements():
    m = Measurements(parameters=("p", "size"))
    m.add("kernel", (4.0, 10.0), 100.0)
    m.add("kernel", (4.0, 10.0), 102.0)
    m.add("kernel", (8.0, 10.0), 150.0)
    m.add("other", (4.0, 10.0), 7.0)
    m.calls.setdefault("kernel", {})[(4.0, 10.0)] = 3
    return m


class TestMeasurementsRoundTrip:
    def test_dict_round_trip(self):
        original = sample_measurements()
        restored = decode(Measurements, encode(original))
        assert restored.parameters == original.parameters
        assert restored.data == original.data
        assert restored.calls == original.calls

    def test_file_round_trip(self, tmp_path):
        original = sample_measurements()
        path = tmp_path / "meas.json"
        save_measurements(original, path)
        restored = load_measurements(path)
        assert restored.data == original.data

    def test_points_preserved(self):
        original = sample_measurements()
        restored = decode(Measurements, encode(original))
        X0, y0 = original.points("kernel")
        X1, y1 = restored.points("kernel")
        np.testing.assert_allclose(X0, X1)
        np.testing.assert_allclose(y0, y1)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "meas.json"
        save_measurements(sample_measurements(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(MeasurementError):
            load_measurements(path)

    def test_arity_mismatch_rejected(self):
        payload = encode(sample_measurements())
        payload["data"]["kernel"][0][0] = [1.0]
        with pytest.raises(ArtifactError, match="arity"):
            decode(Measurements, payload)

    def test_call_arity_mismatch_rejected(self):
        # The arity check covers the call counts too: a three-value key
        # of a two-parameter study is not silently accepted.
        payload = encode(sample_measurements())
        payload["calls"]["kernel"][0][0] = [1.0, 2.0, 7.0]
        with pytest.raises(ArtifactError, match="arity"):
            decode(Measurements, payload)


class TestModelRoundTrip:
    def test_fitted_model_round_trip(self):
        x = np.array([4.0, 8.0, 16.0, 32.0, 64.0]).reshape(-1, 1)
        y = 3 * x[:, 0] ** 2 + 5
        model = Modeler().model(x, y, ("p",))
        restored = decode(Model, encode(model))
        assert restored.parameters == model.parameters
        np.testing.assert_allclose(
            restored.predict(x), model.predict(x)
        )
        assert restored.stats.rss == model.stats.rss
        assert restored.format() == model.format()

    def test_constant_model_round_trip(self):
        model = fit_constant(
            np.ones((3, 1)), np.array([4.0, 5.0, 6.0]), ("p",)
        )
        restored = decode(Model, encode(model))
        assert restored.is_constant
        assert restored.predict_one({"p": 100}) == pytest.approx(5.0)

    def test_metadata_preserved(self):
        model = fit_constant(np.ones((2, 1)), np.array([1.0, 1.0]), ("p",))
        model.metadata["prior"] = "constant"
        restored = decode(Model, encode(model))
        assert restored.metadata == {"prior": "constant"}
