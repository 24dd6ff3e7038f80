import json

import numpy as np
import pytest

from stealthimpact import numcore
from stealthimpact import scenario as scen
from stealthimpact.sysmodel import DimensionMismatch


@pytest.fixture()
def doc():
    return json.loads(scen.bundled_scenario_path().read_text())


def _dump(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_bundled_scenario_loads(scenario):
    assert scenario.name
    assert scenario.horizon == 10
    assert scenario.epsilon == pytest.approx(0.3)
    assert set(scenario.vulnerabilities) == {"vulnerability_1", "vulnerability_2"}
    v1 = scenario.vulnerabilities["vulnerability_1"]
    assert v1.sensors == (1, 2) and v1.actuators == (2, 3)
    v2 = scenario.vulnerabilities["vulnerability_2"]
    assert v2.sensors == (0,) and v2.actuators == (0, 1)
    assert "dos" in scenario.strategies and "replay_dos" in scenario.strategies
    assert scenario.mc_samples == 100_000
    assert scenario.q_z.shape == (1, 6)
    assert scenario.system.plant.n_u == 4


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(scen.ParseError, match="cannot read"):
        scen.load_scenario(tmp_path / "nope.json")


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"plant": [1, 2,,]}')
    with pytest.raises(scen.ParseError, match="line"):
        scen.load_scenario(path)


def test_non_object_document_rejected(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(scen.SchemaError, match="object"):
        scen.load_scenario(path)


def test_missing_field(tmp_path, doc):
    del doc["plant"]["A"]
    with pytest.raises(scen.SchemaError, match="plant.A"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_indefinite_noise_rejected(tmp_path, doc):
    doc["plant"]["sigma_w"][0][0] = -0.01
    with pytest.raises(numcore.InputError, match="positive definite"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_non_numeric_matrix_rejected(tmp_path, doc):
    doc["plant"]["B"][0][0] = "eight"
    with pytest.raises(scen.SchemaError, match="numeric"):
        scen.load_scenario(_dump(tmp_path, doc))


@pytest.mark.parametrize("entry", [True, False, "0.5", "1", None, [1.0]])
def test_matrix_entries_must_be_numbers(tmp_path, doc, entry):
    # numpy would read booleans and numeric strings as floats
    doc["critical_map"][0][0] = entry
    with pytest.raises(scen.SchemaError, match="critical_map is not a numeric matrix"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_matrix_entry_too_large_for_float(tmp_path, doc):
    doc["plant"]["A"][0][0] = 10**400
    with pytest.raises(scen.SchemaError, match="plant.A is not a numeric matrix"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_dimension_mismatch_is_dimension_error(tmp_path, doc):
    doc["controller"]["L_xhat"] = [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]
    with pytest.raises(DimensionMismatch):
        scen.load_scenario(_dump(tmp_path, doc))


def test_critical_map_column_check(tmp_path, doc):
    doc["critical_map"] = [[1.0, 0.0]]
    with pytest.raises(DimensionMismatch, match="critical_map"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_horizon_and_epsilon_validation(tmp_path, doc):
    bad = dict(doc)
    bad["horizon"] = 0
    with pytest.raises(scen.SchemaError, match="horizon"):
        scen.load_scenario(_dump(tmp_path, bad, "h.json"))
    bad = dict(doc)
    bad["epsilon"] = -0.1
    with pytest.raises(scen.SchemaError, match="epsilon"):
        scen.load_scenario(_dump(tmp_path, bad, "e.json"))
    bad = dict(doc)
    bad["horizon"] = True
    with pytest.raises(scen.SchemaError, match="horizon"):
        scen.load_scenario(_dump(tmp_path, bad, "hb.json"))


def test_vulnerability_index_validation(tmp_path, doc):
    doc["vulnerabilities"]["vulnerability_1"]["sensors"] = [0]
    with pytest.raises(scen.SchemaError, match="out of range"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_vulnerability_index_upper_bound(tmp_path, doc):
    doc["vulnerabilities"]["vulnerability_1"]["actuators"] = [5]
    with pytest.raises(scen.SchemaError, match="out of range"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_vulnerability_duplicate_index(tmp_path, doc):
    doc["vulnerabilities"]["vulnerability_1"]["sensors"] = [2, 2]
    with pytest.raises(scen.SchemaError, match="duplicate"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_vulnerability_bool_index(tmp_path, doc):
    doc["vulnerabilities"]["vulnerability_1"]["sensors"] = [True]
    with pytest.raises(scen.SchemaError, match="integers"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_vulnerability_must_name_channels(tmp_path, doc):
    doc["vulnerabilities"]["vulnerability_1"] = {"sensors": [], "actuators": []}
    with pytest.raises(scen.SchemaError, match="no sensors"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_unknown_strategy_rejected(tmp_path, doc):
    doc["strategies"] = ["dos", "quantum_noise"]
    with pytest.raises(scen.SchemaError, match="quantum_noise"):
        scen.load_scenario(_dump(tmp_path, doc))


def test_mc_defaults_and_validation(tmp_path, doc):
    del doc["mc"]
    loaded = scen.load_scenario(_dump(tmp_path, doc))
    assert loaded.mc_samples == 100_000
    assert loaded.mc_seed == 0
    doc["mc"] = {"samples": -5}
    with pytest.raises(scen.SchemaError, match="mc.samples"):
        scen.load_scenario(_dump(tmp_path, doc, "mc.json"))


def test_one_based_indices_become_zero_based(tmp_path, doc):
    doc["vulnerabilities"] = {"only": {"sensors": [1, 3], "actuators": [4]}}
    loaded = scen.load_scenario(_dump(tmp_path, doc))
    assert loaded.vulnerabilities["only"].sensors == (0, 2)
    assert loaded.vulnerabilities["only"].actuators == (3,)


def test_extended_critical_map_accepted(tmp_path, doc):
    doc["critical_map"] = [[0.0] * 5 + [1.0]]
    loaded = scen.load_scenario(_dump(tmp_path, doc))
    assert loaded.q_z.shape == (1, 6)
    assert np.allclose(loaded.q_z[0, :5], 0.0)


def test_critical_map_padded_at_load(tmp_path, doc):
    """A plant-state map is padded with zeros over the estimate; an extended one
    passes through; any other width is rejected."""
    doc["critical_map"] = [[1.0, 2.0, 3.0]]
    loaded = scen.load_scenario(_dump(tmp_path, doc))
    assert np.array_equal(loaded.q_z, [[1.0, 2.0, 3.0, 0.0, 0.0, 0.0]])
    extended = [[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0, -1.0, 0.0]]
    doc["critical_map"] = extended
    assert np.array_equal(scen.load_scenario(_dump(tmp_path, doc, "ext.json")).q_z, extended)
    doc["critical_map"] = [[1.0, 1.0, 1.0, 1.0]]
    with pytest.raises(DimensionMismatch, match="critical_map must have 3 or 6 columns, got 4"):
        scen.load_scenario(_dump(tmp_path, doc, "wide.json"))
