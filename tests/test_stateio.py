"""State-file schema: round trips and rejection of malformed payloads."""

import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpolar.stateio import MAX_TWO_S, SchemaError, load_state, save_state, state_from_dict, state_to_dict
from qpolar.states import assemble, maximally_mixed, random_sector


def test_all_forms_build(tmp_path):
    obj = {
        "sectors": [
            {"two_S": 1, "weight": 0.2, "form": "fock", "data": {"two_m": -1}},
            {"two_S": 2, "weight": 0.3, "form": "diag", "data": [0.5, 0.25, 0.25]},
            {"two_S": 3, "weight": 0.25, "form": "pure",
             "data": [[1 / math.sqrt(2), 0], [0, 0], [0, 0], [1 / math.sqrt(2), 0]]},
            {"two_S": 4, "weight": 0.15, "form": "coherent", "data": {"theta": 0.7, "phi": 1.1}},
            {"two_S": 0, "weight": 0.1, "form": "matrix", "data": [[[1.0, 0.0]]]},
        ]
    }
    state = state_from_dict(obj)
    assert [sec.spin.twice for _, sec in state] == [1, 2, 3, 4, 0]
    assert_allclose(state.entries[0][1].rho, np.diag([0.0, 1.0]), atol=1e-15)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(70)
    state = assemble([(0.4, random_sector(1, rng)), (0.6, random_sector(0.5, rng))])
    path = tmp_path / "s.json"
    save_state(state, path)
    back = load_state(path)
    for (w1, s1), (w2, s2) in zip(state, back):
        assert w1 == w2
        assert_allclose(s1.rho, s2.rho, atol=1e-15)


def test_diagonal_shells_stay_diag(tmp_path):
    path = tmp_path / "d.json"
    save_state(maximally_mixed(1.5), path)
    obj = json.loads(path.read_text())
    assert obj["sectors"][0]["form"] == "diag"
    assert_allclose(load_state(path).entries[0][1].rho, np.eye(4) / 4, atol=1e-15)


def test_refused_state_writes_no_file(tmp_path):
    # save_state once opened its file before serializing, leaving it empty on a refusal
    path = tmp_path / "s.json"
    with pytest.raises(ValueError, match="^obj must be of type SpinSector or PolarizationState, got None$"):
        save_state(None, path)
    assert not path.exists()


def test_metadata_block_survives(tmp_path):
    path = tmp_path / "m.json"
    save_state(maximally_mixed(1), path, metadata={"seed": 0, "note": "x"})
    obj = json.loads(path.read_text())
    assert obj["metadata"]["seed"] == 0
    load_state(path)  # extra key tolerated


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"sectors": []},
        {"sectors": [{"two_S": 2, "weight": 1.0, "form": "diag"}]},
        {"sectors": [{"two_S": 2, "weight": 1.0, "form": "nope", "data": []}]},
        {"sectors": [{"two_S": -1, "weight": 1.0, "form": "diag", "data": [1.0]}]},
        {"sectors": [{"two_S": 2, "weight": 1.0, "form": "diag", "data": [0.5, 0.5]}]},
        {"sectors": [{"two_S": 2, "weight": 1.0, "form": "diag", "data": [0.6, 0.6, -0.2]}]},
        {"sectors": [{"two_S": 1, "weight": 1.0, "form": "fock", "data": {"two_m": 3}}]},
        {"sectors": [{"two_S": 1, "weight": 0.4, "form": "fock", "data": {"two_m": 1}},
                     {"two_S": 1, "weight": 0.6, "form": "fock", "data": {"two_m": -1}}]},
        {"sectors": [{"two_S": 2, "weight": 1.0, "form": "diag", "data": [math.nan, 0.5, 0.5]}]},
        {"sectors": [{"two_S": True, "weight": 1.0, "form": "diag", "data": [0.5, 0.5]}]},
        {"sectors": [{"two_S": 1, "weight": math.nan, "form": "diag", "data": [0.5, 0.5]}]},
        {"sectors": [{"two_S": 1, "weight": 1.0, "form": "pure", "data": [[1.5e308, 0.0], [1.5e308, 0.0]]}]},
    ],
)
def test_schema_violations_raise(obj):
    with pytest.raises(SchemaError):
        state_from_dict(obj)


def test_two_s_above_bound_rejected_before_payload():
    obj = {"sectors": [{"two_S": 10**9, "weight": 1.0, "form": "diag", "data": [1.0]}]}
    message = f"two_S must be an integer in [0, MAX_TWO_S] = [0, {MAX_TWO_S}], got {10**9}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        state_from_dict(obj)


def test_non_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(SchemaError):
        load_state(path)


def test_hermiticity_violation_rejected():
    obj = {"sectors": [{"two_S": 1, "weight": 1.0, "form": "matrix",
                        "data": [[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}]}
    with pytest.raises(SchemaError):
        state_from_dict(obj)


def test_state_to_dict_bare_sector():
    obj = state_to_dict(maximally_mixed(0.5))
    assert obj["sectors"][0]["weight"] == 1.0
