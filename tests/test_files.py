import json
import math

import numpy as np
import pytest

from qdiv.extended import INF, ExtendedReal
from qdiv.files import (
    OperatorFileError,
    load_operator,
    operator_to_text,
    parse_operator_text,
    render_report,
    save_operator,
    validate_role,
)
from qdiv.sampling import SeededRng, ginibre, haar_unitary


def test_round_trip_exact(tmp_path):
    m = ginibre(3, SeededRng(2))
    path = tmp_path / "op.json"
    save_operator(path, m, role=None)
    back, role = load_operator(path)
    assert role is None
    assert np.max(np.abs(back - m)) == 0.0


def test_round_trip_preserves_seventeen_digits():
    m = np.array([[1.0 / 3.0 + 0.1j]])
    back, _ = parse_operator_text(operator_to_text(m))
    assert back[0, 0] == m[0, 0]


def test_role_is_stored(tmp_path):
    path = tmp_path / "u.json"
    save_operator(path, np.eye(2), role="unitary")
    _, role = load_operator(path)
    assert role == "unitary"


def test_unknown_role_rejected():
    with pytest.raises(OperatorFileError):
        operator_to_text(np.eye(2), role="widget")


def test_parse_rejects_bad_shapes():
    with pytest.raises(OperatorFileError):
        parse_operator_text('{"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}')
    with pytest.raises(OperatorFileError):
        parse_operator_text('{"re": [[1]], "im": [[0]]}')
    with pytest.raises(OperatorFileError):
        parse_operator_text("not json")
    with pytest.raises(OperatorFileError):
        parse_operator_text('{"dim": 0, "re": [], "im": []}')
    # a JSON true is a Python bool, which is an int; once read as dim 1
    with pytest.raises(OperatorFileError, match="dim must be a positive integer"):
        parse_operator_text('{"dim": true, "re": [[1]], "im": [[0]]}')


@pytest.mark.parametrize("entry", ['"1"', "true", "false", "null", '{"a": 1}', "[1]",
                                   "1" + "0" * 400])
@pytest.mark.parametrize("key", ["re", "im"])
def test_parse_accepts_only_json_numbers(entry, key):
    # "1" and true were once read as 1.0, null as NaN, and an object ended in
    # a TypeError; an integer beyond the float range in an OverflowError
    doc = {"re": "[[1, 0], [0, 1]]", "im": "[[0, 0], [0, 0]]"}
    doc[key] = f"[[1, 0], [0, {entry}]]"
    text = f'{{"dim": 2, "re": {doc["re"]}, "im": {doc["im"]}}}'
    with pytest.raises(OperatorFileError, match=f"^{key} (is not a 2x2 array|has an entry)"):
        parse_operator_text(text)
    # ints and floats, also in exponent form, are numbers
    m, _ = parse_operator_text('{"dim": 1, "re": [[2.5e-1]], "im": [[-0]]}')
    assert m.tolist() == [[0.25]]
    m, _ = parse_operator_text('{"dim": 1, "re": [[3]], "im": [[0.0]]}')
    assert m.tolist() == [[3.0]]


def test_parse_rejects_ragged_and_non_list_arrays():
    for re_part in ("[[1, 0], [0]]", "[1, 0]", "5", '"[[1]]"', "[[1, 0], 0]"):
        with pytest.raises(OperatorFileError, match="re is not a 2x2 array"):
            parse_operator_text(f'{{"dim": 2, "re": {re_part}, "im": [[0, 0], [0, 0]]}}')


def test_validate_role_density():
    validate_role(np.diag([0.5, 0.5]), "density")
    with pytest.raises(OperatorFileError):
        validate_role(np.diag([0.6, 0.6]), "density")


def test_validate_role_projection_and_unitary():
    validate_role(np.diag([1.0, 0.0]), "projection")
    with pytest.raises(OperatorFileError):
        validate_role(np.diag([0.5, 0.0]), "projection")
    validate_role(haar_unitary(2, SeededRng(1)), "unitary")
    with pytest.raises(OperatorFileError):
        validate_role(np.diag([1.0, 2.0]), "unitary")


def test_infinite_entries_rejected():
    with pytest.raises(OperatorFileError):
        operator_to_text(np.array([[np.inf]]))


def test_report_round_trips():
    text = render_report("div", {"alpha": 2.0}, {"value": ExtendedReal(1.5)},
                         wall_time_s=0.123)
    doc = json.loads(text)
    assert doc["command"] == "div"
    assert doc["results"]["value"] == 1.5
    assert doc["wall_time_s"] == 0.123


def test_report_spells_infinity():
    text = render_report("div", {}, {"value": INF})
    assert '"inf"' in text
    assert json.loads(text)["results"]["value"] == "inf"
    # NaN is not JSON, and -inf once came out as "inf"
    for bad in (math.nan, -math.inf, np.float64(-np.inf)):
        with pytest.raises(ValueError, match="JSON"):
            render_report("check", {"alpha": bad}, {})


def test_report_field_order_is_fixed():
    text = render_report("check", {"b": 1, "a": 2}, {"z": 0})
    keys = list(json.loads(text).keys())
    assert keys == ["command", "parameters", "results", "deviations",
                    "witnesses", "wall_time_s"]
