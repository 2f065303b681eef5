import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privsq import Isometry, SystemLayout, haar_unitary, random_density
from privsq.stateio import (
    StateFileError,
    read_isometry,
    read_state,
    write_isometry,
    write_report,
    write_state,
)


def test_state_roundtrip_bit_exact(tmp_path):
    layout = SystemLayout([("A1", 2), ("A2", 3)])
    rho = random_density(layout, 5, seed=3)
    path = tmp_path / "s.state"
    write_state(str(path), rho)
    back = read_state(str(path))
    assert back.layout == rho.layout
    assert np.array_equal(back.matrix, rho.matrix)


def test_isometry_roundtrip(tmp_path):
    v = Isometry(
        haar_unitary(4, 1)[:, :2],
        SystemLayout([("Ain", 2)]),
        SystemLayout([("B", 2), ("F", 2)]),
    )
    path = tmp_path / "v.isom"
    write_isometry(str(path), v)
    back = read_isometry(str(path))
    assert np.array_equal(back.matrix, v.matrix)
    assert back.input_layout == v.input_layout
    assert back.output_layout == v.output_layout


def test_invalid_json_names_position(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text('{"format": "privsq-state/1", "layout": [')
    with pytest.raises(StateFileError, match=r"line \d+ column \d+"):
        read_state(str(path))


def test_wrong_format_and_kind(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text(json.dumps({"format": "other/9"}))
    with pytest.raises(StateFileError, match="unsupported format"):
        read_state(str(path))

    path.write_text(json.dumps({"format": "privsq-state/1", "kind": "isometry"}))
    with pytest.raises(StateFileError, match="not a density operator"):
        read_state(str(path))

    path.write_text(json.dumps({"format": "privsq-state/1", "kind": "density"}))
    with pytest.raises(StateFileError, match="kind 'density' is not an isometry"):
        read_isometry(str(path))

    path.write_text(json.dumps({"format": "privsq-state/1"}))
    with pytest.raises(StateFileError, match="kind None is not an isometry"):
        read_isometry(str(path))

    # a file with no kind is read as a density operator
    path.write_text(json.dumps({"format": "privsq-state/1", "layout": [["A", 2]],
                                "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
    assert read_state(str(path)).layout.labels == ("A",)


def test_violated_invariant_is_named(tmp_path):
    path = tmp_path / "bad.state"
    payload = {
        "format": "privsq-state/1",
        "kind": "density",
        "layout": [["A", 2]],
        "re": [[0.7, 0.0], [0.0, 0.7]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFileError, match="trace"):
        read_state(str(path))

    payload["re"] = [[1.5, 0.0], [0.0, -0.5]]
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFileError, match="positive semidefinite"):
        read_state(str(path))

    payload["re"] = [[1.0, 0.0]]
    payload["im"] = [[0.0, 0.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFileError, match="shape"):
        read_state(str(path))


def test_entries_must_be_json_numbers_and_labels_json_strings(tmp_path):
    # a float conversion would read "0.5" as 0.5 and true as 1.0, and str()
    # would turn a null label into the system "None"
    path = tmp_path / "coerced.state"
    good = {
        "format": "privsq-state/1",
        "kind": "density",
        "layout": [["A", 2]],
        "re": [[0.5, 0.0], [0.0, 0.5]],
        "im": [[0.0, 0.0], [0.0, 0.0]],
    }
    path.write_text(json.dumps(good))
    assert read_state(str(path)).layout.labels == ("A",)
    entries = {"'re' entry '0.5'": ("re", "0.5"), "'re' entry True": ("re", True),
               "'im' entry False": ("im", False), "'im' entry None": ("im", None)}
    for message, (part, value) in entries.items():
        payload = json.loads(json.dumps(good))
        payload[part][0][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            read_state(str(path))
    # a JSON integer beyond the float range raised OverflowError, not naming the file
    payload = json.loads(json.dumps(good))
    payload["re"][0][0] = 10 ** 400
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFileError, match=re.escape(f"{path}: ") + ".*too large"):
        read_state(str(path))
    for label in (None, 1, ["A"]):
        payload = json.loads(json.dumps(good))
        payload["layout"][0][0] = label
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match=re.escape(f"{path}: ") + ".*not a JSON string"):
            read_state(str(path))


@pytest.mark.parametrize("field", ["layout", "input_layout", "output_layout"])
def test_missing_layout(field, tmp_path):
    # the density file carries no kind, and is read as a density operator
    payload = {"format": "privsq-state/1", "re": [[1.0]], "im": [[0.0]]}
    read = read_state
    if field != "layout":
        payload.update(kind="isometry", input_layout=[["A", 1]], output_layout=[["B", 1]])
        del payload[field]
        read = read_isometry
    path = tmp_path / "bad.state"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFileError, match=re.escape(f"{path}: missing {field!r}")):
        read(str(path))


def test_report_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    report = {"command": "x", "seed": 1, "tolerances": {"a": 1e-9}, "value": 0.123456}
    write_report(str(p1), report)
    write_report(str(p2), report)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["tool"].startswith("privsq ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_report_refuses_non_finite_numbers_before_writing(value, tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_report(str(path), {"command": "x", "seed": 1, "tolerances": {"ftol": value}})
    assert not path.exists()


# ---------------------------------------------------------------------------
# properties: random layouts round-trip; mutated payloads are refused
# ---------------------------------------------------------------------------

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=40)
DIMS = st.lists(st.integers(1, 3), min_size=1, max_size=3)
SEEDS = st.integers(0, 2**32 - 1)


def layout_of(prefix, dims):
    return SystemLayout((f"{prefix}{i}", d) for i, d in enumerate(dims))


def random_isometry(in_dims, out_dims, seed):
    vin, vout = layout_of("In", in_dims), layout_of("Out", out_dims)
    return Isometry(haar_unitary(vout.total_dim, seed)[:, :vin.total_dim], vin, vout)


@PROPERTIES
@given(dims=DIMS, seed=SEEDS, data=st.data())
def test_state_roundtrip_property(tmp_path_factory, dims, seed, data):
    layout = layout_of("S", dims)
    rank = data.draw(st.integers(1, layout.total_dim), label="rank")
    rho = random_density(layout, rank, seed)
    path = tmp_path_factory.mktemp("roundtrip") / "s.state"
    write_state(str(path), rho)
    back = read_state(str(path))
    assert back.layout == rho.layout
    assert np.array_equal(back.matrix, rho.matrix)


@PROPERTIES
@given(in_dims=DIMS, out_dims=DIMS, seed=SEEDS)
def test_isometry_roundtrip_property(tmp_path_factory, in_dims, out_dims, seed):
    assume(np.prod(in_dims) <= np.prod(out_dims))
    v = random_isometry(in_dims, out_dims, seed)
    path = tmp_path_factory.mktemp("roundtrip") / "v.isom"
    write_isometry(str(path), v)
    back = read_isometry(str(path))
    assert (back.input_layout, back.output_layout) == (v.input_layout, v.output_layout)
    assert np.array_equal(back.matrix, v.matrix)


MUTATIONS = ("drop_key", "ragged", "mismatched", "non_finite", "non_number", "bad_dim",
             "bad_label", "format")


def mutate(payload, how, data):
    """``payload`` with one defect of kind ``how``, the details drawn from ``data``."""
    layouts = [k for k in ("layout", "input_layout", "output_layout") if k in payload]
    if how == "drop_key":
        # a density file may leave out its kind; every other key is required
        keys = [k for k in payload if (k, payload.get("kind")) != ("kind", "density")]
        del payload[data.draw(st.sampled_from(keys), label="key")]
    elif how == "ragged":
        rows = payload[data.draw(st.sampled_from(("re", "im")), label="part")]
        rows[data.draw(st.integers(0, len(rows) - 1), label="row")].pop()
    elif how == "mismatched":
        payload[data.draw(st.sampled_from(("re", "im")), label="part")].pop()
    elif how in ("non_finite", "non_number"):
        rows = payload[data.draw(st.sampled_from(("re", "im")), label="part")]
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, len(rows[i]) - 1), label="col")
        if how == "non_finite":
            rows[i][j] = data.draw(st.sampled_from((float("nan"), float("inf"), float("-inf"))))
        else:
            # what a float conversion would coerce: the entry's string, a bool, null
            x = rows[i][j]
            rows[i][j] = data.draw(st.sampled_from((str(x), True, False, None)), label="entry")
    elif how == "bad_dim":
        systems = payload[data.draw(st.sampled_from(layouts), label="layout")]
        system = systems[data.draw(st.integers(0, len(systems) - 1), label="system")]
        d = system[1]
        system[1] = data.draw(st.sampled_from((float(d), d + 0.5, d == 1, str(d))), label="dim")
    elif how == "bad_label":
        systems = payload[data.draw(st.sampled_from(layouts), label="layout")]
        system = systems[data.draw(st.integers(0, len(systems) - 1), label="system")]
        system[0] = data.draw(st.sampled_from((None, 0, 1.5, True, [system[0]])), label="label")
    else:
        payload["format"] = data.draw(st.sampled_from(("privsq-state/2", "", None, 1)))
    return payload


@pytest.mark.parametrize("isometry", (False, True))
@pytest.mark.parametrize("how", MUTATIONS)
@settings(PROPERTIES, max_examples=15)
@given(dims=DIMS, in_dims=DIMS, seed=SEEDS, data=st.data())
def test_mutated_payloads_raise_state_file_error(tmp_path_factory, how, isometry, dims,
                                                 in_dims, seed, data):
    path = tmp_path_factory.mktemp("mutated") / "f.json"
    if isometry:
        assume(np.prod(in_dims) <= np.prod(dims))
        write_isometry(str(path), random_isometry(in_dims, dims, seed))
        read = read_isometry
    else:
        layout = layout_of("S", dims)
        write_state(str(path), random_density(layout, layout.total_dim, seed))
        read = read_state
    payload = mutate(json.loads(path.read_text()), how, data)
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFileError, match=re.escape(str(path))):
        read(str(path))
