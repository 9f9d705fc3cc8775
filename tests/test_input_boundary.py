"""The file-input boundary: every malformed frame, state or distribution file ends
in one ``error:`` line and a documented exit code, never in a traceback."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import serialize
from phaseframe.cli import main
from phaseframe.errors import FrameFileError, NonFinite, ShapeMismatch

PLACEHOLDER = '"@@"'  # stands for a raw JSON literal that json.dumps cannot write


def _frame_text(path, literal):
    payload = serialize.frame_to_json(pf.weyl_frame(3))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@@"
    return json.dumps(payload).replace(PLACEHOLDER, literal)


def _state_text(literal, path=("dim",)):
    payload = serialize.state_to_json(pf.maximally_mixed(3))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@@"
    return json.dumps(payload).replace(PLACEHOLDER, literal)


@pytest.fixture(scope="module")
def weyl3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary") / "weyl3.json"
    assert main(["frame", "build", "weyl", "--d", "3", "--out", str(path)]) == 0
    return path


def _certify_frame(tmp_path, weyl3_file, text):
    path = tmp_path / "frame.json"
    path.write_text(text)
    return ["certify", "--frame", str(path), "--state", "mixed"]


def _certify_state(tmp_path, weyl3_file, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    return ["certify", "--frame", str(weyl3_file), "--state-file", str(path)]


def _certify_distribution(tmp_path, weyl3_file, text):
    path = tmp_path / "mu.csv"
    path.write_text(text)
    return ["certify", "--frame", str(weyl3_file), "--distribution", str(path)]


def _state_text_without(key):
    payload = serialize.state_to_json(pf.maximally_mixed(3))
    del payload[key]
    return json.dumps(payload)


def _huge_state_text(cells):
    rho = pf.maximally_mixed(3)
    for (a, b), value in cells.items():
        rho[a, b] = rho[b, a] = value
    return json.dumps(serialize.state_to_json(rho))


def _distribution_text(**values):
    mu = np.zeros(9)
    for key, value in values.items():
        mu[int(key[1:])] = value
    return serialize.distribution_csv_bytes(pf.make_group([3, 3]), mu).decode()


def _represent(*outputs):
    """argv for ``represent`` of a qubit state, writing ``--out`` (and ``--phi``) as ``out-*``."""
    def make_argv(tmp_path, weyl3_file, text):
        frame, state = tmp_path / "qubit.json", tmp_path / "state.json"
        serialize.save_frame(pf.qubit_frame(), frame)
        state.write_text(text)
        options = [str(tmp_path / f"out-{name}") for name in outputs]
        return ["represent", "--frame", str(frame), "--state-file", str(state),
                *[arg for pair in zip(("--out", "--phi"), options) for arg in pair]]
    return make_argv


def _qubit_state_text(rows):
    return json.dumps(serialize.state_to_json(np.array(rows, dtype=float)))


FRAME_CELL = ["elements", 0, "matrix", 0, 0, 0]
STATE_CELL = ["matrix", 0, 0, 0]
MATRIX_TYPES = "malformed matrix payload: expected JSON numbers, got a bool or a string"
AT_ORIGIN = "element (0, 0) at position 0: "
PHI_OVERFLOW = "characteristic function overflows: the operator's entries are too large"
SPECTRA_OVERFLOW = "certificate spectra overflow: the operator's entries are too large"
BOUNDARY_CASES = {
    # int() on these raised ValueError, TypeError or OverflowError
    "schema-string": (_certify_frame, _frame_text(["schema_version"], '"x"'),
                      "unsupported schema_version 'x'"),
    "schema-list": (_certify_frame, _frame_text(["schema_version"], "[1]"),
                    "unsupported schema_version [1]"),
    "schema-1e400": (_certify_frame, _frame_text(["schema_version"], "1e400"),
                     "unsupported schema_version inf"),
    # OverflowError, missing from the except tuples
    "dim-1e400": (_certify_frame, _frame_text(["dim"], "1e400"),
                  "frame file missing required field: cannot convert float infinity to integer"),
    "orders-1e400": (_certify_frame, _frame_text(["group", "orders", 0], "1e400"),
                     "malformed group orders [inf, 3]: "
                     "cannot convert float infinity to integer"),
    "g-1e400": (_certify_frame, _frame_text(["elements", 0, "g", 0], "1e400"),
                "malformed element entry at position 0: "
                "cannot convert float infinity to integer"),
    "state-dim-1e400": (_certify_state, _state_text("1e400"),
                        "state file missing required field: "
                        "cannot convert float infinity to integer"),
    # the state reader read any schema_version, or none, as version 1, and certified
    "state-schema-2": (_certify_state, _state_text("2", ["schema_version"]),
                       "unsupported schema_version 2"),
    "state-schema-string": (_certify_state, _state_text('"x"', ["schema_version"]),
                            "unsupported schema_version 'x'"),
    "state-schema-missing": (_certify_state, _state_text_without("schema_version"),
                             "unsupported schema_version None"),
    "frame-schema-2": (_certify_frame, _frame_text(["schema_version"], "2"),
                       "unsupported schema_version 2"),
    # RecursionError from json.loads, csv.Error from the csv module
    "frame-deep": (_certify_frame, "[" * 100_000, "frame file is nested too deeply to parse"),
    "state-deep": (_certify_state, "[" * 100_000, "state file is nested too deeply to parse"),
    "csv-long-field": (_certify_distribution, "index_tuple,mu\n(0,0)," + "1" * 131_073 + "\n",
                       "distribution file is not valid CSV: "
                       "field larger than field limit (131072)"),
    # a ValueError that is not a JSONDecodeError
    "int-literal-5000-digits": (_certify_frame, _frame_text(["dim"], "1" * 5000),
                                "frame file is not valid JSON: Exceeds the limit (4300 digits) "
                                "for integer string conversion: value has 5000 digits; use "
                                "sys.set_int_max_str_digits() to increase the limit"),
    # int() truncated these, and the file certified with exit 0
    "dim-3.7": (_certify_frame, _frame_text(["dim"], "3.7"),
                "frame file missing required field: expected a JSON integer, got 3.7"),
    "schema-1.9": (_certify_frame, _frame_text(["schema_version"], "1.9"),
                   "unsupported schema_version 1.9"),
    "schema-true": (_certify_frame, _frame_text(["schema_version"], "true"),
                    "unsupported schema_version True"),
    "g-0.2": (_certify_frame, _frame_text(["elements", 0, "g"], "[0.2, 0]"),
              "malformed element entry at position 0: expected a JSON integer, got 0.2"),
    "orders-3.5": (_certify_frame, _frame_text(["group", "orders"], "[3.5, 3]"),
                   "malformed group orders [3.5, 3]: expected a JSON integer, got 3.5"),
    # float() converted these matrix entries: "1.0" and true certified with exit 0,
    # "0.5" and false reached verification and exited 2
    "frame-cell-string-1.0": (_certify_frame, _frame_text(FRAME_CELL, '"1.0"'),
                              AT_ORIGIN + MATRIX_TYPES),
    "frame-cell-string-0.5": (_certify_frame, _frame_text(FRAME_CELL, '"0.5"'),
                              AT_ORIGIN + MATRIX_TYPES),
    "frame-cell-true": (_certify_frame, _frame_text(FRAME_CELL, "true"), AT_ORIGIN + MATRIX_TYPES),
    "frame-cell-false": (_certify_frame, _frame_text(FRAME_CELL, "false"),
                         AT_ORIGIN + MATRIX_TYPES),
    "frame-all-bool-matrix": (_certify_frame, _frame_text(FRAME_CELL[:3], "[[[true, false]]]"),
                              AT_ORIGIN + MATRIX_TYPES),
    # a malformed payload names its element and position
    "frame-cell-string-at-4": (_certify_frame, _frame_text(["elements", 4, "matrix", 1, 1, 1],
                                                           '"x"'),
                               "element (1, 1) at position 4: " + MATRIX_TYPES),
    "frame-matrix-shape-at-4": (_certify_frame, _frame_text(["elements", 4, "matrix"],
                                                            "[[1.0, 0.0]]"),
                                "element (1, 1) at position 4: matrix payload has shape (1, 2), "
                                "expected (rows, cols, 2)"),
    "frame-cell-nan-at-2": (_certify_frame, _frame_text(["elements", 2, "matrix", 1, 1, 0], "NaN"),
                            "element (0, 2) at position 2: "
                            "matrix payload contains non-finite values"),
    "state-cell-string-1.0": (_certify_state, _state_text('"1.0"', STATE_CELL), MATRIX_TYPES),
    "state-cell-true": (_certify_state, _state_text("true", STATE_CELL), MATRIX_TYPES),
    "state-cell-false": (_certify_state, _state_text("false", STATE_CELL), MATRIX_TYPES),
    # finite entries whose phi or spectra overflow certified as NaN (exit 3) with
    # RuntimeWarnings, and an overflowing sum warned
    "state-phi-overflows": (_certify_state, _huge_state_text({(0, 1): 1e308, (1, 2): 1e308}),
                            PHI_OVERFLOW),
    "state-spectra-overflow": (_certify_state, _huge_state_text({(0, 1): 1e308}), SPECTRA_OVERFLOW),
    # phi((2, 0)) overflows but phi((1, 0)) does not, and their residual passes its inf band
    "state-phi-overflows-on-one-side": (_certify_state, _huge_state_text(
        {(0, 1): 9e307, (1, 2): 9e307, (2, 0): -5e307}), PHI_OVERFLOW),
    "distribution-phi-overflows": (_certify_distribution,
                                   _distribution_text(j1=1.0, j2=1.7e308, j3=-1.7e308),
                                   PHI_OVERFLOW),
    "distribution-spectra-overflow": (_certify_distribution,
                                      _distribution_text(j0=1e308, j6=-1e308, j8=1.0),
                                      SPECTRA_OVERFLOW),
    "distribution-sum-overflows": (_certify_distribution,
                                   _distribution_text(j1=1.7e308, j5=1.0, j7=1.7e308, j8=-1.7e308),
                                   "distribution sums to inf, expected 1"),
    # represent wrote its CSV, then the total overflowed with a RuntimeWarning, or phi
    # overflowed and left the CSV behind
    "represent-total-overflows": (_represent("mu.csv"), _qubit_state_text([[1e308, 0], [0, 1e308]]),
                                  "quasi-probability total overflows: "
                                  "the operator's entries are too large"),
    "represent-phi-overflows": (_represent("mu.csv", "phi.csv"),
                                _qubit_state_text([[0.5, 1e308], [1e308, 0.5]]), PHI_OVERFLOW),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_malformed_input_file_exits_one_with_one_error_line(case, tmp_path, weyl3_file, capsys):
    make_argv, text, message = BOUNDARY_CASES[case]
    argv = make_argv(tmp_path, weyl3_file, text)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not list(tmp_path.glob("out-*"))


def test_a_qubit_state_whose_phi_overflows_is_one_error_in_certify_and_scan(tmp_path):
    frame, state, out = tmp_path / "qubit.json", tmp_path / "state.json", tmp_path / "cert.json"
    rho = np.array([[0.5, 1e308], [1e308, 0.5]])
    assert main(["frame", "build", "qubit", "--out", str(frame)]) == 0
    serialize.save_state(rho, state)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["certify", "--frame", str(frame), "--state-file", str(state), "--out", str(out)])
    assert (code, err.getvalue(), out.exists()) == (1, f"error: {PHI_OVERFLOW}\n", False)
    rep = pf.build_representation(pf.qubit_frame())
    states = [rho, np.array([[0.5, 5e307], [5e307, 0.5]]), pf.maximally_mixed(2)]
    rows = pf.scan(rep, states).rows
    for row, rho, message in zip(rows, states, (PHI_OVERFLOW, SPECTRA_OVERFLOW)):
        with pytest.raises(NonFinite, match=message):
            pf.certify_state(rep, rho)
        assert (row.certificate, row.error) == (None, message)
    assert rows[2].certificate.is_positively_representable


@pytest.mark.parametrize("call", [
    lambda rep, mu: pf.certify_distribution(rep, mu).phi,
    lambda rep, mu: pf.reconstruct(rep, mu),
    lambda rep, mu: serialize.distribution_csv_bytes(rep.group, mu),
], ids=["certify_distribution", "reconstruct", "distribution_csv_bytes"])
def test_a_distribution_is_one_real_number_per_group_element(call):
    rep = pf.build_representation(pf.weyl_frame(3))
    mu = pf.represent(rep, pf.maximally_mixed(3))
    for values, message in [([[1.0], [1.0, 2.0]], "distribution values must be numbers"),
                            (["x"] * 9, "distribution values must be numbers"),
                            (["0.1"] * 9, "distribution values must be numbers"),
                            (mu + 1e-6j, "distribution values must be real"),
                            (mu[:4], r"distribution has shape \(4,\), expected \(9,\)")]:
        with pytest.raises(ShapeMismatch, match=message):
            call(rep, values)
    with warnings.catch_warnings():  # a ComplexWarning would be an error
        warnings.simplefilter("error")
        assert np.array_equal(call(rep, mu + 1e-12j), call(rep, mu))


def test_a_bool_outside_the_matrices_still_loads(tmp_path, weyl3_file, capsys):
    # A ``true`` anywhere in the text makes the reader scan every matrix entry.
    text = _frame_text(["metadata", "parameters", "flag"], "true")
    assert main(_certify_frame(tmp_path, weyl3_file, text)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("literal", [True, "1.0"])
def test_the_api_reader_rejects_bool_and_string_entries(literal):
    payload = serialize.frame_to_json(pf.weyl_frame(3))
    payload["elements"][4]["matrix"][1][1][1] = literal
    with pytest.raises(FrameFileError, match="expected JSON numbers"):
        serialize.frame_from_json(payload)
    with pytest.raises(FrameFileError, match="expected JSON numbers"):
        serialize.matrix_from_json(payload["elements"][4]["matrix"])


@pytest.mark.parametrize("key", ["matrix", "g"])
def test_an_entry_without_a_key_names_the_missing_key(key, tmp_path, weyl3_file, capsys):
    payload = serialize.frame_to_json(pf.weyl_frame(3))
    del payload["elements"][1][key]
    argv = _certify_frame(tmp_path, weyl3_file, json.dumps(payload))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: malformed element entry at position 1: missing key '{key}'\n")


def test_operator_entries_too_large_to_square_fail_verification(tmp_path, weyl3_file, capsys):
    argv = _certify_frame(tmp_path, weyl3_file, _frame_text(["elements", 4, "matrix", 1, 1, 1],
                                                            "1e200"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == ("error: frame verification failed: operator not unitary: "
                                       "residual inf exceeds 2.000e-09\n")


def test_an_object_too_deep_to_encode_is_not_written(tmp_path):
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(FrameFileError, match="nested too deeply to encode"):
        serialize.save_json(tmp_path / "deep.json", {"metadata": deep})
    assert not (tmp_path / "deep.json").exists()


def test_tensor_of_a_frame_with_metadata_at_the_depth_limit(tmp_path, weyl3_file, capsys):
    # The deepest metadata that still parses gains three levels in the product's
    # metadata, which the writer may not be able to encode.
    payload = serialize.frame_to_json(pf.qubit_frame())
    del payload["metadata"]
    payload = json.dumps(payload)
    path = tmp_path / "deep.json"
    for depth in range(1200, 0, -1):
        path.write_text(payload[:-1] + ', "metadata": ' + '{"a": ' * depth + "1" + "}" * depth + "}")
        if main(["certify", "--frame", str(path), "--state", "mixed"]) == 0:
            break
    out = tmp_path / "tensor.json"
    capsys.readouterr()
    code = main(["frame", "build", "tensor", "--a", str(path), "--b", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 1 and err == (
        f"error: cannot write {out}: nested too deeply to encode\n") and not out.exists())


# --------------------------------------------------------------------------
# fuzzing: any value in any field, any bytes in any file

JSON_VALUES = st.one_of(
    st.sampled_from([10**400, -10**400, 2**63, 2**31, -1, 0, 1, 3, 4096,
                     1e308, -1e308, 5e-324, 0.5, 3.7, 1.0, float("nan"), float("inf"),
                     True, False, None, "", "3", "x", "\n", [], {}, [3, 3], [[1.0, 0.0]],
                     {"a": 1}, {"g": [0, 0]}]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-5, 5), max_size=3),
)
DELETE = object()  # removes the field instead of replacing it

FRAME_FIELDS = [
    ("schema_version",), ("group",), ("group", "orders"), ("group", "orders", 0),
    ("group", "orders", 1), ("dim",), ("elements",), ("elements", 0), ("elements", 4),
    ("elements", 8), ("elements", 0, "g"), ("elements", 4, "g", 1), ("elements", 8, "g", 0),
    ("elements", 4, "matrix"), ("elements", 4, "matrix", 1), ("elements", 4, "matrix", 1, 2),
    ("elements", 4, "matrix", 1, 2, 0), ("elements", 0, "matrix", 0, 0, 1), ("metadata",),
    ("metadata", "kind"), ("metadata", "parameters"),
]
STATE_FIELDS = [("schema_version",), ("dim",), ("matrix",), ("matrix", 0), ("matrix", 1, 1),
                ("matrix", 1, 1, 0), ("matrix", 0, 2, 1)]


def _substituted(payload, field, value):
    node = payload
    for key in field[:-1]:
        node = node[key]
    if value is DELETE:
        del node[field[-1]]
    else:
        node[field[-1]] = value
    return json.dumps(payload)


def _main_raises_nothing(argv):
    """Run the CLI with every warning an error; it must return an exit code."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert isinstance(code, int)
    if code in (1, 2):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, weyl3_file):
    return tmp_path_factory.mktemp("fuzz"), weyl3_file


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FRAME_FIELDS), value=st.one_of(JSON_VALUES, st.just(DELETE)))
def test_any_value_in_any_frame_field_ends_in_an_exit_code(fuzz_dir, field, value):
    root, _ = fuzz_dir
    path = root / "frame.json"
    path.write_text(_substituted(serialize.frame_to_json(pf.weyl_frame(3)), field, value))
    _main_raises_nothing(["certify", "--frame", str(path), "--state", "mixed"])


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(STATE_FIELDS), value=st.one_of(JSON_VALUES, st.just(DELETE)))
def test_any_value_in_any_state_field_ends_in_an_exit_code(fuzz_dir, field, value):
    root, weyl3 = fuzz_dir
    path = root / "state.json"
    path.write_text(_substituted(serialize.state_to_json(pf.random_density(3, 1)), field, value))
    _main_raises_nothing(["certify", "--frame", str(weyl3), "--state-file", str(path)])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["--frame", "--state-file", "--distribution"]),
       prefix=st.sampled_from([b"", b"{", b'{"schema_version": 1, "dim": 3, ',
                               b"index_tuple,mu\n", b"index_tuple,mu\n(0,0),"]),
       data=st.binary(max_size=300))
def test_random_bytes_in_any_input_file_end_in_an_exit_code(fuzz_dir, kind, prefix, data):
    root, weyl3 = fuzz_dir
    path = root / "random.bin"
    path.write_bytes(prefix + data)
    if kind == "--frame":
        argv = ["certify", "--frame", str(path), "--state", "mixed"]
    else:
        argv = ["certify", "--frame", str(weyl3), kind, str(path)]
    assert _main_raises_nothing(argv) in (1, 2)
