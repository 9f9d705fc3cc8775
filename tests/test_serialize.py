import gc
import json
import tempfile
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import serialize
from phaseframe.cli import main
from phaseframe.errors import FrameFileError, NotProjective, ShapeMismatch

from conftest import qubit_power


def test_frame_roundtrip_is_bitwise(tmp_path, weyl3):
    path = tmp_path / "weyl3.json"
    serialize.save_frame(weyl3, path)
    loaded = serialize.load_frame(path)
    assert loaded.group.orders == weyl3.group.orders
    assert loaded.dim == weyl3.dim
    assert loaded.operators.tobytes() == weyl3.operators.tobytes()  # signed zeros included
    assert loaded.metadata == weyl3.metadata


def test_frame_save_is_deterministic(tmp_path, qubit_ppp):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    serialize.save_frame(qubit_ppp, p1)
    serialize.save_frame(qubit_ppp, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_tampered_operator(tmp_path, weyl3):
    path = tmp_path / "weyl3.json"
    serialize.save_frame(weyl3, path)
    data = json.loads(path.read_text())
    data["elements"][4]["matrix"][0][0] = [5.0, 0.0]
    path.write_text(json.dumps(data))
    with pytest.raises(NotProjective):
        serialize.load_frame(path)


def test_load_rejects_reordered_elements(tmp_path, weyl3):
    path = tmp_path / "weyl3.json"
    serialize.save_frame(weyl3, path)
    data = json.loads(path.read_text())
    data["elements"][0], data["elements"][1] = data["elements"][1], data["elements"][0]
    path.write_text(json.dumps(data))
    with pytest.raises(FrameFileError):
        serialize.load_frame(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FrameFileError):
        serialize.load_frame(path)


def test_load_rejects_wrong_schema(tmp_path, qubit_ppp):
    path = tmp_path / "frame.json"
    data = serialize.frame_to_json(qubit_ppp)
    data["schema_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(FrameFileError):
        serialize.load_frame(path)


def test_state_file_roundtrip(tmp_path):
    rho = pf.random_density(3, 4)
    path = tmp_path / "state.json"
    serialize.save_state(rho, path)
    assert np.array_equal(serialize.load_state(path), rho)


def test_distribution_csv_roundtrip(tmp_path, weyl3_rep):
    mu = pf.represent(weyl3_rep, pf.random_density(3, 8))
    path = tmp_path / "mu.csv"
    serialize.save_distribution_csv(path, weyl3_rep.group, mu)
    back = serialize.load_distribution_csv(path, weyl3_rep.group)
    assert np.array_equal(back, mu)


def test_distribution_csv_format(tmp_path, weyl3_rep):
    mu = np.zeros(9)
    mu[0] = 1.0
    text = serialize.distribution_csv_bytes(weyl3_rep.group, mu).decode()
    lines = text.splitlines()
    assert lines[0] == "index_tuple,mu"
    assert lines[1] == '"(0,0)",1'
    assert len(lines) == 10


def test_distribution_csv_rejects_wrong_order(tmp_path, weyl3_rep):
    mu = np.full(9, 1 / 9)
    path = tmp_path / "mu.csv"
    serialize.save_distribution_csv(path, weyl3_rep.group, mu)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ShapeMismatch):
        serialize.load_distribution_csv(path, weyl3_rep.group)


def test_certificate_json_verdicts_recomputable(tmp_path, weyl3, weyl3_rep):
    rho = pf.random_pure(3, 6)
    cert = pf.certify_state(weyl3_rep, rho)
    payload = serialize.certificate_to_json(
        cert, {"path": "frame.json", "sha256": "x"}, {"kind": "spec", "value": "random-pure:6"}
    )
    # Rebuild both translate matrices from the stored phi and compare verdicts.
    phi = np.array([complex(re, im) for re, im in payload["phi"]])
    group = pf.make_group(payload["group"]["orders"])
    mc_ok, _ = pf.is_psd(pf.build_mc(group, phi))
    mq_ok, _ = pf.is_psd(pf.build_mq(group, phi, pf.cocycle_table(weyl3)))
    assert mq_ok == payload["verdicts"]["is_quantum_state"]
    assert (mq_ok and mc_ok) == payload["verdicts"]["is_positively_representable"]


def test_element_tuple_parsing():
    assert serialize.parse_element("(0,1,2)") == (0, 1, 2)
    assert serialize.parse_element("()") == ()
    with pytest.raises(FrameFileError):
        serialize.parse_element("0,1")


def test_load_frame_digest_names_the_parsed_bytes(tmp_path, weyl3):
    path = tmp_path / "weyl3.json"
    serialize.save_frame(weyl3, path)
    frame, digest = serialize.load_frame(path, with_sha256=True)
    assert digest == serialize.sha256_file(path)
    assert all(np.array_equal(a, b) for a, b in zip(frame.operators, weyl3.operators))


def test_state_and_distribution_digests_name_the_parsed_bytes(tmp_path, weyl3):
    state = tmp_path / "rho.json"
    serialize.save_state(pf.random_density(3, 2), state)
    rho, digest = serialize.load_state(state, with_sha256=True)
    assert digest == serialize.sha256_file(state)
    assert np.array_equal(rho, serialize.load_state(state))
    dist = tmp_path / "mu.csv"
    serialize.save_distribution_csv(dist, weyl3.group, np.full(9, 1 / 9))
    mu, digest = serialize.load_distribution_csv(dist, weyl3.group, with_sha256=True)
    assert digest == serialize.sha256_file(dist)
    assert np.array_equal(mu, serialize.load_distribution_csv(dist, weyl3.group))


def test_undecodable_state_and_distribution_files_are_malformed(tmp_path, weyl3):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(FrameFileError, match="not valid UTF-8"):
        serialize.load_state(path)
    with pytest.raises(FrameFileError, match="not valid UTF-8"):
        serialize.load_distribution_csv(path, weyl3.group)


# -- the cyclic collector is paused while a parse tree lives -------------------

@pytest.fixture
def collections():
    """The generation of each cyclic collection that starts while the fixture is active."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(record)
    yield seen
    gc.callbacks.remove(record)


def test_reading_files_runs_no_cyclic_collection(tmp_path, collections):
    # Each parse tree holds thousands of lists, several times the youngest generation's
    # threshold, so without the pause each read would run collections.
    frame, state, dist = tmp_path / "weyl13.json", tmp_path / "rho.json", tmp_path / "mu.csv"
    serialize.save_frame(pf.weyl_frame(13), frame)
    serialize.save_state(pf.random_density(64, 1), state)  # 4,160 lists
    group = pf.make_group([64, 64])  # 4,097 row lists
    serialize.save_distribution_csv(dist, group, np.full(group.size, 1 / group.size))
    reads = (lambda: serialize.load_frame(frame), lambda: serialize.load_state(state),
             lambda: serialize.load_distribution_csv(dist, group))
    # A first pass fills CPython's free lists. An object pushed onto one still counts as
    # an allocation, so filling them can start one young collection. A full collection
    # empties them, so only the youngest generation is collected before the counted pass.
    for read in reads:
        read()
    gc.collect(0)
    collections.clear()
    for read in reads:
        read()
    assert collections == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_reading_a_file_leaves_the_collector_as_it_found_it(tmp_path, weyl3, enabled):
    good = tmp_path / "weyl3.json"
    serialize.save_frame(weyl3, good)
    data = json.loads(good.read_text())
    data["elements"][4]["matrix"][0][0] = [True, 0.0]
    (malformed := tmp_path / "malformed.json").write_text(json.dumps(data))
    data["elements"][4]["matrix"][0][0] = [5.0, 0.0]
    (tampered := tmp_path / "tampered.json").write_text(json.dumps(data))
    (not_json := tmp_path / "bad.json").write_text("{not json")
    missing = tmp_path / "missing.json"
    serialize.save_state(pf.random_density(3, 2), state := tmp_path / "rho.json")
    serialize.save_distribution_csv(dist := tmp_path / "mu.csv", weyl3.group, np.full(9, 1 / 9))
    reads = [
        (lambda: serialize.load_frame(good), None),
        (lambda: serialize.load_frame(missing), FrameFileError),
        (lambda: serialize.load_frame(not_json), FrameFileError),
        (lambda: serialize.load_frame(malformed), FrameFileError),
        (lambda: serialize.load_frame(tampered), NotProjective),  # fails verification
        (lambda: serialize.load_state(state), None),
        (lambda: serialize.load_state(missing), FrameFileError),
        (lambda: serialize.load_state(not_json), FrameFileError),
        (lambda: serialize.load_distribution_csv(dist, weyl3.group), None),
        (lambda: serialize.load_distribution_csv(missing, weyl3.group), FrameFileError),
        (lambda: serialize.load_distribution_csv(state, weyl3.group), FrameFileError),
    ]
    try:
        (gc.enable if enabled else gc.disable)()
        for read, error in reads:
            if error is None:
                read()
            else:
                with pytest.raises(error):
                    read()
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


# -- byte identity with the stdlib indent=2 encoder ---------------------------

def _stdlib_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _weyl11_read_back(tmp_path):
    path = tmp_path / "weyl11.json"
    serialize.save_frame(pf.weyl_frame(11), path)
    return serialize.load_frame(path)


def _dense_weyl7(tmp_path):
    # After a random unitary conjugation, few floats in the stack repeat.
    weyl7, rng = pf.weyl_frame(7), np.random.default_rng(18)
    u = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))[0]
    frame = pf.ProjectiveFrame(group=weyl7.group, operators=u @ weyl7.operators @ u.conj().T, dim=7)
    assert np.unique(frame.operators.view(np.uint64)).size > 0.95 * 2 * frame.operators.size
    return frame


def _random_z2_pair(tmp_path):
    # 2 * 48 * 48 = 4608 floats: one matrix holds more than the writer's 4096-float block.
    rng = np.random.default_rng(48)
    ops = rng.normal(size=(2, 48, 48)) + 1j * rng.normal(size=(2, 48, 48))
    return pf.ProjectiveFrame(group=pf.make_group([2]), operators=ops, dim=48)


def _partial_last_block(tmp_path):
    # d = 9 takes 4096 // 162 = 25 matrices a block: |G| = 81 leaves 6 in the last one.
    return pf.tensor_frame(pf.weyl_frame(3), pf.weyl_frame(3))


def _signed_zeros(tmp_path):
    # Weyl 5 with every other zero real part and every third zero imaginary part negated.
    ops = pf.weyl_frame(5).operators.copy()
    parts = ops.view(float).reshape(-1, 2)
    for part, step in ((parts[:, 0], 2), (parts[:, 1], 3)):
        zeros = np.flatnonzero(part == 0)[::step]
        part[zeros] = -0.0
    signs = np.signbit(parts) & (parts == 0)
    assert signs.any(axis=0).all() and (~signs & (parts == 0)).any(axis=0).all()
    return pf.ProjectiveFrame(group=pf.make_group([5, 5]), operators=ops, dim=5)


def _random_z12_unitaries(tmp_path):
    # One factor with two-digit residues, so that each residue slot is written wider than its 0.
    rng = np.random.default_rng(12)
    ops = np.linalg.qr(rng.normal(size=(12, 3, 3)) + 1j * rng.normal(size=(12, 3, 3)))[0]
    return pf.ProjectiveFrame(group=pf.make_group([12]), operators=ops, dim=3)


def _weyl3_with_an_entry_in_its_metadata(tmp_path):
    # The metadata's text is element 0's entry, at the same depth, after the elements list.
    weyl3 = pf.weyl_frame(3)
    return pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators, dim=3,
                              metadata={"x": {"g": [0, 0], "matrix": 0}})


LADDER = {
    **{f"weyl{d}": (lambda tmp, d=d: pf.weyl_frame(d)) for d in (3, 5, 7, 9, 11, 13)},
    **{f"leonhardt{d}": (lambda tmp, d=d: pf.leonhardt_frame(d)) for d in (2, 3, 4, 5, 6)},
    "z2cubed": lambda tmp: pf.z2cubed_frame(),
    "qubit-even": lambda tmp: pf.qubit_frame((1, 1, 1)),
    "qubit-odd": lambda tmp: pf.qubit_frame((1, 1, -1)),
    **{f"qubit^{k}": (lambda tmp, k=k: qubit_power(k)) for k in (2, 3, 4)},
    "weyl11-read-back": _weyl11_read_back,
    "weyl7-dense": _dense_weyl7,
    "z2-random48": _random_z2_pair,
    "weyl3^2-partial-block": _partial_last_block,
    "weyl5-signed-zeros": _signed_zeros,
    "trivial": lambda tmp: pf.trivial_frame(),
    "z12-random-unitaries": _random_z12_unitaries,
    "weyl3-entry-metadata": _weyl3_with_an_entry_in_its_metadata,
}


@pytest.mark.parametrize("name", LADDER)
def test_save_frame_writes_the_stdlib_indent_encoding(tmp_path, name):
    frame = LADDER[name](tmp_path)
    path = tmp_path / "frame.json"
    serialize.save_frame(frame, path)
    assert path.read_text(encoding="utf-8") == _stdlib_text(serialize.frame_to_json(frame))


def test_a_read_only_fortran_order_frame_is_written_as_its_c_order_frame(tmp_path, weyl3):
    stack = np.asfortranarray(weyl3.operators)  # owns its memory, not C-contiguous
    stack.setflags(write=False)
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=stack, dim=3, metadata=weyl3.metadata)
    assert frame.operators.flags.c_contiguous
    serialize.save_frame(frame, tmp_path / "fortran.json")
    serialize.save_frame(weyl3, tmp_path / "c.json")
    assert (tmp_path / "fortran.json").read_bytes() == (tmp_path / "c.json").read_bytes()


def _traced_peak_of_save_frame(frame, path) -> int:
    tracemalloc.start()
    try:
        serialize.save_frame(frame, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_frame_peak_memory_stays_below_the_file_size(tmp_path):
    frame, path = pf.weyl_frame(13), tmp_path / "weyl13.json"
    peak = _traced_peak_of_save_frame(frame, path)
    assert peak < path.stat().st_size


@pytest.mark.parametrize("name, bound", [("weyl13", 1.02e6), ("qubit^4", 1.76e6)])
def test_save_frame_peak_memory_stays_below_the_file_size_and_the_bound(tmp_path, name, bound):
    # The bounds are the peaks of the writer that split an |G|-entry skeleton, on Python 3.11.
    path = tmp_path / "frame.json"
    peak = _traced_peak_of_save_frame(LADDER[name](tmp_path), path)
    assert peak < path.stat().st_size
    assert peak <= bound


def test_save_frame_calls_the_stdlib_encoder_a_fixed_number_of_times(tmp_path, monkeypatch):
    frames = {name: LADDER[name](tmp_path) for name in ("weyl3", "weyl13", "qubit^4")}
    rendered = []
    dumps = json.dumps

    def spy(obj, **kwargs):
        rendered.append(dumps(obj, **kwargs))
        return rendered[-1]

    monkeypatch.setattr(serialize.json, "dumps", spy)
    calls = {}
    for name, frame in frames.items():
        rendered.clear()
        serialize.save_frame(frame, tmp_path / f"{name}.json")
        calls[name] = len(rendered)
        # The encoder renders one entry and one 2 x 2 matrix, not |G| entries or a d x d layout.
        assert sum(map(len, rendered)) < 2000 + len(dumps(frame.metadata, indent=2))
    assert len(set(calls.values())) == 1, calls


@pytest.mark.parametrize("existed", [False, True])
def test_a_frame_write_that_fails_partway_removes_only_a_file_it_created(
        tmp_path, second_write_fails, existed):
    path = tmp_path / "weyl13.json"  # Weyl 13 writes 15 blocks of 12 matrices each
    if existed:
        path.write_text("old\n")
    with pytest.raises(OSError, match="No space left on device"):
        serialize.save_frame(pf.weyl_frame(13), path)
    assert len(second_write_fails) == 2 and path.exists() is existed
    if existed:  # overwritten by the first block, not removed
        assert path.read_text(encoding="utf-8").startswith('{\n  "dim": 13,\n')


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_save_state_writes_the_stdlib_indent_encoding(tmp_path, d, seed):
    rho = pf.random_density(d, seed)
    rho[0, -1] = complex(-0.0, 5e-324)
    path = tmp_path / "state.json"
    serialize.save_state(rho, path)
    assert path.read_text(encoding="utf-8") == _stdlib_text(serialize.state_to_json(rho))


@pytest.mark.parametrize("spec", ["mixed", "basis:1", "random-pure:4"])
def test_certificate_file_is_the_stdlib_indent_encoding(tmp_path, weyl3, spec):
    frame_path, out = tmp_path / "weyl3.json", tmp_path / "cert.json"
    serialize.save_frame(weyl3, frame_path)
    assert main(["certify", "--frame", str(frame_path), "--state", spec,
                 "--out", str(out)]) in (0, 4)
    text = out.read_text(encoding="utf-8")
    assert text == _stdlib_text(json.loads(text))
    cert = pf.certify_state(pf.build_representation(weyl3), pf.random_pure(3, 4))
    payload = serialize.certificate_to_json(cert, {"path": "f", "sha256": "x"}, {"kind": "s"})
    serialize.save_json(out, payload)
    assert out.read_text(encoding="utf-8") == _stdlib_text(payload)


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-17, 1e16, 1e22, 1.7976931348623157e308, 0.1, -2.5]
_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
# Keys and strings that look like the writer's matrix slots, at any depth of the metadata.
_SLOT_KEYS = st.sampled_from(["matrix", "elements", "g"])
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text() | _FLOATS
    | st.sampled_from(['"', "\\", "\n", "q\"u\\o\nte", "ünï☃", "\x00", "", '"matrix": 0',
                       '{"matrix": 0}'])
)
_METADATA = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5) | _SLOT_KEYS, inner | st.just(0), max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(orders=st.lists(st.integers(2, 3), max_size=2), d=st.integers(1, 3), data=st.data(),
       metadata=st.dictionaries(st.text(max_size=5) | _SLOT_KEYS, _METADATA, max_size=4))
def test_save_frame_writes_the_stdlib_encoding_of_any_operators_and_metadata(
        orders, d, data, metadata):
    group = pf.make_group(orders)
    parts = data.draw(hnp.arrays(np.float64, (2, group.size, d, d), elements=_FLOATS))
    operators = np.zeros((group.size, d, d), dtype=complex)  # set part by part: keeps -0.0
    operators.real, operators.imag = parts
    frame = pf.ProjectiveFrame(group=group, operators=tuple(operators), dim=d, metadata=metadata)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        serialize.save_frame(frame, path)
        assert path.read_text(encoding="utf-8") == _stdlib_text(serialize.frame_to_json(frame))


def test_metadata_that_mimics_a_matrix_slot_is_written_as_it_is(tmp_path, weyl3):
    metadata = {"matrix": 0, "elements": [{"g": 0, "matrix": 0}], "text": '"matrix": 0'}
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators, dim=3,
                               metadata={"a": metadata, **metadata})
    path = tmp_path / "frame.json"
    serialize.save_frame(frame, path)
    assert path.read_text(encoding="utf-8") == _stdlib_text(serialize.frame_to_json(frame))
    assert serialize.load_frame(path).metadata == frame.metadata


def _cycle():
    loop = {}
    loop["self"] = loop
    return loop


@pytest.mark.parametrize("value", [{1, 2}, np.zeros(2), _cycle()], ids=["set", "ndarray", "cycle"])
def test_frame_metadata_that_is_not_json_is_not_written(tmp_path, weyl3, value):
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators, dim=3,
                               metadata={"value": value})
    path = tmp_path / "frame.json"
    with pytest.raises(FrameFileError, match="cannot write"):
        serialize.save_frame(frame, path)
    assert not path.exists()


# -- the frame reader ---------------------------------------------------------

@pytest.mark.parametrize("mutate, message", [
    (lambda e: e[2].update(matrix=e[2]["matrix"][:2]),
     "operator at (0, 2) has shape (2, 3), frame dim is 3"),
    (lambda e: e[7]["matrix"][1].__setitem__(0, [1.0]), "malformed matrix payload"),
    (lambda e: e[1]["matrix"][0].__setitem__(0, ["x", 0.0]), "malformed matrix payload"),
    (lambda e: e[3]["matrix"][0].__setitem__(0, [10**400, 0.0]), "int too large to convert"),
    (lambda e: e[4]["matrix"][2].__setitem__(2, [float("nan"), 0.0]), "non-finite"),
    (lambda e: (e[5].update(matrix=[[1.0]]), e[6].update(g=[0, 0])),
     "matrix payload has shape (1, 1), expected (rows, cols, 2)"),
    (lambda e: e[4].update(g=[2, 2]), "element (2, 2) at position 4 breaks lexicographic order"),
    (lambda e: e[8].pop("g"), "malformed element entry at position 8"),
])
def test_irregular_frame_file_names_its_first_bad_entry(tmp_path, weyl3, mutate, message):
    data = serialize.frame_to_json(weyl3)
    mutate(data["elements"])
    with pytest.raises(FrameFileError) as info:
        serialize.frame_from_json(data)
    assert message in str(info.value)


@pytest.mark.parametrize("literal, message", [
    ('"x"', "expected JSON numbers, got a bool or a string"),
    ("1" + "0" * 400, "int too large to convert to float"),
])
def test_a_file_without_true_or_false_names_its_bad_entry(tmp_path, literal, message):
    # With no true or false in the text, the reader takes each matrix's dtype on trust.
    payload = serialize.frame_to_json(pf.weyl_frame(3))
    payload["elements"][4]["matrix"][1][1][1] = "@@"
    text = json.dumps(payload).replace('"@@"', literal)
    assert "true" not in text and "false" not in text
    path = tmp_path / "frame.json"
    path.write_text(text)
    with pytest.raises(FrameFileError) as info:
        serialize.load_frame(path)
    assert str(info.value) == f"element (1, 1) at position 4: malformed matrix payload: {message}"


# -- write, read, write: the same bytes ---------------------------------------

# Ladder frames small enough to tensor in a test; the largest product is |G| = 256, d = 8.
FACTORS = {
    "weyl3": lambda: pf.weyl_frame(3),
    "weyl5": lambda: pf.weyl_frame(5),
    "leonhardt2": lambda: pf.leonhardt_frame(2),
    "z2cubed": pf.z2cubed_frame,
    "qubit-even": pf.qubit_frame,
    "qubit-odd": lambda: pf.qubit_frame((1, 1, -1)),
    "trivial": pf.trivial_frame,
}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _rewritten(path, read, write) -> bytes:
    """The bytes of ``path`` after one read and one write back."""
    again = path.with_name("again-" + path.name)
    write(read(path), again)
    return again.read_bytes()


@settings(max_examples=30, deadline=None)
@given(first=st.sampled_from(sorted(FACTORS)), second=st.sampled_from(sorted(FACTORS)))
def test_frame_files_round_trip_byte_for_byte(first, second):
    frame = pf.tensor_frame(FACTORS[first](), FACTORS[second]())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        serialize.save_frame(frame, path)
        assert _rewritten(path, serialize.load_frame, serialize.save_frame) == path.read_bytes()


@pytest.mark.parametrize("name", [n for n in LADDER if n not in ("weyl11-read-back", "z2-random48",
                                                                  "z12-random-unitaries")])
def test_ladder_frame_files_round_trip_byte_for_byte(tmp_path, name):
    path = tmp_path / "frame.json"
    serialize.save_frame(LADDER[name](tmp_path), path)
    assert _rewritten(path, serialize.load_frame, serialize.save_frame) == path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), data=st.data())
def test_state_files_round_trip_byte_for_byte(d, data):
    kind = data.draw(st.sampled_from(["density", "pure", "herm", "floats"]))
    seed = data.draw(st.integers(0, 2**16))
    if kind == "floats":  # any finite entries, signed zeros and subnormals included
        rho = np.zeros((d, d), dtype=complex)  # set part by part: a sum drops -0.0 signs
        rho.real, rho.imag = data.draw(hnp.arrays(np.float64, (2, d, d), elements=_FINITE))
    else:
        make = {"density": pf.random_density, "pure": pf.random_pure,
                "herm": pf.random_hermitian_trace1}[kind]
        rho = make(max(d, 2), seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        serialize.save_state(rho, path)
        assert _rewritten(path, serialize.load_state, serialize.save_state) == path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(orders=st.lists(st.integers(2, 5), min_size=1, max_size=3), data=st.data())
def test_distribution_csvs_round_trip_byte_for_byte(orders, data):
    group = pf.make_group(orders)
    mu = data.draw(hnp.arrays(np.float64, group.size, elements=_FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mu.csv"
        serialize.save_distribution_csv(path, group, mu)
        again = serialize.load_distribution_csv(path, group)
        assert serialize.distribution_csv_bytes(group, again) == path.read_bytes()
