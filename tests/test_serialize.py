import json

import numpy as np
import pytest

import phaseframe as pf
from phaseframe import serialize
from phaseframe.errors import FrameFileError, NotProjective, ShapeMismatch


def test_frame_roundtrip_is_bitwise(tmp_path, weyl3):
    path = tmp_path / "weyl3.json"
    serialize.save_frame(weyl3, path)
    loaded = serialize.load_frame(path)
    assert loaded.group.orders == weyl3.group.orders
    assert loaded.dim == weyl3.dim
    for a, b in zip(loaded.operators, weyl3.operators):
        assert np.array_equal(a, b)
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
