import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaseframe as pf
from phaseframe import groups, serialize
from phaseframe.cli import main, parse_state_spec


@pytest.fixture(scope="module")
def frame_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("frames")
    paths = {}
    for name, argv in {
        "weyl3": ["frame", "build", "weyl", "--d", "3"],
        "weyl5": ["frame", "build", "weyl", "--d", "5"],
        "qubit": ["frame", "build", "qubit", "--signs", "+,+,+"],
        "z2cubed": ["frame", "build", "z2cubed"],
        "leonhardt2": ["frame", "build", "leonhardt", "--d", "2"],
    }.items():
        out = root / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        paths[name] = out
    return paths


def test_group_character_table(capsys):
    assert main(["group", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "|G| = 4" in out
    assert "(1,1)" in out
    # All entries are +-1 for a binary group.
    assert "+1.0000" in out and "-1.0000" in out


def test_group_check_hadamard(capsys):
    assert main(["group", "3", "--check-hadamard"]) == 0
    out = capsys.readouterr().out
    assert "hadamard check: PASS" in out


def test_group_rejects_order_one(capsys):
    assert main(["group", "1"]) == 1


def test_frame_build_weyl_verify(tmp_path, capsys):
    out = tmp_path / "weyl3.json"
    code = main(["frame", "build", "weyl", "--d", "3", "--out", str(out), "--verify"])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    assert "faithful: True" in text


def test_frame_build_weyl_even_dimension(tmp_path, capsys):
    out = tmp_path / "weyl4.json"
    assert main(["frame", "build", "weyl", "--d", "4", "--out", str(out)]) == 1
    assert "leonhardt" in capsys.readouterr().err
    assert not out.exists()


def test_frame_build_qubit_metadata(tmp_path):
    out = tmp_path / "qubit.json"
    assert main(["frame", "build", "qubit", "--signs", "+,+,-", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["parameters"]["parity"] == -1
    assert data["metadata"]["parameters"]["signs"] == [1, 1, -1]


def test_frame_build_qubit_leading_minus_sign(tmp_path):
    # A value starting with '-' must be passed as --signs=... to survive argparse.
    out = tmp_path / "qubit.json"
    assert main(["frame", "build", "qubit", "--signs=-,-,+", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["parameters"]["signs"] == [-1, -1, 1]
    assert data["metadata"]["parameters"]["parity"] == 1


def test_frame_build_tensor(tmp_path, frame_files):
    out = tmp_path / "tensor.json"
    code = main([
        "frame", "build", "tensor",
        "--a", str(frame_files["qubit"]),
        "--b", str(frame_files["qubit"]),
        "--out", str(out), "--verify",
    ])
    assert code == 0
    frame = serialize.load_frame(out)
    assert frame.dim == 4 and frame.group.size == 16


def test_frame_build_outputs_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["frame", "build", "weyl", "--d", "3", "--out", str(a)]) == 0
    assert main(["frame", "build", "weyl", "--d", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_represent_basis_state(tmp_path, frame_files):
    out = tmp_path / "mu.csv"
    code = main([
        "represent", "--frame", str(frame_files["weyl3"]),
        "--state", "basis:0", "--out", str(out),
    ])
    assert code == 0
    group = pf.make_group([3, 3])
    mu = serialize.load_distribution_csv(out, group)
    np.testing.assert_allclose(np.sort(mu), [0] * 6 + [1 / 3] * 3, atol=1e-12)


def test_represent_mixed_state(tmp_path, frame_files):
    out = tmp_path / "mu.csv"
    assert main([
        "represent", "--frame", str(frame_files["weyl3"]),
        "--state", "mixed", "--out", str(out),
    ]) == 0
    mu = serialize.load_distribution_csv(out, pf.make_group([3, 3]))
    np.testing.assert_allclose(mu, np.full(9, 1 / 9), atol=1e-12)


def test_represent_qubit_normalization(tmp_path, frame_files):
    out = tmp_path / "mu.csv"
    assert main([
        "represent", "--frame", str(frame_files["qubit"]),
        "--state", "basis:0", "--out", str(out),
    ]) == 0
    mu = serialize.load_distribution_csv(out, pf.make_group([2, 2]))
    assert np.sum(mu) == pytest.approx(1.0, abs=1e-12)


def test_represent_writes_phi(tmp_path, frame_files):
    out = tmp_path / "mu.csv"
    phi_out = tmp_path / "phi.csv"
    assert main([
        "represent", "--frame", str(frame_files["weyl3"]),
        "--state", "mixed", "--out", str(out), "--phi", str(phi_out),
    ]) == 0
    lines = phi_out.read_text().splitlines()
    assert lines[0] == "element_tuple,re,im"
    assert len(lines) == 10


def test_represent_is_deterministic(tmp_path, frame_files):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main([
            "represent", "--frame", str(frame_files["weyl3"]),
            "--state", "random-pure:5", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_represent_dimension_mismatch(tmp_path, frame_files, capsys):
    state = tmp_path / "state.json"
    serialize.save_state(pf.maximally_mixed(2), state)
    out = tmp_path / "mu.csv"
    code = main([
        "represent", "--frame", str(frame_files["weyl3"]),
        "--state-file", str(state), "--out", str(out),
    ])
    assert code == 1


def test_certify_stabilizer_exit_zero(tmp_path, frame_files):
    out = tmp_path / "cert.json"
    code = main([
        "certify", "--frame", str(frame_files["weyl3"]),
        "--state", "basis:0", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdicts"]["is_positively_representable"] is True
    assert data["frame"]["sha256"]


def test_certify_invalid_literal_exit_three(tmp_path, frame_files):
    state = tmp_path / "state.json"
    serialize.save_state(np.diag([1.5, -0.5]).astype(complex), state)
    code = main([
        "certify", "--frame", str(frame_files["qubit"]),
        "--state-file", str(state),
    ])
    assert code == 3


def test_certify_random_pure_exit_four(frame_files):
    # Negatively represented for these recorded seeds.
    for seed in (1, 2, 3):
        code = main([
            "certify", "--frame", str(frame_files["weyl3"]),
            "--state", f"random-pure:{seed}",
        ])
        assert code == 4


def test_certify_distribution_input(tmp_path, frame_files, capsys):
    mu_path = tmp_path / "mu.csv"
    assert main([
        "represent", "--frame", str(frame_files["weyl3"]),
        "--state", "basis:1", "--out", str(mu_path),
    ]) == 0
    cert_path = tmp_path / "cert.json"
    code = main([
        "certify", "--frame", str(frame_files["weyl3"]),
        "--distribution", str(mu_path), "--out", str(cert_path),
    ])
    assert code == 0
    data = json.loads(cert_path.read_text())
    assert data["state"]["kind"] == "distribution"
    assert data["input_mu_min"] >= -1e-12


def test_certify_a_distribution_at_the_boundary_exits_five(tmp_path, frame_files, capsys):
    # mu of basis:0 on Weyl 3 with a zero entry lowered by 1e-9 and the largest raised by
    # 1e-9: still normalized, and negative by less than the band, so the certificate's
    # spectra and the oracle's disagree at this tolerance.
    frame = serialize.load_frame(frame_files["weyl3"])
    mu = pf.represent(pf.build_representation(frame), pf.basis_state(3, 0))
    mu[np.flatnonzero(mu == 0)[0]] -= 1e-9
    mu[np.argmax(mu)] += 1e-9
    path = tmp_path / "mu.csv"
    path.write_bytes(serialize.distribution_csv_bytes(frame.group, mu))
    capsys.readouterr()
    assert main(["certify", "--frame", str(frame_files["weyl3"]),
                 "--distribution", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith(
        "verdict: BOUNDARY (certificate and oracle disagree at this tolerance)\n")


@pytest.mark.parametrize("spec, state", [
    ("conjugate:2", lambda: pf.conjugate_basis_state(5, 2)),
    ("random-density:7", lambda: pf.random_density(5, 7)),
    ("random-herm:7", lambda: pf.random_hermitian_trace1(5, 7)),
])
def test_parse_state_spec_builds_the_named_state(spec, state):
    np.testing.assert_array_equal(parse_state_spec(spec, 5), state())


def test_parse_state_spec_rejects_a_malformed_argument():
    with pytest.raises(pf.PhaseFrameError, match="malformed state spec 'basis:x': invalid literal"):
        parse_state_spec("basis:x", 3)


def test_certify_bad_state_spec(frame_files, capsys):
    assert main([
        "certify", "--frame", str(frame_files["weyl3"]), "--state", "nonsense:1",
    ]) == 1


def _corrupted_qubit_frame(tmp_path):
    """A good qubit frame file and a copy with one non-unitary operator."""
    good = tmp_path / "good.json"
    assert main(["frame", "build", "qubit", "--out", str(good)]) == 0
    data = json.loads(good.read_text())
    data["elements"][2]["matrix"][0][0] = [3.0, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    return good, bad


CORRUPTED_FRAME_ERR = ("error: frame verification failed: operator not unitary: "
                       "residual 1.000e+01 exceeds 2.000e-09\n")


def test_certify_corrupted_frame_exit_two(tmp_path, capsys):
    _, bad = _corrupted_qubit_frame(tmp_path)
    capsys.readouterr()
    code = main(["certify", "--frame", str(bad), "--state", "mixed"])
    assert code == 2
    assert capsys.readouterr().err == CORRUPTED_FRAME_ERR


@pytest.mark.parametrize("argv", [
    ["represent", "--frame", "{bad}", "--state", "mixed", "--out", "{out}"],
    ["scan", "--frame", "{bad}", "--family", "random-pure", "--count", "2", "--out", "{out}"],
    ["frame", "build", "tensor", "--a", "{bad}", "--b", "{good}", "--out", "{out}"],
    ["frame", "build", "tensor", "--a", "{good}", "--b", "{bad}", "--out", "{out}"],
], ids=["represent", "scan", "tensor-a", "tensor-b"])
def test_every_frame_reader_exits_two_on_a_corrupted_frame(tmp_path, capsys, argv):
    good, bad = _corrupted_qubit_frame(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([a.format(good=good, bad=bad, out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", CORRUPTED_FRAME_ERR)
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["weyl"], "frame build weyl requires --d"),
    (["leonhardt"], "frame build leonhardt requires --d"),
    (["tensor"], "frame build tensor requires --a and --b frame files"),
    (["tensor", "--a", "{qubit}"], "frame build tensor requires --a and --b frame files"),
    (["tensor", "--b", "{qubit}"], "frame build tensor requires --a and --b frame files"),
    (["qubit", "--signs", "+,+"],
     "--signs expects three comma-separated +/- entries, got '+,+'"),
], ids=["weyl-no-d", "leonhardt-no-d", "tensor-no-files", "tensor-no-b", "tensor-no-a",
        "two-signs"])
def test_frame_build_argument_errors_exit_one(tmp_path, frame_files, capsys, argv, message):
    out = tmp_path / "frame.json"
    args = [a.format(qubit=frame_files["qubit"]) for a in argv]
    capsys.readouterr()
    assert main(["frame", "build", *args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_scan_stabilizers(tmp_path, frame_files, capsys):
    out = tmp_path / "scan.csv"
    code = main([
        "scan", "--frame", str(frame_files["weyl3"]),
        "--family", "stabilizers", "--out", str(out),
    ])
    assert code == 0
    assert "12 valid / 12 positive of 12 states" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("index,label,")


def test_scan_zero_count(tmp_path, frame_files, capsys):
    out = tmp_path / "scan.csv"
    code = main([
        "scan", "--frame", str(frame_files["weyl3"]),
        "--family", "random-pure", "--count", "0", "--seed", "42",
        "--out", str(out),
    ])
    assert code == 0
    assert "0 valid / 0 positive of 0 states" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 1


def test_scan_random_family_deterministic(tmp_path, frame_files):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main([
            "scan", "--frame", str(frame_files["weyl3"]),
            "--family", "random-pure", "--count", "10", "--seed", "42",
            "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_seed42_regression(tmp_path, frame_files, capsys):
    # Frozen at the first verified run: no seed-42 Haar-random pure state in
    # d = 3 lands in the nonnegative polytope.
    out = tmp_path / "scan.csv"
    code = main([
        "scan", "--frame", str(frame_files["weyl3"]),
        "--family", "random-pure", "--count", "100", "--seed", "42",
        "--out", str(out),
    ])
    assert code == 0
    assert "100 valid / 0 positive of 100 states" in capsys.readouterr().out


def test_scan_requires_count_for_random(frame_files, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main([
        "scan", "--frame", str(frame_files["weyl3"]),
        "--family", "random-pure", "--out", str(out),
    ]) == 1


@pytest.mark.parametrize("family", ["random-pure", "random-density", "random-herm"])
def test_scan_rejects_a_negative_seed(tmp_path, frame_files, capsys, family):
    out = tmp_path / "scan.csv"
    capsys.readouterr()
    assert main(["scan", "--frame", str(frame_files["weyl3"]), "--family", family,
                 "--count", "3", "--seed", "-5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --seed must be >= 0, got -5\n")
    assert not out.exists()


def test_group_rejects_a_negative_precision(capsys):
    assert main(["group", "2", "2", "--precision", "-1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --precision must be >= 0, got -1\n")


@pytest.mark.parametrize("precision", [18, 2147483648, 10**20])
def test_group_rejects_a_precision_beyond_a_full_double(capsys, precision):
    # 17 digits write any double in full; larger values once printed half the table and
    # then a raw ValueError, or formatted a gigabyte string per entry.
    assert main(["group", "2", "--precision", str(precision)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: --precision must be <= 17, got {precision}\n")


def test_group_prints_at_full_double_precision(capsys):
    assert main(["group", "2", "--precision", "17"]) == 0
    assert "  (1)  +1.00000000000000000+0.00000000000000000j -1.00000000000000000" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["frame", "build", "qubit"],
    ["represent", "--frame", "{qubit}", "--state", "mixed"],
    ["certify", "--frame", "{qubit}", "--state", "mixed"],
    ["scan", "--frame", "{qubit}", "--family", "random-pure", "--count", "2"],
], ids=["frame-build", "represent", "certify", "scan"])
def test_an_output_under_a_missing_directory_exits_one(tmp_path, frame_files, capsys, argv):
    out = tmp_path / "missing" / "out"
    capsys.readouterr()
    assert main([a.format(qubit=frame_files["qubit"]) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(out) in err and not out.parent.exists()


def test_usage_error_exit_code():
    assert main(["frame", "build", "nosuchkind", "--out", "x.json"]) == 1


def _nan_frame(tmp_path, frame_files):
    data = json.loads(frame_files["weyl3"].read_text())
    data["elements"][1]["matrix"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan-frame.json"
    path.write_text(json.dumps(data))
    return ["--frame", str(path), "--state", "mixed"]


def _nan_state(tmp_path, frame_files):
    rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    rho[2, 2] = np.nan
    path = tmp_path / "nan-state.json"
    serialize.save_state(rho, path)
    return ["--frame", str(frame_files["weyl3"]), "--state-file", str(path)]


def _nan_distribution(tmp_path, frame_files):
    path = tmp_path / "nan-mu.csv"
    assert main([
        "represent", "--frame", str(frame_files["weyl3"]),
        "--state", "mixed", "--out", str(path),
    ]) == 0
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    return ["--frame", str(frame_files["weyl3"]), "--distribution", str(path)]


@pytest.mark.parametrize("make_args", [_nan_frame, _nan_state, _nan_distribution])
def test_certify_rejects_non_finite_input(make_args, tmp_path, frame_files, capsys):
    args = make_args(tmp_path, frame_files)
    capsys.readouterr()
    assert main(["certify", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err
    assert "Traceback" not in err


def test_certify_reads_each_input_file_once(tmp_path, frame_files, monkeypatch):
    state = tmp_path / "state.json"
    serialize.save_state(pf.random_density(3, 7), state)
    dist = tmp_path / "mu.csv"
    assert main(["represent", "--frame", str(frame_files["weyl3"]),
                 "--state", "basis:0", "--out", str(dist)]) == 0
    reads = []
    for method in ("read_bytes", "read_text"):
        original = getattr(Path, method)

        def counting(self, *args, _original=original, **kwargs):
            reads.append(Path(self).name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counting)
    for flag, path in (("--state-file", state), ("--distribution", dist)):
        reads.clear()
        out = tmp_path / f"cert-{path.stem}.json"
        assert main(["certify", "--frame", str(frame_files["weyl3"]),
                     flag, str(path), "--out", str(out)]) in (0, 4)
        assert sorted(reads) == sorted(["weyl3.json", path.name])
        payload = json.loads(out.read_text())
        assert payload["state"]["sha256"] == serialize.sha256_file(path)


def _frame_file_with_orders(tmp_path, orders):
    path = tmp_path / "orders.json"
    payload = serialize.frame_to_json(pf.qubit_frame())
    payload["group"]["orders"] = orders
    payload["elements"] = payload["elements"][:1]
    path.write_text(json.dumps(payload))
    return path


def test_huge_group_file_is_rejected_before_the_group_is_built(tmp_path, capsys, monkeypatch):
    # |G| = 2^40: enumerating the group would never finish, so building it fails the test.
    def no_group(orders):
        raise AssertionError(f"group {orders} built before the element count was checked")

    monkeypatch.setattr(serialize, "make_group", no_group)
    path = _frame_file_with_orders(tmp_path, [1048576, 1048576])
    capsys.readouterr()
    assert main(["certify", "--frame", str(path), "--state", "mixed"]) == 1
    err = capsys.readouterr().err
    assert err == "error: frame file lists 1 elements, group has 1099511627776\n"


def test_group_above_the_size_limit_exits_one(capsys, no_enumeration):
    capsys.readouterr()
    assert main(["group", "1048576", "1048576"]) == 1
    assert capsys.readouterr().err == (
        f"error: group of order 1099511627776 exceeds {groups.MAX_GROUP_SIZE}\n"
    )


def test_frame_file_above_the_size_limit_exits_two(tmp_path, capsys, qubit_ppp, no_enumeration):
    size = groups.MAX_GROUP_SIZE + 1
    payload = serialize.frame_to_json(qubit_ppp)
    payload["group"]["orders"] = [size]
    payload["elements"] = [{"g": [k], "matrix": payload["elements"][0]["matrix"]}
                           for k in range(size)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", "--frame", str(path), "--state", "mixed"]) == 2
    assert capsys.readouterr().err == ("error: frame verification failed: "
                                       f"group of order {size} exceeds {size - 1}\n")


def test_order_below_two_in_a_frame_file_stays_invalid_order(tmp_path, capsys):
    path = _frame_file_with_orders(tmp_path, [1, 4])
    capsys.readouterr()
    assert main(["certify", "--frame", str(path), "--state", "mixed"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: frame verification failed: "
                   "cyclic factor order must be >= 2, got 1\n")


@pytest.mark.parametrize("orders", [5, ["a", 2]])
def test_malformed_orders_in_a_frame_file_exit_one(tmp_path, capsys, orders):
    path = _frame_file_with_orders(tmp_path, orders)
    capsys.readouterr()
    assert main(["certify", "--frame", str(path), "--state", "mixed"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed group orders")


def _run_module(module, *args):
    """Run ``python -m module args`` on the imported package, returning the process."""
    env = dict(os.environ)
    src = str(Path(pf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["phaseframe", "phaseframe.cli"])
def test_module_entry_points_run_the_cli(module, tmp_path):
    expected = tmp_path / "in_process.json"
    assert main(["frame", "build", "weyl", "--d", "3", "--out", str(expected)]) == 0
    out = tmp_path / "module.json"
    done = _run_module(module, "frame", "build", "weyl", "--d", "3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == expected.read_bytes()
    bad = _run_module(module, "frame", "build", "weyl", "--d")
    assert bad.returncode == 1
    assert "expected one argument" in bad.stderr


@pytest.mark.parametrize("name, index, code, error", [
    ("leonhardt2", 0, 1, "error: distribution is outside the range of the representation: "
                         "the mu of its reconstructed operator deviates by up to 7.500e-01\n"),
    # its operator has trace 0; the range is named, not the trace
    ("leonhardt2", 1, 1, "error: distribution is outside the range of the representation: "
                         "the mu of its reconstructed operator deviates by up to 7.500e-01\n"),
    ("z2cubed", 0, 3, ""),  # in range: its operator is certified, and is not a state
    ("z2cubed", 4, 1, "error: distribution is outside the range of the representation: "
                      "the mu of its reconstructed operator deviates by up to 1.000e+00\n"),
])
def test_certify_distribution_certifies_only_the_distribution_it_was_given(
        name, index, code, error, tmp_path, frame_files, capsys):
    group = serialize.load_frame(frame_files[name]).group
    mu_path, cert_path = tmp_path / "mu.csv", tmp_path / "cert.json"
    serialize.save_distribution_csv(mu_path, group, np.eye(group.size)[index])
    capsys.readouterr()
    assert main(["certify", "--frame", str(frame_files[name]), "--distribution", str(mu_path),
                 "--out", str(cert_path)]) == code
    assert capsys.readouterr().err == error
    if error:
        assert not cert_path.exists()
    else:
        mu = json.loads(cert_path.read_text())["mu"]
        np.testing.assert_allclose(mu, np.eye(group.size)[index], rtol=0, atol=1e-14)


def test_represent_leaves_no_file_when_phi_cannot_be_written(tmp_path, frame_files, capsys):
    out, phi = tmp_path / "mu.csv", tmp_path / "missing" / "phi.csv"
    capsys.readouterr()
    assert main(["represent", "--frame", str(frame_files["qubit"]), "--state", "mixed",
                 "--out", str(out), "--phi", str(phi)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{phi}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, phi", [("d.csv", "d.csv"), ("./d.csv", "d.csv"),
                                      ("d.csv", "sub/../d.csv")])
def test_represent_rejects_out_and_phi_that_name_one_file(
        tmp_path, frame_files, monkeypatch, capsys, out, phi):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["represent", "--frame", str(frame_files["qubit"]), "--state", "mixed",
                 "--out", out, "--phi", phi]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out} and --phi {phi} name the same file\n"
    assert not (tmp_path / "d.csv").exists()


def test_represent_checks_its_output_paths_before_it_reads_the_frame(tmp_path, capsys):
    assert main(["represent", "--frame", str(tmp_path / "missing.json"), "--state", "mixed",
                 "--out", str(tmp_path / "d.csv"), "--phi", str(tmp_path / "d.csv")]) == 1
    assert "name the same file" in capsys.readouterr().err


def test_frame_build_that_fails_partway_exits_one_and_leaves_no_file(
        tmp_path, second_write_fails, capsys):
    out = tmp_path / "weyl13.json"  # the frame writer streams: the first block is written
    assert main(["frame", "build", "weyl", "--d", "13", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert len(second_write_fails) == 2 and list(tmp_path.iterdir()) == []


def test_represent_overwrites_an_existing_out_and_keeps_it_when_phi_fails(tmp_path, frame_files):
    # Only files the call created are removed: an --out that was there stays.
    out = tmp_path / "mu.csv"
    out.write_text("old\n")
    assert main(["represent", "--frame", str(frame_files["qubit"]), "--state", "mixed",
                 "--out", str(out), "--phi", str(tmp_path / "missing" / "phi.csv")]) == 1
    assert out.exists()
