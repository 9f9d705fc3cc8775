"""The frame invariant pass: its 2-cocycle check, its memory bound, and its memo."""

import itertools
import tracemalloc

import numpy as np
import pytest

import phaseframe as pf
from phaseframe import frames
from phaseframe.cli import main
from phaseframe.errors import NotAFrame

BUILTIN = ["weyl3", "weyl5", "qubit_ppp", "qubit_ppm", "tensor_qq", "leonhardt2", "z2cubed"]


def brute_force_identity_residual(group, values):
    """Worst |alpha(a,b) alpha(ab,c) - alpha(b,c) alpha(a,bc)|, one triple at a time."""
    mul = group._mul
    worst = 0.0
    for a, b, c in itertools.product(range(group.size), repeat=3):
        lhs = values[a, b] * values[mul[a, b], c]
        rhs = values[b, c] * values[a, mul[b, c]]
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.fixture
def count_extractions(monkeypatch):
    """Count calls of the cocycle extraction helper from here on."""
    calls = []
    original = frames._extract_cocycle

    def counting(group, stack):
        calls.append(group.orders)
        return original(group, stack)

    monkeypatch.setattr(frames, "_extract_cocycle", counting)
    return calls


# --------------------------------------------------------------------------
# the 2-cocycle identity check


@pytest.mark.parametrize("name", BUILTIN)
def test_identity_check_matches_brute_force_on_builtin_tables(name, request):
    frame = request.getfixturevalue(name)
    values = pf.cocycle_table(frame).values
    chunked = frames._cocycle_identity_residual(frame.group, values)
    brute = brute_force_identity_residual(frame.group, values)
    assert chunked < 1e-12 and brute < 1e-12
    assert chunked == pytest.approx(brute, abs=1e-15)


@pytest.mark.parametrize("name", ["weyl3", "leonhardt2", "z2cubed"])
def test_identity_check_fires_on_one_perturbed_entry(name, request):
    frame = request.getfixturevalue(name)
    values = np.array(pf.cocycle_table(frame).values)
    values[1, 2] *= np.exp(1e-3j)
    chunked = frames._cocycle_identity_residual(frame.group, values)
    brute = brute_force_identity_residual(frame.group, values)
    assert brute > 1e-4
    assert chunked == pytest.approx(brute, rel=1e-9)


def test_identity_check_on_four_qubits_stays_in_quadratic_memory(qubit_ppp):
    frame = qubit_ppp
    for _ in range(3):
        frame = pf.tensor_frame(frame, qubit_ppp)
    assert frame.group.size == 256
    values = pf.cocycle_table(frame).values
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        residual = frames._cocycle_identity_residual(frame.group, values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert residual < 1e-12
    # Three |G|^3 complex temporaries would take about 800 MB.
    assert peak < 50 * 2**20


# --------------------------------------------------------------------------
# the memo


@pytest.fixture(scope="module")
def weyl3_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("memo")
    frame = root / "weyl3.json"
    assert main(["frame", "build", "weyl", "--d", "3", "--out", str(frame)]) == 0
    dist = root / "dist.csv"
    assert main(["represent", "--frame", str(frame), "--state", "basis:0",
                 "--out", str(dist)]) == 0
    return frame, dist


@pytest.mark.parametrize("argv", [
    ["certify", "--state", "random-pure:3"],
    ["certify", "--distribution", "DIST"],
    ["scan", "--family", "random-density", "--count", "5"],
    ["scan", "--family", "stabilizers"],
])
def test_cli_call_extracts_the_cocycle_once(argv, weyl3_files, tmp_path, count_extractions):
    frame, dist = weyl3_files
    argv = [str(dist) if arg == "DIST" else arg for arg in argv]
    rc = main([argv[0], "--frame", str(frame), *argv[1:], "--out", str(tmp_path / "out")])
    assert rc in (0, 4)
    assert len(count_extractions) == 1


def test_new_tolerance_reverifies(count_extractions):
    frame = pf.weyl_frame(3)
    assert len(count_extractions) == 1
    default = pf.cocycle_table(frame)
    assert pf.cocycle_table(frame, pf.Tolerance()) is default
    assert len(count_extractions) == 1
    loose = pf.cocycle_table(frame, pf.Tolerance(1e-6, 1e-6))
    assert len(count_extractions) == 2
    assert loose is not default
    np.testing.assert_allclose(loose.values, default.values, atol=1e-15)
    assert pf.cocycle_table(frame, pf.Tolerance(1e-6, 1e-6)) is loose
    assert len(count_extractions) == 2


def test_frame_owns_its_operators(weyl3):
    source = np.stack([np.array(op) for op in weyl3.operators])
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=tuple(source), dim=3)
    pf.validate_frame(frame)
    source[1] *= 1j
    np.testing.assert_array_equal(frame.operators[1], weyl3.operators[1])
    assert source.flags.writeable
    pf.validate_frame(frame)
    with pytest.raises(ValueError):
        frame.stack()[1, 0, 0] = 0.0


def test_cocycle_table_of_a_non_spanning_family():
    # I and Z over Z_2 multiply projectively but span 2 of 4 matrix dimensions.
    group = pf.make_group([2])
    frame = pf.ProjectiveFrame(group=group, operators=(np.eye(2), np.diag([1.0, -1.0])), dim=2)
    np.testing.assert_allclose(pf.cocycle_table(frame).values, np.ones((2, 2)), atol=1e-15)
    with pytest.raises(NotAFrame, match="span only 2 of 4"):
        pf.validate_frame(frame)
