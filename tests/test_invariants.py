"""The frame invariant pass: its 2-cocycle check, its memory bound, and its memo."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import frames
from phaseframe.cli import main
from phaseframe.errors import NotAFrame, NotProjective

from conftest import all_pairs, broadcast_tables, haar_unitary, qubit_power

# The exact route's cocycle is a table of roots of unity stored within a few ulp, so
# a defect that is 0 in exact arithmetic reads up to about 16 eps in the oracle's
# floating-point products; the dense route's bounds are far above this.
ORACLE_ROUNDING = 16 * np.finfo(float).eps

BUILTIN = ["weyl3", "weyl5", "qubit_ppp", "qubit_ppm", "tensor_qq", "leonhardt2", "z2cubed"]


@functools.cache
def builtin_stack(name):
    """(group, operator stack) of a small built-in frame, built once."""
    frame = {
        "weyl3": lambda: pf.weyl_frame(3),
        "leonhardt2": lambda: pf.leonhardt_frame(2),
        "z2cubed": pf.z2cubed_frame,
        "tensor_qq": lambda: pf.tensor_frame(pf.qubit_frame(), pf.qubit_frame()),
    }[name]()
    return frame.group, frame.operators


def brute_force_identity_residual(group, values):
    """Worst |alpha(a,b) alpha(ab,c) - alpha(b,c) alpha(a,bc)|, one triple at a time."""
    mul = broadcast_tables(group)[0]
    worst = 0.0
    for a, b, c in itertools.product(range(group.size), repeat=3):
        lhs = values[a, b] * values[mul[a, b], c]
        rhs = values[b, c] * values[a, mul[b, c]]
        worst = max(worst, abs(lhs - rhs))
    return worst


def identity_row_and_oracle(group, operators):
    """The invariant pass's cocycle_identity row for ``operators``, and the
    brute-force defect of the cocycle table that pass extracted."""
    frame = pf.ProjectiveFrame(group=group, operators=operators, dim=operators[0].shape[0])
    found = frames._invariant_pass(frame, pf.DEFAULT_TOL)
    return found.residuals["cocycle_identity"][0], brute_force_identity_residual(
        group, found.cocycle().values)


@pytest.fixture
def count_passes(monkeypatch):
    """Count invariant passes, each of which derives the cocycle, from here on."""
    calls = []
    original = frames._invariant_pass

    def counting(frame, tol):
        calls.append(frame.group.orders)
        return original(frame, tol)

    monkeypatch.setattr(frames, "_invariant_pass", counting)
    return calls


# --------------------------------------------------------------------------
# the 2-cocycle identity check: the row bounds every triple's defect


@pytest.mark.parametrize("name", BUILTIN)
def test_identity_check_matches_brute_force_on_builtin_tables(name, request):
    frame = request.getfixturevalue(name)
    bound, brute = identity_row_and_oracle(frame.group, frame.operators)
    assert brute < 1e-12
    assert brute <= bound + ORACLE_ROUNDING
    assert bound <= pf.DEFAULT_TOL.band(1.0)
    assert frame._verified[pf.DEFAULT_TOL].residuals["cocycle_identity"][0] == bound


@pytest.mark.parametrize("build", [lambda: pf.weyl_frame(7), lambda: pf.leonhardt_frame(3),
                                   lambda: pf.qubit_frame((-1, -1, -1))],
                         ids=["weyl7", "leonhardt3", "qubit_mmm"])
def test_identity_row_bounds_every_triple_on_larger_builtin_frames(build):
    frame = build()
    bound, brute = identity_row_and_oracle(frame.group, frame.operators)
    assert brute <= bound + ORACLE_ROUNDING
    assert bound <= pf.DEFAULT_TOL.band(1.0)


@pytest.mark.parametrize("name", ["weyl3", "leonhardt2", "z2cubed"])
def test_identity_check_fires_on_one_perturbed_entry(name, request):
    frame = request.getfixturevalue(name)
    ops = np.array(frame.operators)
    # A nonzero entry: perturbing a zero one moves the table only at second order.
    ops[1, 0, np.flatnonzero(ops[1, 0])[0]] += 1e-3 * np.exp(0.7j)
    bound, brute = identity_row_and_oracle(frame.group, ops)
    assert brute > 1e-4
    assert brute <= bound
    assert bound > pf.DEFAULT_TOL.band(1.0)
    # The row itself fires, not only the unitarity row ahead of it in validate_frame.
    perturbed = pf.ProjectiveFrame(group=frame.group, operators=ops, dim=frame.dim)
    with pytest.raises(NotProjective, match="2-cocycle identity violated"):
        frames._check(perturbed, pf.DEFAULT_TOL, ("cocycle_identity",))


@pytest.mark.parametrize("name", ["weyl3", "z2cubed", "tensor_qq"])
def test_identity_bound_holds_under_every_single_entry_perturbation(name, request):
    # A 1e-3 perturbation is far outside the snap band, so every case takes the
    # float route: a perturbed zero entry makes the stack non-monomial, a
    # perturbed nonzero one leaves it monomial with a phase that does not snap.
    frame = request.getfixturevalue(name)
    exact = frame.operators
    worst = 0.0
    for index in itertools.product(*map(range, exact.shape)):
        ops = np.array(exact)
        ops[index] += 1e-3 * np.exp(0.7j)
        bound, brute = identity_row_and_oracle(frame.group, ops)
        assert brute <= bound, (index, bound, brute)
        assert bound > pf.DEFAULT_TOL.band(1.0), index
        worst = max(worst, brute)
    assert worst > 1e-5  # the oracle sees real defects, not rounding only


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["weyl3", "leonhardt2", "z2cubed", "tensor_qq"]),
    scale=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2]),
    monomial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_identity_bound_holds_under_random_noise(name, scale, monomial, seed):
    group, exact = builtin_stack(name)
    rng = np.random.default_rng(seed)
    noise = scale * (rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape))
    ops = exact + (np.where(exact != 0, noise, 0) if monomial else noise)
    bound, brute = identity_row_and_oracle(group, ops)
    assert brute <= bound + ORACLE_ROUNDING


def test_identity_check_on_the_trivial_group():
    frame = pf.trivial_frame()
    pf.validate_frame(frame)
    assert identity_row_and_oracle(frame.group, frame.operators) == (0.0, 0.0)


def test_identity_check_on_a_non_monomial_stack(weyl3):
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    ops = u @ weyl3.operators @ u.conj().T
    assert (ops != 0).sum(axis=1).min() > 1  # the dense route
    bound, brute = identity_row_and_oracle(weyl3.group, ops)
    assert brute <= bound <= pf.DEFAULT_TOL.band(1.0)
    ops[4, 1, 2] += 1e-3
    bound, brute = identity_row_and_oracle(weyl3.group, ops)
    assert brute > 1e-5
    assert brute <= bound


def _rounded_weyl5(q=None) -> pf.ProjectiveFrame:
    """Weyl 5 with entries rounded to 9 decimals, conjugated by the unitary ``q``."""
    exact = pf.weyl_frame(5).operators
    ops = np.round(exact.real, 9) + 1j * np.round(exact.imag, 9)
    ops = ops if q is None else q @ ops @ q.conj().T
    return pf.ProjectiveFrame(group=pf.make_group([5, 5]), operators=ops, dim=5)


def test_projectivity_bound_rejects_a_rounded_frame_that_every_pair_and_triple_accepts():
    # Deliberate: rounding Weyl 5 to 9 decimals leaves every pair, every triple, the
    # unitarity row and the unit rows inside the band. Conjugated by a non-monomial unitary
    # it takes the float route, whose projectivity bound grows with the word length
    # W = 8 from the generator rows and lies above the band; that window stays open there.
    band = pf.DEFAULT_TOL.band(1.0)
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    frame = _rounded_weyl5(q)
    with pytest.raises(NotProjective, match=r"products leave the frame up to scalars \(bound "):
        pf.validate_frame(frame)
    found = frame._verified[pf.DEFAULT_TOL]
    bounds = ("projectivity", "cocycle_modulus", "cocycle_identity")
    assert all(r <= limit for name, (r, limit) in found.residuals.items() if name not in bounds)
    values, worst = all_pairs(frame.group, frame.operators)
    assert worst <= band / 2
    assert np.max(np.abs(np.abs(values) - 1.0)) <= band
    assert brute_force_identity_residual(frame.group, found.cocycle().values) <= band / 2
    assert 6e-8 < found.residuals["projectivity"][0] < 6.5e-8
    assert found.residuals["cocycle_identity"][0] > 2 * band


def test_the_exact_route_accepts_the_rounded_frame():
    # Unconjugated, the rounded frame snaps to roots of unity within s = 4.8e-10: the
    # snapped cocycle satisfies the identity exactly, and projectivity reads the
    # proven bound 3 s + s^2, under the band.
    frame = _rounded_weyl5()
    pf.validate_frame(frame)
    rows = {name: r for name, (r, _) in frame._verified[pf.DEFAULT_TOL].residuals.items()}
    assert rows["cocycle_identity"] == rows["cocycle_modulus"] == 0.0
    assert 1.4e-9 < rows["projectivity"] < 1.5e-9
    table = pf.cocycle_table(frame).values
    assert np.max(np.abs(table - pf.cocycle_table(pf.weyl_frame(5)).values)) == 0.0


def test_identity_check_without_a_unitarity_margin_is_infinite_and_nan_fails(weyl3):
    assert frames._cocycle_identity_residual(3, 1e-16, 0.0, 1.0) == np.inf
    assert np.isnan(frames._cocycle_identity_residual(3, np.nan, 0.0, 0.0))
    assert np.isnan(frames._cocycle_identity_residual(3, 1e-16, np.nan, 0.0))
    assert np.isnan(frames._cocycle_identity_residual(3, 1e-16, 0.0, np.nan))
    ops = np.array(weyl3.operators)
    ops[4] = 0.0  # P^dag P - I = -I there: u = 1
    assert identity_row_and_oracle(weyl3.group, ops)[0] == np.inf
    with pytest.raises(NotProjective, match="not unitary"):
        pf.validate_frame(pf.ProjectiveFrame(group=weyl3.group, operators=ops, dim=3))


def test_identity_check_on_four_qubits_stays_in_quadratic_memory(qubit_ppp):
    frame = qubit_ppp
    for _ in range(3):
        frame = pf.tensor_frame(frame, qubit_ppp)
    assert frame.group.size == 256
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        found = frames._invariant_pass(frame, pf.DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert found.residuals["cocycle_identity"][0] < 1e-12
    # Three |G|^3 complex temporaries would take about 800 MB.
    assert peak < 50 * 2**20


def test_float_route_on_four_qubits_reads_generator_rows_in_blocks(monkeypatch):
    frame = qubit_power(4)
    q = haar_unitary(frame.dim, 4)
    frame = pf.ProjectiveFrame(group=frame.group, operators=q @ frame.operators @ q.conj().T,
                               dim=frame.dim)
    rows, tables = [], []
    dense_cocycle = frames._dense_cocycle
    monkeypatch.setattr(frames, "_dense_cocycle", lambda group, stack, a: (
        rows.append(len(a)) or dense_cocycle(group, stack, a)))
    monkeypatch.setattr(frames, "CocycleTable", lambda *args: tables.append(args))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        found = frames._invariant_pass(frame, pf.DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not found.exact and found.residuals["cocycle_identity"][0] < 1e-10
    # Eight generator rows and e's, no table: no (|G|, |G|) array, 1 MiB here, is formed.
    assert rows == [9] and tables == []
    assert peak < 8 * frame.operators.nbytes


def test_projectivity_bound_without_a_margin_is_infinite_and_nan_fails():
    assert frames._projectivity_bound(3, 4, 1.0 / 3.0, 0.0, 1e-16, 1.0) == (np.inf, np.inf)
    assert frames._projectivity_bound(3, 4, 0.0, 0.0, 1e-16, 0.0) == (np.inf, np.inf)
    assert frames._projectivity_bound(3, 4, 0.0, 0.0, 0.0, 1.0) == (0.0, 0.0)
    for args in [(np.nan, 0.0, 1e-16, 1.0), (0.0, np.nan, 1e-16, 1.0),
                 (0.0, 0.0, np.nan, 1.0), (0.0, 0.0, 1e-16, np.nan)]:
        assert np.isnan(frames._projectivity_bound(3, 4, *args)).all(), args


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
def test_cli_call_extracts_the_cocycle_once(argv, weyl3_files, tmp_path, count_passes):
    frame, dist = weyl3_files
    argv = [str(dist) if arg == "DIST" else arg for arg in argv]
    rc = main([argv[0], "--frame", str(frame), *argv[1:], "--out", str(tmp_path / "out")])
    assert rc in (0, 4)
    assert len(count_passes) == 1


def test_new_tolerance_reverifies(count_passes):
    frame = pf.weyl_frame(3)
    assert len(count_passes) == 1
    default = pf.cocycle_table(frame)
    assert pf.cocycle_table(frame, pf.Tolerance()) is default
    assert len(count_passes) == 1
    loose = pf.cocycle_table(frame, pf.Tolerance(1e-6, 1e-6))
    assert len(count_passes) == 2
    assert loose is not default
    np.testing.assert_allclose(loose.values, default.values, atol=1e-15)
    assert pf.cocycle_table(frame, pf.Tolerance(1e-6, 1e-6)) is loose
    assert len(count_passes) == 2


def test_frame_owns_its_operators(weyl3):
    source = np.stack([np.array(op) for op in weyl3.operators])
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=tuple(source), dim=3)
    whole = pf.ProjectiveFrame(group=weyl3.group, operators=source, dim=3)
    pf.validate_frame(frame)
    pf.validate_frame(whole)
    source[1] *= 1j
    for owner in (frame, whole):
        np.testing.assert_array_equal(owner.operators, weyl3.operators)
    assert source.flags.writeable
    pf.validate_frame(frame)
    with pytest.raises(ValueError):
        frame.operators[1, 0, 0] = 0.0
    # A read-only array that owns its memory, such as another frame's operators, is shared;
    # a read-only view is copied.
    kept = pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators, dim=3)
    assert kept.operators is weyl3.operators
    view = source[:]
    view.setflags(write=False)
    copied = pf.ProjectiveFrame(group=weyl3.group, operators=view, dim=3)
    source[1] *= -1j
    assert copied.operators is not view and not np.array_equal(copied.operators, source)


def test_cocycle_table_of_a_non_spanning_family():
    # I and Z over Z_2 multiply projectively but span 2 of 4 matrix dimensions.
    group = pf.make_group([2])
    frame = pf.ProjectiveFrame(group=group, operators=(np.eye(2), np.diag([1.0, -1.0])), dim=2)
    np.testing.assert_allclose(pf.cocycle_table(frame).values, np.ones((2, 2)), atol=1e-15)
    with pytest.raises(NotAFrame, match="span only 2 of 4"):
        pf.validate_frame(frame)
