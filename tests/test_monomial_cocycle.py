"""The two routes of the invariant pass against each other and the all-pairs oracle.

Every built-in frame is column-monomial with roots of unity for phases, so
``frames._exact_rows`` proves its invariants from integer exponents and builds
the cocycle table only on demand. Every other stack takes ``frames._dense_rows``,
the float route: dense products of the generator rows (``frames._dense_cocycle``)
and proven bounds for every pair. Here the float route is the exact route's
reference, and the |G|^2 dense products (``conftest.all_pairs``) are the float
route's, on valid frames, on ``phase_fix`` outputs and on stacks that fail.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import frames, serialize
from phaseframe.cli import main
from phaseframe.errors import NotProjective

from conftest import all_pairs, broadcast_tables, haar_unitary, triple_defect
from test_dual_frame import LADDER, _frame, _scaled_weyl3

BAND = pf.DEFAULT_TOL.band(1.0)
# Slack for the oracle's own rounding, as in test_invariants.py.
ORACLE_ROUNDING = 16 * np.finfo(float).eps


def _counter(monkeypatch, owner, name):
    """Record each call of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def dense_calls(monkeypatch):
    """The number of rows a in each ``_dense_cocycle`` call from here on."""
    calls = []
    original = frames._dense_cocycle

    def counting(group, stack, rows):
        calls.append(len(rows))
        return original(group, stack, rows)

    monkeypatch.setattr(frames, "_dense_cocycle", counting)
    return calls


def _rebuilt(frame: pf.ProjectiveFrame, ops=None) -> pf.ProjectiveFrame:
    """An unverified copy, so that no remembered invariant pass is reused."""
    ops = frame.operators if ops is None else ops
    return pf.ProjectiveFrame(group=frame.group, operators=tuple(ops), dim=ops.shape[1])


def _pass(frame: pf.ProjectiveFrame):
    return frames._invariant_pass(_rebuilt(frame), pf.DEFAULT_TOL)


def _first_failure(found):
    """The first row ``validate_frame`` would raise on, or None."""
    return next((name for name in frames._FRAME_CHECKS
                 if not found.residuals[name][0] <= found.residuals[name][1]), None)


def _error_class(frame):
    try:
        pf.validate_frame(_rebuilt(frame))
    except pf.PhaseFrameError as exc:
        return type(exc).__name__
    return None


def _float_pass(frame: pf.ProjectiveFrame):
    """The pass with the exact route switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "_exact_rows", lambda *args: None)
        return _pass(frame)


def _assert_bounds_hold(frame: pf.ProjectiveFrame):
    """The float route's rows against the all-pairs oracle: its projectivity, modulus and
    cocycle-identity bounds are at least the worst pair, modulus and triple the oracle
    finds, and its unit rows and cocycle table are the oracle's, bit for bit. Returns
    the float route's pass."""
    found = _float_pass(frame)
    rows = {name: r for name, (r, _) in found.residuals.items()}
    values, worst = all_pairs(frame.group, frame.operators)
    assert worst <= rows["projectivity"] + ORACLE_ROUNDING
    assert np.max(np.abs(np.abs(values) - 1.0)) <= rows["cocycle_modulus"] + ORACLE_ROUNDING
    assert triple_defect(frame.group, values) <= rows["cocycle_identity"] + ORACLE_ROUNDING
    pairs = values[np.arange(frame.group.size), frame.group._inv]
    assert found.inverse_pairs.tobytes() == pairs.tobytes()
    assert rows["cocycle_left_unit"] == np.max(np.abs(values[0] - 1.0))
    assert rows["cocycle_right_unit"] == np.max(np.abs(values[:, 0] - 1.0))
    assert rows["cocycle_inverse_pairs"] == np.max(np.abs(pairs - 1.0))
    assert found.cocycle().values.tobytes() == values.tobytes()
    return found


def _assert_routes_agree(frame: pf.ProjectiveFrame):
    """Same verdict, first failing row and error class from the default pass and the
    float route, whose bounds hold against the all-pairs oracle, and every row and the
    cocycle within the band wherever the products are projective. Returns the default
    pass."""
    found, found_class = _pass(frame), _error_class(frame)
    dense = _assert_bounds_hold(frame)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "_exact_rows", lambda *args: None)
        dense_class = _error_class(frame)
    assert _first_failure(found) == _first_failure(dense)
    assert found_class == dense_class
    if dense.residuals["projectivity"][0] <= BAND:
        assert np.max(np.abs(found.cocycle().values - dense.cocycle().values)) <= BAND
        for name, (r, _) in dense.residuals.items():
            assert abs(found.residuals[name][0] - r) <= BAND, name
    return found


def _monomial(perm, phases) -> np.ndarray:
    """diag(phases) times the permutation matrix sending column c to row perm[c]."""
    d = len(perm)
    m = np.zeros((d, d), dtype=np.complex128)
    m[perm, np.arange(d)] = phases[perm]
    return m


# --------------------------------------------------------------------------
# valid frames


def _weyl11_from_json() -> pf.ProjectiveFrame:
    text = json.dumps(serialize.frame_to_json(_frame("weyl11")))
    return serialize.frame_from_json(json.loads(text))


@pytest.mark.parametrize("name", LADDER + ["weyl11-json"])
def test_ladder_frames_take_the_monomial_route(name, dense_calls):
    frame = _weyl11_from_json() if name == "weyl11-json" else _frame(name)
    with pytest.MonkeyPatch.context() as patch:
        svd_calls = _counter(patch, np.linalg, "svd")
        found = _pass(frame)
    assert dense_calls == [] and svd_calls == []
    assert found.residuals["projectivity"][0] < 1e-14
    assert found.fourier_bounds == (1.0 / frame.dim, 1.0 / frame.dim)
    assert _assert_routes_agree(frame) is not None
    assert pf.validate_frame(_rebuilt(frame)) is None


@pytest.mark.parametrize("name", ["weyl31", "qubit^5"])
def test_large_frames_match_dense_products_on_sampled_rows(name, dense_calls):
    # The full dense pass takes about 10 s here, so the oracle multiplies out five
    # rows a: P_a P_b against alpha(a, b) P_ab for every b.
    frame = _rebuilt(_frame(name))
    pf.validate_frame(frame)
    assert dense_calls == []
    group, stack = frame.group, frame.operators
    table = pf.cocycle_table(frame).values
    rng = np.random.default_rng(3)
    rows = [1, group.size - 1, *rng.integers(0, group.size, 3)]
    for a, ab in zip(rows, broadcast_tables(group, rows)[0]):
        target = table[a][:, None, None] * stack[ab]
        assert np.max(np.abs(stack[a] @ stack - target)) <= BAND
    svals = np.linalg.svd(stack.reshape(group.size, -1), compute_uv=False)
    np.testing.assert_allclose(svals**2 / group.size, 1.0 / frame.dim, atol=1e-12)


def _plain_shift_clock(d: int) -> tuple[pf.FiniteAbelianGroup, np.ndarray]:
    """X^j Z^l over Z_d x Z_d, without the symmetric phase."""
    group = pf.make_group([d, d])
    shift, clock = frames._shift_clock(d, *group._residues.T)
    return group, shift @ clock


@pytest.mark.parametrize("d, half_steps", [(2, True), (4, False), (6, True)])
def test_phase_fix_outputs_take_the_exact_route(d, half_steps, dense_calls):
    group, raw = _plain_shift_clock(d)
    fixed = pf.phase_fix(group, raw)
    assert dense_calls == []
    # A self-inverse element takes a square root of a d-th root of unity: for d = 2
    # and 6 some phases are odd powers of a 2d-th root, which L = 2 exp(G) = 2d
    # covers and exp(G) would not.
    phases = fixed.operators[fixed.operators != 0]
    exps = np.angle(phases) * d / (2 * np.pi)
    assert (np.max(np.abs(exps - np.rint(exps))) > 0.4) == half_steps
    snapped = frames._roots(2 * d)[np.rint(-2 * exps).astype(int) % (2 * d)]
    assert np.max(np.abs(phases - snapped)) < 1e-14
    assert _first_failure(_assert_routes_agree(fixed)) is None
    assert _first_failure(_assert_routes_agree(_rebuilt(fixed, raw))) == "inverse_convention"


def test_negative_zero_counts_as_zero(dense_calls):
    frame = _frame("weyl5")
    ops = np.where(frame.operators == 0, -0.0, frame.operators)
    assert np.signbit(ops.real).any()
    values = pf.cocycle_table(_rebuilt(frame, ops)).values
    assert dense_calls == []
    assert np.max(np.abs(values - pf.cocycle_table(frame).values)) == 0.0


def test_a_conjugated_frame_takes_the_dense_route(dense_calls):
    frame = _frame("weyl5")
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    conjugated = _rebuilt(frame, q @ frame.operators @ q.conj().T)
    dense_calls.clear()
    pf.validate_frame(conjugated)
    assert dense_calls == [3]  # the rows of the two generators and of e
    np.testing.assert_allclose(
        pf.cocycle_table(conjugated).values, pf.cocycle_table(frame).values, atol=1e-12
    )
    assert dense_calls == [3, 25]  # the table, built on demand from every row


def test_certify_and_scan_from_a_file_run_no_dense_products_and_no_svd(tmp_path, monkeypatch):
    path = tmp_path / "weyl11.json"
    assert main(["frame", "build", "weyl", "--d", "11", "--out", str(path)]) == 0
    dense = _counter(monkeypatch, frames, "_dense_cocycle")
    svd = _counter(monkeypatch, np.linalg, "svd")
    for argv in (["certify", "--state", "random-pure:3"],
                 ["scan", "--family", "random-density", "--count", "5"]):
        assert main([argv[0], "--frame", str(path), *argv[1:],
                     "--out", str(tmp_path / "out")]) in (0, 4)
    assert dense == svd == []


# --------------------------------------------------------------------------
# failing monomial families


def _sign_flipped() -> pf.ProjectiveFrame:
    frame = _frame("weyl3")
    ops = frame.operators.copy()
    ops[frame.group.index((1, 1)), :, 0] *= -1.0  # the one nonzero entry of column 0
    return _rebuilt(frame, ops)


def _two_columns_one_row() -> pf.ProjectiveFrame:
    frame = _frame("weyl3")
    ops = frame.operators.copy()
    ops[frame.group.index((1, 0))] = _monomial(np.array([1, 1, 0]), np.ones(3))
    return _rebuilt(frame, ops)


@pytest.mark.parametrize("build", [_scaled_weyl3, _sign_flipped, _two_columns_one_row])
def test_failing_families_fail_alike(build, dense_calls):
    frame = build()
    assert frames._exact_rows(frame.group, frame.operators, BAND) is None
    assert _first_failure(_assert_routes_agree(frame)) is not None


def test_a_sign_flip_breaks_projectivity():
    residuals = frames._invariant_pass(_sign_flipped(), pf.DEFAULT_TOL).residuals
    assert residuals["projectivity"][0] > 0.1


def _one_step_bumped() -> pf.ProjectiveFrame:
    # One entry times omega_L, L = 2 exp(G) = 14: still a root, not projective.
    frame = _frame("weyl7")
    ops = frame.operators.copy()
    ops[frame.group.index((2, 3)), :, 4] *= np.exp(-2j * np.pi / 14)
    return _rebuilt(frame, ops)


def _two_rows_swapped() -> pf.ProjectiveFrame:
    frame = _frame("leonhardt4")
    ops = frame.operators.copy()
    ops[frame.group.index((1, 2)), :, [0, 2]] = ops[frame.group.index((1, 2)), :, [2, 0]]
    return _rebuilt(frame, ops)


def _identity_negated() -> pf.ProjectiveFrame:
    # P_e = -I: every product still closes up to a root of unity, but alpha(e, g) = -1.
    frame = _frame("weyl3")
    ops = frame.operators.copy()
    ops[0] *= -1.0
    return _rebuilt(frame, ops)


def _perturbed() -> pf.ProjectiveFrame:
    frame = _frame("weyl5")
    ops = frame.operators.copy()
    ops[frame.group.index((3, 1)), 1, 0] += 1e-6
    return _rebuilt(frame, ops)


@pytest.mark.parametrize("build, row", [(_one_step_bumped, "inverse_convention"),
                                        (_two_rows_swapped, "inverse_convention"),
                                        (_identity_negated, "identity_at_origin"),
                                        (_perturbed, "unitarity")])
def test_rejections_keep_their_class_and_first_failing_row(build, row, dense_calls):
    frame = build()
    found = _assert_routes_agree(frame)
    assert _first_failure(found) == row
    assert _error_class(frame) == NotProjective.__name__
    assert dense_calls  # every one of them is judged by the dense products


# --------------------------------------------------------------------------
# the float route's bounds


def _conjugated(name: str, seed: int = 31) -> pf.ProjectiveFrame:
    frame = _frame(name)
    q = haar_unitary(frame.dim, seed)
    return _rebuilt(frame, q @ frame.operators @ q.conj().T)


@pytest.mark.parametrize("name", ["weyl3", "weyl5", "weyl7", "leonhardt2", "leonhardt3",
                                  "leonhardt4", "z2cubed", "qubit+", "qubit^2", "qubit^3"])
def test_conjugated_frames_pass_within_bounds_that_hold_for_every_pair(name, dense_calls):
    frame = _conjugated(name)
    pf.validate_frame(frame)
    found = frame._verified[pf.DEFAULT_TOL]
    assert not found.exact
    assert dense_calls == [len(frame.group.orders) + 1]  # the generator rows and e's
    assert _assert_bounds_hold(frame).residuals == found.residuals


@pytest.mark.parametrize("d", [2, 4, 6])
def test_phase_fix_of_a_conjugated_input_passes_within_the_bounds(d):
    group, raw = _plain_shift_clock(d)
    q = haar_unitary(d, d)
    fixed = pf.phase_fix(group, q @ raw @ q.conj().T)
    assert not fixed._verified[pf.DEFAULT_TOL].exact
    _assert_bounds_hold(fixed)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
@pytest.mark.parametrize("conjugate", [False, True])
def test_phase_fix_reads_alpha_of_inverse_pairs_without_the_table(d, conjugate, monkeypatch):
    group, raw = _plain_shift_clock(d)
    if conjugate:
        q = haar_unitary(d, d)
        raw = q @ raw @ q.conj().T
    tables = _counter(monkeypatch, frames, "CocycleTable")
    fixed = pf.phase_fix(group, raw)
    assert tables == []
    # The rule as it read the |G|^2 table: conj alpha(g^-1, g), with the principal square
    # root at self-inverse g; the output is that, bit for bit.
    found = frames._invariant_pass(pf.ProjectiveFrame(group=group, operators=raw, dim=d),
                                   pf.DEFAULT_TOL)
    assert found.exact is not conjugate
    g, inv = np.arange(group.size), group._inv
    correction = found.cocycle().values[inv, g].conj()
    mu = np.where(g > inv, correction, np.where((g == inv) & (g > 0), np.sqrt(correction), 1.0))
    assert fixed.operators.tobytes() == (mu[:, None, None] * raw).tobytes()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["weyl3", "weyl5", "leonhardt2", "z2cubed", "qubit^2"]),
       conjugate=st.booleans(), where=st.integers(0, 2**32 - 1),
       exponent=st.floats(-6.0, -1.0), angle=st.floats(0.0, 2 * np.pi))
def test_one_perturbed_entry_fails_the_pass_whichever_element(name, conjugate, where, exponent,
                                                              angle):
    # eps is at least 500 times the band. The float route multiplies out the generator
    # rows only, but every element g is the right factor of each P_t P_g, so the
    # projectivity bound sees the perturbation wherever it is.
    frame = _conjugated(name) if conjugate else _frame(name)
    ops = frame.operators.copy()
    ops.reshape(-1)[where % ops.size] += 10.0**exponent * np.exp(1j * angle)
    perturbed = _rebuilt(frame, ops)
    with pytest.raises(NotProjective):
        pf.validate_frame(perturbed)
    found = perturbed._verified[pf.DEFAULT_TOL]
    assert not found.exact
    assert found.residuals["projectivity"][0] > BAND


@st.composite
def monomial_families(draw):
    orders = draw(st.sampled_from([(2,), (3,), (2, 2), (4,), (3, 3), (2, 3)]))
    d = draw(st.integers(1, 4))
    group = pf.make_group(orders)
    roots = frames._roots(2 * np.lcm.reduce(orders))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ops = [_monomial(rng.permutation(d), roots[rng.integers(0, len(roots), d)])
           for _ in range(group.size)]
    if draw(st.booleans()):
        ops[0] = np.eye(d)
    return pf.ProjectiveFrame(group=group, operators=tuple(ops), dim=d)


@settings(max_examples=60, deadline=None)
@given(monomial_families())
def test_random_monomial_families_agree(frame):
    _assert_routes_agree(frame)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["weyl3", "leonhardt2", "qubit+", "z2cubed"]), st.integers(0, 2**32 - 1))
def test_rephased_frames_agree(name, seed):
    # Rephased by roots of unity the frames stay on the exact route, and mostly
    # break the inverse convention there.
    frame = _frame(name)
    roots = frames._roots(2 * np.lcm.reduce(frame.group.orders))
    phases = roots[np.random.default_rng(seed).integers(0, len(roots), frame.group.size)]
    _assert_routes_agree(_rebuilt(frame, phases[:, None, None] * frame.operators))
