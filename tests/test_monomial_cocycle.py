"""The column-monomial cocycle extraction against the dense products it replaces.

Every built-in frame has one nonzero entry per operator column, so its cocycle
is read from those entries in O(|G|^2 d). ``frames._dense_cocycle`` forms all
|G|^2 dense products and stays the route for every other stack; here it is the
reference, on valid frames and on monomial families that fail.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import frames, serialize

from test_dual_frame import LADDER, _frame, _scaled_weyl3

AGREE = 1e-13


@pytest.fixture
def dense_calls(monkeypatch):
    """Record each dense extraction from here on."""
    calls = []
    original = frames._dense_cocycle

    def counting(group, stack):
        calls.append(group.orders)
        return original(group, stack)

    monkeypatch.setattr(frames, "_dense_cocycle", counting)
    return calls


def _rebuilt(frame: pf.ProjectiveFrame, ops=None) -> pf.ProjectiveFrame:
    """An unverified copy, so that no remembered invariant pass is reused."""
    ops = frame.stack() if ops is None else ops
    return pf.ProjectiveFrame(group=frame.group, operators=tuple(ops), dim=ops.shape[1])


def _outcome(check, frame):
    """(class name, message) of the error ``check(frame)`` raises, or None."""
    try:
        check(frame)
    except pf.PhaseFrameError as exc:
        return type(exc).__name__, str(exc)
    return None


def _assert_routes_agree(frame: pf.ProjectiveFrame) -> None:
    """Same cocycle, residual table and verdicts from both routes."""
    values, residual = frames._extract_cocycle(frame.group, frame.stack())
    dense_values, dense_residual = frames._dense_cocycle(frame.group, frame.stack())
    assert np.max(np.abs(values - dense_values)) < AGREE
    assert abs(residual - dense_residual) < AGREE
    fast = frames._invariant_pass(_rebuilt(frame), pf.DEFAULT_TOL).residuals
    checks = (pf.validate_frame, pf.cocycle_table)
    fast_outcomes = [_outcome(check, _rebuilt(frame)) for check in checks]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "_extract_cocycle", frames._dense_cocycle)
        dense = frames._invariant_pass(_rebuilt(frame), pf.DEFAULT_TOL).residuals
        dense_outcomes = [_outcome(check, _rebuilt(frame)) for check in checks]
    assert fast.keys() == dense.keys()
    for name, (r, limit) in fast.items():
        # The cocycle_identity bound scales a defect by up to 3 L rho^L, so that
        # row may also differ relative to its size; every other row is absolute.
        rel = AGREE if name == "cocycle_identity" else None
        assert r == pytest.approx(dense[name][0], rel=rel, abs=AGREE), name
        assert limit == dense[name][1]
    assert fast_outcomes == dense_outcomes


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
    dense_calls.clear()
    values, residual = frames._extract_cocycle(frame.group, frame.stack())
    assert dense_calls == []
    assert residual < 1e-12
    _assert_routes_agree(frame)
    assert pf.validate_frame(_rebuilt(frame)) is None


def test_negative_zero_counts_as_zero(dense_calls):
    frame = _frame("weyl5")
    ops = np.where(frame.stack() == 0, -0.0, frame.stack())
    assert np.signbit(ops.real).any()
    values, _ = frames._extract_cocycle(frame.group, ops)
    assert dense_calls == []
    assert np.max(np.abs(values - pf.cocycle_table(frame).values)) < AGREE


def test_a_conjugated_frame_takes_the_dense_route(dense_calls):
    frame = _frame("weyl5")
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    conjugated = _rebuilt(frame, q @ frame.stack() @ q.conj().T)
    dense_calls.clear()
    pf.validate_frame(conjugated)
    assert dense_calls == [frame.group.orders]
    np.testing.assert_allclose(
        pf.cocycle_table(conjugated).values, pf.cocycle_table(frame).values, atol=1e-12
    )


# --------------------------------------------------------------------------
# failing monomial families


def _sign_flipped() -> pf.ProjectiveFrame:
    frame = _frame("weyl3")
    ops = frame.stack().copy()
    ops[frame.group.index((1, 1)), :, 0] *= -1.0  # the one nonzero entry of column 0
    return _rebuilt(frame, ops)


def _two_columns_one_row() -> pf.ProjectiveFrame:
    frame = _frame("weyl3")
    ops = frame.stack().copy()
    ops[frame.group.index((1, 0))] = _monomial(np.array([1, 1, 0]), np.ones(3))
    return _rebuilt(frame, ops)


@pytest.mark.parametrize("build", [_scaled_weyl3, _sign_flipped, _two_columns_one_row])
def test_failing_families_fail_alike(build, dense_calls):
    frame = build()
    dense_calls.clear()
    frames._extract_cocycle(frame.group, frame.stack())
    assert dense_calls == []
    assert _outcome(pf.validate_frame, _rebuilt(frame)) is not None
    _assert_routes_agree(frame)


def test_a_sign_flip_breaks_projectivity():
    residuals = frames._invariant_pass(_sign_flipped(), pf.DEFAULT_TOL).residuals
    assert residuals["projectivity"][0] > 0.1


@st.composite
def monomial_families(draw):
    orders = draw(st.sampled_from([(2,), (3,), (2, 2), (4,), (3, 3), (2, 3)]))
    d = draw(st.integers(1, 4))
    group = pf.make_group(orders)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ops = [
        _monomial(rng.permutation(d), np.exp(2j * np.pi * rng.random(d)))
        for _ in range(group.size)
    ]
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
    frame = _frame(name)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(frame.group.size))
    _assert_routes_agree(_rebuilt(frame, phases[:, None, None] * frame.stack()))
