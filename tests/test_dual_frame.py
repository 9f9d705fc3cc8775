"""The closed-form dual frame D_j = d F_j against independently computed references.

For every verified frame the Fourier frame operator is I/d, so the canonical
dual frame is d times the Fourier frame. These tests compute the canonical
dual by a complex pseudo-inverse and the frame bounds by a real-coordinate
Gram matrix, both inline, and compare them with the library's closed forms
(the bounds the frame report reads off the invariant pass).
"""

from functools import lru_cache

import numpy as np
import pytest

import phaseframe as pf
from phaseframe.errors import NotProjective

LADDER = (
    [f"weyl{d}" for d in (3, 5, 7, 9, 11, 13)]
    + [f"leonhardt{d}" for d in range(2, 7)]
    + ["z2cubed", "qubit+", "qubit-", "qubit^2", "qubit^3", "qubit^4", "trivial"]
)


@lru_cache(maxsize=None)
def _frame(name: str) -> pf.ProjectiveFrame:
    if name.startswith("weyl"):
        return pf.weyl_frame(int(name[4:]))
    if name.startswith("leonhardt"):
        return pf.leonhardt_frame(int(name[9:]))
    if name.startswith("qubit^"):
        power = int(name[6:])
        frame = _frame("qubit+")
        for _ in range(power - 1):
            frame = pf.tensor_frame(frame, _frame("qubit+"))
        return frame
    return {
        "z2cubed": pf.z2cubed_frame,
        "qubit+": lambda: pf.qubit_frame((1, 1, 1)),
        "qubit-": lambda: pf.qubit_frame((1, 1, -1)),
        "trivial": pf.trivial_frame,
    }[name]()


def _rows(ops: np.ndarray) -> np.ndarray:
    n, d, _ = ops.shape
    return ops.reshape(n, d * d)


@pytest.mark.parametrize("name", LADDER)
def test_dual_ops_equal_the_pinv_canonical_dual(name):
    rep = pf.build_representation(_frame(name))
    a = _rows(rep.fourier_ops)
    frame_operator = a.T @ a.conj()  # sum_j vec(F_j) vec(F_j)^H
    expected = (np.linalg.pinv(frame_operator) @ a.T).T.reshape(rep.fourier_ops.shape)
    dual = np.stack([pf.reconstruct(rep, e) for e in np.eye(rep.group.size)])  # D_j from e_j
    assert np.max(np.abs(dual - expected)) < 1e-12


def _real_coords(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate(
        [m.diagonal().real, np.sqrt(2.0) * m[iu].real, np.sqrt(2.0) * m[iu].imag]
    )


@pytest.mark.parametrize("name", LADDER)
def test_frame_bounds_equal_the_real_coordinate_gram(name):
    frame = _frame(name)
    ops = pf.build_representation(frame).fourier_ops
    coords = np.stack([_real_coords(op) for op in ops])
    eigs = np.linalg.eigvalsh(coords.T @ coords)
    a, b = pf.frame_report(frame)["fourier_frame_bounds"]
    assert a == pytest.approx(eigs[0], abs=1e-12)
    assert b == pytest.approx(eigs[-1], abs=1e-12)
    assert a == pytest.approx(1.0 / frame.dim, abs=1e-12)
    assert b == pytest.approx(1.0 / frame.dim, abs=1e-12)


def _scaled_weyl3() -> pf.ProjectiveFrame:
    # P_(1,0) and P_(2,0) = P_(1,0)^dag both doubled: no longer unitary, but
    # the inverse convention's adjoint pairing holds, so every F_j is Hermitian.
    weyl3 = _frame("weyl3")
    ops = [op.copy() for op in weyl3.operators]
    for g in ((1, 0), (2, 0)):
        ops[weyl3.group.index(g)] *= 2.0
    return pf.ProjectiveFrame(group=weyl3.group, operators=tuple(ops), dim=3)


def test_frame_report_fails_a_non_unitary_frame_without_raising():
    report = pf.frame_report(_scaled_weyl3())
    assert report["passed"] is False
    rows = {name: ok for name, ok, _ in report["checks"]}
    assert rows["unitarity"] is False


def test_build_representation_verifies_its_frame():
    with pytest.raises(NotProjective, match="not unitary"):
        pf.build_representation(_scaled_weyl3())


def test_representation_owns_its_operators():
    rep = pf.build_representation(_frame("weyl3"))
    fourier = [op.copy() for op in rep.fourier_ops]
    owned = pf.QuasiProbRepresentation(frame=rep.frame, fourier_ops=fourier)
    assert all(op.flags.writeable for op in fourier)
    for op in fourier:
        op[0, 0] += 5.0
    np.testing.assert_array_equal(owned.fourier_ops, rep.fourier_ops)
    with pytest.raises(ValueError):
        owned.fourier_ops[0, 0, 0] = 1.0
    with pytest.raises(TypeError):  # the D_j are formed from the F_j, never given
        pf.QuasiProbRepresentation(frame=rep.frame, fourier_ops=fourier, dual_ops=fourier)


def test_representation_keeps_owned_read_only_arrays_and_copies_views():
    rep = pf.build_representation(_frame("weyl3"))
    assert rep.fourier_ops.base is None  # the array build_representation transformed, kept as is
    kept = pf.QuasiProbRepresentation(frame=rep.frame, fourier_ops=rep.fourier_ops)
    assert kept.fourier_ops is rep.fourier_ops
    base = rep.fourier_ops.copy()
    view = base[:]
    view.setflags(write=False)
    copied = pf.QuasiProbRepresentation(frame=rep.frame, fourier_ops=view)
    base[0, 0, 0] += 5.0
    np.testing.assert_array_equal(copied.fourier_ops, rep.fourier_ops)
    assert not copied.fourier_ops.flags.writeable


def test_building_from_caller_arrays_leaves_them_writable():
    weyl3 = _frame("weyl3")
    ops = [op.copy() for op in weyl3.operators]
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=tuple(ops), dim=3)
    rep = pf.build_representation(frame)
    before = rep.fourier_ops.copy()
    assert all(op.flags.writeable for op in ops)
    ops[1][0, 0] += 5.0
    np.testing.assert_array_equal(rep.fourier_ops, before)
