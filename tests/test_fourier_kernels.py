"""The Fourier-side kernels against the dense forms they replace.

The F_j come from one in-place FFT over the group axes of a copy of the stack, the
helper that also transforms blocks of phi, and phi and mu for a block of states from
one stacked row product. These tests hold them to the character-table ``tensordot``,
to the out-of-place ``fftn`` expressions the helper replaced, and to per-state
``einsum`` references over the frame ladder; hold a row's bits independent of its
block and the Fourier step to one array of its output's size; keep the dense
reconstruction identity as a test oracle; and check that an overflowing state warns
nowhere.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import phaseframe as pf
from conftest import qubit_power
from phaseframe import groups, representation
from phaseframe.errors import NonFinite
from test_dual_frame import LADDER, _frame

KERNEL_LADDER = [name for name in LADDER if name not in ("qubit-", "trivial")]


def _states(d: int) -> list[np.ndarray]:
    states = [pf.maximally_mixed(d), pf.basis_state(d, d - 1)]
    states += [pf.random_density(d, seed) for seed in range(4)]
    states += [pf.random_hermitian_trace1(d, seed) for seed in range(4)]
    return states + [pf.random_pure(d, seed) for seed in range(4)]


@pytest.mark.parametrize("name", KERNEL_LADDER)
def test_stacked_rows_keep_their_bits_in_any_block_and_match_einsum(name):
    rep = pf.build_representation(_frame(name))
    block = np.array(_states(rep.dim))
    perm = np.random.default_rng(3).permutation(len(block))
    for ops, public in ((rep.frame.operators, pf.characteristic), (rep.fourier_ops, pf.represent)):
        full = representation._traces(ops, block)
        np.testing.assert_array_equal(representation._traces(ops, block[perm]), full[perm])
        for rho, row in zip(block, full):
            assert representation._traces(ops, rho[None])[0].tobytes() == row.tobytes()
            reference = np.einsum("gab,ba->g", ops, rho)
            assert np.abs(row - reference).max() <= 1e-15 * max(1.0, np.abs(reference).max())
            value = public(rep, rho)
            assert value.tobytes() == (row if public is pf.characteristic else row.real).tobytes()


@pytest.mark.parametrize("name", KERNEL_LADDER)
def test_fft_fourier_operators_match_the_character_table_sum(name):
    frame = _frame(name)
    rep = pf.build_representation(frame)
    table = pf.character_table(frame.group)
    dense = np.tensordot(table, frame.operators, axes=([1], [0])) / frame.group.size
    dense = 0.5 * (dense + dense.conj().transpose(0, 2, 1))
    assert np.abs(rep.fourier_ops - dense).max() <= 1e-15


@pytest.mark.parametrize("name", LADDER)
def test_fourier_rows_keep_the_bits_of_the_out_of_place_fftn(name):
    frame = _frame(name)
    group, n, d = frame.group, frame.group.size, frame.dim
    phi = frame.operators.reshape(n, d * d).T.copy()  # each matrix entry as a function on the group
    # the expressions the helper replaced: a new array per FFT axis, then a new one for / n
    axes = tuple(range(len(group.orders)))
    fourier = np.fft.fftn(frame.operators.reshape(*group.orders, d, d), axes=axes).reshape(n, d, d) / n
    axes = tuple(range(1, len(group.orders) + 1))
    rows = np.fft.fftn(phi.reshape(-1, *group.orders), axes=axes).reshape(-1, group.size) / n
    assert groups._fourier_rows(group, frame.operators, axis=0).tobytes() == fourier.tobytes()
    assert groups._fourier_rows(group, phi).tobytes() == rows.tobytes()
    hermitian = 0.5 * (fourier + fourier.conj().transpose(0, 2, 1))
    assert pf.build_representation(frame).fourier_ops.tobytes() == hermitian.tobytes()


@pytest.mark.parametrize("make", [lambda: qubit_power(5), lambda: pf.weyl_frame(31)],
                         ids=["qubit^5", "weyl31"])
def test_the_fourier_step_holds_one_array_of_its_output_size(make):
    frame = make()
    pf.validate_frame(frame)  # remembered, so only the Fourier step runs below
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = pf.build_representation(frame)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the F_j and small blocks: no stored D_j, per-axis FFT temporary or copy for the 1/|G|
    assert peak <= 1.5 * rep.fourier_ops.nbytes


@pytest.mark.parametrize("name", KERNEL_LADDER)
def test_the_dual_frame_reconstructs_every_operator_entrywise(name):
    # d sum_j |F_j><F_j| = I, the identity build_representation proves rather than
    # checks for these frames, within the band the runtime check used.
    rep = pf.build_representation(_frame(name))
    d, n = rep.dim, rep.group.size
    vecs = rep.fourier_ops.reshape(n, d * d)
    residual = np.abs(d * (vecs.T @ vecs.conj()) - np.eye(d * d)).max()
    assert residual <= pf.DEFAULT_TOL.derived_band(1.0)


def _dense_route_weyl5() -> pf.ProjectiveFrame:
    weyl5 = pf.weyl_frame(5)
    u = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))[0]
    return pf.ProjectiveFrame(group=weyl5.group, operators=u @ weyl5.operators @ u.T, dim=5)


@pytest.mark.parametrize("make, checked", [(lambda: pf.weyl_frame(5), False),
                                           (_dense_route_weyl5, True)],
                         ids=["exact-route", "dense-route"])
def test_only_the_dense_route_checks_the_reconstruction_identity(make, checked, monkeypatch):
    shapes = []
    max_abs = representation.max_abs
    monkeypatch.setattr(representation, "max_abs", lambda m: shapes.append(m.shape) or max_abs(m))
    frame = make()
    rep = pf.build_representation(frame)
    assert frame._verified[pf.DEFAULT_TOL].exact is not checked
    assert ((25, 25) in shapes) is checked
    np.testing.assert_allclose(pf.reconstruct(rep, pf.represent(rep, pf.maximally_mixed(5))),
                               pf.maximally_mixed(5), atol=1e-14)


def test_an_overflowing_state_raises_or_returns_without_a_runtime_warning():
    rep = pf.build_representation(pf.qubit_frame())
    rho = np.array([[0.5, 1e308], [1e308, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="characteristic function overflows"):
            pf.characteristic(rep, rho)
        with pytest.raises(NonFinite, match="characteristic function overflows") as caught:
            pf.certify_state(rep, rho)
        (row,) = pf.scan(rep, [rho]).rows
        assert (row.certificate, row.error) == (None, str(caught.value))
        np.testing.assert_array_equal(pf.represent(rep, rho), [5e307, 5e307, -5e307, -5e307])
