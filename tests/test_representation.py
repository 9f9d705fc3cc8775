import numpy as np
import pytest

import phaseframe as pf
from phaseframe.errors import (
    EvenDimension,
    NonFinite,
    NotHermitian,
    NotNormalized,
    ShapeMismatch,
)
from phaseframe.representation import _gross_wigner_rows


# --------------------------------------------------------------------------
# Fourier frame construction


def test_weyl3_fourier_frame_is_orthogonal(weyl3_rep):
    ops = weyl3_rep.fourier_ops
    c = pf.trace_inner(ops[0], ops[0]).real
    assert c > 0
    for i in range(9):
        for j in range(9):
            value = pf.trace_inner(ops[i], ops[j]).real
            assert abs(value - (c if i == j else 0.0)) < 1e-12


def test_weyl3_dual_is_rescaled_fourier(weyl3_rep):
    for f, e in zip(weyl3_rep.fourier_ops, np.eye(9)):
        c = pf.trace_inner(f, f).real
        np.testing.assert_allclose(pf.reconstruct(weyl3_rep, e), f / c, atol=1e-12)  # D_j


def test_qubit_fourier_ops_and_spectrum(qubit_rep):
    x, z = pf.gen_pauli(2)
    y = np.array([[0, -1j], [1j, 0]])
    expected_eigs = [(1 - np.sqrt(3)) / 4, (1 + np.sqrt(3)) / 4]
    for j, op in zip(qubit_rep.group.elements, qubit_rep.fourier_ops):
        sx = (-1.0) ** j[0]
        sz = (-1.0) ** j[1]
        sy = (-1.0) ** (j[0] + j[1])
        np.testing.assert_allclose(
            op, (np.eye(2) + sx * x + sz * z + sy * y) / 4, atol=1e-12
        )
        np.testing.assert_allclose(pf.herm_eigenvalues(op), expected_eigs, atol=1e-12)


def test_fourier_ops_sum_to_identity(weyl3_rep, weyl5_rep, qubit_rep, z2cubed_rep):
    for rep in (weyl3_rep, weyl5_rep, qubit_rep, z2cubed_rep):
        total = np.sum(np.stack(rep.fourier_ops), axis=0)
        np.testing.assert_allclose(total, np.eye(rep.dim), atol=1e-10)


def test_fourier_ops_hermitian(weyl3_rep, z2cubed_rep):
    for rep in (weyl3_rep, z2cubed_rep):
        for op in rep.fourier_ops:
            assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_z2cubed_zero_components(z2cubed_rep):
    norms = np.array([np.max(np.abs(op)) for op in z2cubed_rep.fourier_ops])
    elements = z2cubed_rep.group.elements
    zero_set = {g for g, n in zip(elements, norms) if n < 1e-12}
    # The kernel is {(0,0,0), (1,0,0)}; the dual indices that are nontrivial
    # on the kernel kill their Fourier component, and (1,0,0) is one of them.
    assert (1, 0, 0) in zero_set
    assert zero_set == {(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    nonzero = [op for op, n in zip(z2cubed_rep.fourier_ops, norms) if n >= 1e-12]
    assert len(nonzero) == 4
    flat = np.stack(nonzero).reshape(4, 4)
    assert np.linalg.matrix_rank(flat, tol=1e-10) == 4


def test_build_representation_rejects_broken_inverse_convention(weyl3):
    ops = [op.copy() for op in weyl3.operators]
    ops[1] = ops[1] * np.exp(0.7j)
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=tuple(ops), dim=3, metadata={})
    with pytest.raises(NotHermitian):
        pf.build_representation(frame)


def test_fourier_hermiticity_follows_the_callers_tolerance(weyl3):
    # A 1e-10 rephasing breaks the inverse convention by about 1e-10: inside
    # the default band, far outside a 1e-14 one.
    ops = [op.copy() for op in weyl3.operators]
    ops[weyl3.group.index((1, 0))] *= np.exp(1e-10j)
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=tuple(ops), dim=3)
    with pytest.raises(NotHermitian):
        pf.build_representation(frame, pf.Tolerance(1e-14, 1e-14))
    pf.build_representation(frame)


# --------------------------------------------------------------------------
# represent / characteristic


def test_represent_maximally_mixed(weyl3_rep):
    mu = pf.represent(weyl3_rep, pf.maximally_mixed(3))
    np.testing.assert_allclose(mu, np.full(9, 1 / 9), atol=1e-12)


def test_represent_basis_state_matches_direct_wigner(weyl3_rep):
    mu = pf.represent(weyl3_rep, pf.basis_state(3, 0))
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    np.testing.assert_allclose(mu, pf.gross_as_dual_distribution(v), atol=1e-12)
    # Three points carry 1/3, the rest vanish.
    np.testing.assert_allclose(np.sort(mu), [0, 0, 0, 0, 0, 0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_represent_qubit_plus_state(qubit_rep):
    x, _ = pf.gen_pauli(2)
    rho = (np.eye(2) + x) / 2
    mu = pf.represent(qubit_rep, rho)
    np.testing.assert_allclose(mu, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_represent_is_linear(weyl3_rep):
    rho1 = pf.random_density(3, 31)
    rho2 = pf.random_density(3, 32)
    combo = 0.3 * rho1 + 0.7 * rho2
    mu = pf.represent(weyl3_rep, combo)
    expected = 0.3 * pf.represent(weyl3_rep, rho1) + 0.7 * pf.represent(weyl3_rep, rho2)
    np.testing.assert_allclose(mu, expected, atol=1e-12)


def test_represent_sums_to_trace(weyl3_rep, z2cubed_rep):
    for rep, d in ((weyl3_rep, 3), (z2cubed_rep, 2)):
        for seed in range(5):
            rho = pf.random_density(d, seed)
            assert np.sum(pf.represent(rep, rho)) == pytest.approx(1.0, abs=1e-10)


def test_represent_rejects_non_hermitian(weyl3_rep):
    with pytest.raises(NotHermitian):
        pf.represent(weyl3_rep, np.array([[0, 1], [0, 0]], dtype=complex))


def test_characteristic_maximally_mixed(weyl3_rep):
    phi = pf.characteristic(weyl3_rep, pf.maximally_mixed(3))
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(phi, expected, atol=1e-12)


def test_characteristic_basis_state(weyl3_rep):
    phi = pf.characteristic(weyl3_rep, pf.basis_state(3, 0))
    for idx, (j, l) in enumerate(weyl3_rep.group.elements):
        expected = 1.0 if j == 0 else 0.0
        assert abs(phi[idx] - expected) < 1e-12


def test_characteristic_conjugate_symmetry(weyl3_rep):
    rho = pf.random_density(3, 33)
    phi = pf.characteristic(weyl3_rep, rho)
    group = weyl3_rep.group
    for g in group.elements:
        a = phi[group.index(g)]
        b = phi[group.index(group.inverse(g))]
        assert abs(b - np.conj(a)) < 1e-12


@pytest.mark.parametrize("rep_name", ["weyl3_rep", "weyl5_rep", "qubit_rep", "z2cubed_rep"])
def test_characteristic_fourier_matches_represent(rep_name, request):
    rep = request.getfixturevalue(rep_name)
    for seed in range(5):
        rho = pf.random_density(rep.dim, 40 + seed)
        phi = pf.characteristic(rep, rho)
        mu_from_phi = pf.fourier_forward(rep.group, phi)
        np.testing.assert_allclose(mu_from_phi.imag, 0, atol=1e-10)
        np.testing.assert_allclose(mu_from_phi.real, pf.represent(rep, rho), atol=1e-10)


# --------------------------------------------------------------------------
# reconstruction


def test_reconstruct_roundtrip_weyl3(weyl3_rep):
    worst = 0.0
    for seed in range(20):
        rho = pf.random_density(3, 100 + seed)
        back = pf.reconstruct(weyl3_rep, pf.represent(weyl3_rep, rho))
        worst = max(worst, np.max(np.abs(back - rho)))
    assert worst < 1e-10


def test_reconstruct_roundtrip_z2cubed(z2cubed_rep):
    for seed in range(20):
        rho = pf.random_density(2, 200 + seed)
        back = pf.reconstruct(z2cubed_rep, pf.represent(z2cubed_rep, rho))
        assert np.max(np.abs(back - rho)) < 1e-10


def test_reconstruct_uniform_gives_maximally_mixed(weyl3_rep):
    rho = pf.reconstruct(weyl3_rep, np.full(9, 1 / 9))
    np.testing.assert_allclose(rho, pf.maximally_mixed(3), atol=1e-12)


def test_reconstruct_shape_mismatch(weyl3_rep):
    with pytest.raises(ShapeMismatch):
        pf.reconstruct(weyl3_rep, np.ones(4))


# --------------------------------------------------------------------------
# direct Wigner oracle


def test_wigner_basis_state():
    table = pf.gross_wigner_pure(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(table[0], np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(table[1:], 0, atol=1e-12)


def test_wigner_uniform_superposition_is_single_row():
    v = np.ones(3, dtype=complex) / np.sqrt(3)
    table = pf.gross_wigner_pure(v)
    np.testing.assert_allclose(table[:, 0], np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(table[:, 1:], 0, atol=1e-12)


def test_wigner_normalization():
    for seed in range(10):
        v = pf.random_pure_vector(3, seed)
        assert np.sum(pf.gross_wigner_pure(v)) == pytest.approx(1.0, abs=1e-12)


def test_wigner_rejects_even_dimension():
    with pytest.raises(EvenDimension):
        pf.gross_wigner_pure(np.array([1.0, 0.0, 0.0, 0.0]))


def test_wigner_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        pf.gross_wigner_pure(np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
def test_wigner_flattens_a_row_or_column_vector(shape):
    v = pf.random_pure_vector(5, 11)
    table = pf.gross_wigner_pure(v.reshape(shape))
    assert table.shape == (5, 5)
    np.testing.assert_array_equal(table, pf.gross_wigner_pure(v))
    dual = pf.gross_as_dual_distribution(v.reshape(shape))
    np.testing.assert_array_equal(dual, pf.gross_as_dual_distribution(v))


def test_wigner_block_gives_each_row_its_single_vector_table():
    vectors = np.stack([pf.random_pure_vector(7, 20 + k) for k in range(6)])
    tables = _gross_wigner_rows(vectors, pf.DEFAULT_TOL)
    assert tables.shape == (6, 7, 7)
    for v, table in zip(vectors, tables):
        np.testing.assert_array_equal(table, pf.gross_wigner_pure(v))


def test_index_bijection_pinned_by_two_states(weyl3_rep):
    # The (a, b) -> (-b, -a) relabeling is frozen; these two states pin it.
    for v in (
        np.array([1.0, 0.0, 0.0], dtype=complex),
        pf.quadratic_phase_vector(3, 1, 0),
    ):
        mu = pf.represent(weyl3_rep, np.outer(v, v.conj()))
        np.testing.assert_allclose(mu, pf.gross_as_dual_distribution(v), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5])
def test_wigner_agrees_with_represent(d, weyl3_rep, weyl5_rep):
    rep = weyl3_rep if d == 3 else weyl5_rep
    for seed in range(10):
        v = pf.random_pure_vector(d, 300 + seed)
        mu = pf.represent(rep, np.outer(v, v.conj()))
        np.testing.assert_allclose(mu, pf.gross_as_dual_distribution(v), atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_representation_of_a_non_finite_frame_fails(weyl3, bad):
    ops = [np.array(op) for op in weyl3.operators]
    ops[4][1, 1] = bad
    with pytest.raises(NonFinite):
        pf.build_representation(pf.ProjectiveFrame(group=weyl3.group, operators=tuple(ops), dim=3))
