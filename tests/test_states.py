import numpy as np
import pytest

import phaseframe as pf
from phaseframe import states as state_lib
from phaseframe.errors import (
    IndexOutOfRange,
    InternalInconsistency,
    InvalidDimension,
    NotOddPrime,
)


def test_basis_state_examples():
    np.testing.assert_allclose(pf.basis_state(2, 0), np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(pf.basis_state(3, 2), np.diag([0.0, 0.0, 1.0]), atol=1e-15)


@pytest.mark.parametrize("d,k", [(2, 1), (5, 3), (7, 0)])
def test_basis_state_is_projector(d, k):
    rho = pf.basis_state(d, k)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)
    assert np.trace(rho) == pytest.approx(1.0)


def test_basis_state_index_range():
    with pytest.raises(IndexOutOfRange):
        pf.basis_state(3, 3)
    with pytest.raises(IndexOutOfRange):
        pf.conjugate_basis_state(3, -1)


def test_conjugate_basis_d2():
    np.testing.assert_allclose(
        pf.conjugate_basis_state(2, 0), np.full((2, 2), 0.5), atol=1e-15
    )


@pytest.mark.parametrize("m", [0, 1, 2])
def test_conjugate_basis_is_shift_eigenvector(m):
    x, _ = pf.gen_pauli(3)
    rho = pf.conjugate_basis_state(3, m)
    omega = np.exp(-2j * np.pi / 3)
    _, eigvecs = np.linalg.eigh(rho)
    v = eigvecs[:, -1]  # the +1 eigenvector of the projector
    np.testing.assert_allclose(x @ v, omega ** (-m) * v, atol=1e-12)


def test_stabilizer_state_counts():
    assert len(pf.stabilizer_states(3)) == 12
    assert len(pf.stabilizer_states(5)) == 30


def test_stabilizer_zero_curvature_slice_is_conjugate_basis():
    states = pf.stabilizer_states(3)
    # Quadratic family starts after the 3 basis states, ordered by (a, b);
    # the a=0 slice is the conjugate basis.
    for b in range(3):
        np.testing.assert_allclose(
            states[3 + b], pf.conjugate_basis_state(3, b), atol=1e-12
        )


def test_stabilizer_states_are_wigner_nonnegative():
    for d in (3, 5):
        for rho in pf.stabilizer_states(d):
            eigvals, eigvecs = np.linalg.eigh(rho)
            v = eigvecs[:, -1]
            assert float(np.min(pf.gross_wigner_pure(v))) >= -1e-10


def test_stabilizer_states_distinct():
    states = pf.stabilizer_states(3)
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            assert np.max(np.abs(states[i] - states[j])) > 1e-3


@pytest.mark.parametrize("d", [3, 5])
def test_stabilizer_duplicate_guard_names_the_first_pair(monkeypatch, d):
    original = state_lib.quadratic_phase_vector

    def repeating(d, a, b):
        if (a, b) == (1, 1):
            return 1j * np.eye(d)[:, 0]  # basis state 0, up to a phase
        return original(d, 0, b)  # ignores a, so (1, b) repeats (0, b)

    monkeypatch.setattr(state_lib, "quadratic_phase_vector", repeating)
    # Both (d, 2d) and (0, 2d + 1) coincide; the pair with the smaller first index is named.
    with pytest.raises(InternalInconsistency,
                       match=rf"^stabilizer states 0 and {2 * d + 1} coincide as projectors$"):
        pf.stabilizer_states(d)


def test_stabilizer_rejects_non_prime():
    with pytest.raises(NotOddPrime):
        pf.stabilizer_states(9)
    with pytest.raises(NotOddPrime):
        pf.stabilizer_states(4)


def test_maximally_mixed():
    np.testing.assert_allclose(pf.maximally_mixed(2), np.diag([0.5, 0.5]), atol=1e-15)
    np.testing.assert_allclose(pf.maximally_mixed(3), np.eye(3) / 3, atol=1e-15)
    for d in (2, 3, 5, 8):
        assert np.trace(pf.maximally_mixed(d)) == pytest.approx(1.0)


def test_random_pure_properties():
    rho = pf.random_pure(2, 1)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)


def test_random_density_properties():
    rho = pf.random_density(3, 7)
    eigs = pf.herm_eigenvalues(rho)
    assert eigs[0] >= -1e-12
    assert np.sum(eigs) == pytest.approx(1.0, abs=1e-12)


def test_random_hermitian_trace1_seed3_regression():
    m = pf.random_hermitian_trace1(2, 3)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    eigs = pf.herm_eigenvalues(m)
    # Recorded at first run for this seed: indefinite.
    assert eigs[0] == pytest.approx(-0.7982229503, abs=1e-6)


def test_same_seed_is_bitwise_identical():
    for ctor in (pf.random_pure, pf.random_density, pf.random_hermitian_trace1):
        assert np.array_equal(ctor(4, 123), ctor(4, 123))
    assert np.array_equal(
        np.stack(pf.random_pure_family(3, 5, 42)),
        np.stack(pf.random_pure_family(3, 5, 42)),
    )


def test_family_draws_sequentially():
    fam = pf.random_pure_family(3, 4, 9)
    assert len(fam) == 4
    assert not np.allclose(fam[0], fam[1])


def test_constructors_are_psd_except_hermitian_literal():
    for rho in (
        pf.basis_state(4, 2),
        pf.conjugate_basis_state(5, 1),
        pf.maximally_mixed(3),
        pf.random_pure(3, 0),
        pf.random_density(4, 0),
    ):
        assert pf.herm_eigenvalues(rho)[0] >= -1e-12


def test_dimension_validation():
    with pytest.raises(InvalidDimension):
        pf.maximally_mixed(1)
    with pytest.raises(InvalidDimension):
        pf.random_pure(0, 1)
