import itertools

import numpy as np
import pytest

import phaseframe as pf
from phaseframe.errors import DimensionMismatch, NonSquare, NotHermitian

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_dagger_identity():
    eye = np.eye(2, dtype=complex)
    assert np.array_equal(pf.dagger(eye), eye)


def test_dagger_forced_example():
    m = np.array([[0, 1j], [0, 0]])
    expected = np.array([[0, 0], [-1j, 0]])
    assert np.array_equal(pf.dagger(m), expected)


def test_dagger_of_shift_is_its_inverse():
    x, _ = pf.gen_pauli(3)
    np.testing.assert_allclose(pf.dagger(x) @ x, np.eye(3), atol=1e-14)


def test_dagger_is_involution():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.array_equal(pf.dagger(pf.dagger(m)), m)


def test_herm_eigenvalues_diagonal():
    np.testing.assert_allclose(pf.herm_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_herm_eigenvalues_pauli_x():
    np.testing.assert_allclose(pf.herm_eigenvalues(X2), [-1, 1], atol=1e-14)


def test_herm_eigenvalues_quarter_pauli_sum():
    m = (np.eye(2) + X2 + Y2 + Z2) / 4
    expected = [(1 - np.sqrt(3)) / 4, (1 + np.sqrt(3)) / 4]
    np.testing.assert_allclose(pf.herm_eigenvalues(m), expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("d", [2, 3, 5])
def test_eigenvalue_sum_matches_trace(d, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = 0.5 * (h + h.conj().T)
    eigs = pf.herm_eigenvalues(m)
    assert abs(np.sum(eigs) - np.trace(m).real) < 1e-10


def test_eigenvalues_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = 0.5 * (h + h.conj().T)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(g)
    np.testing.assert_allclose(
        pf.herm_eigenvalues(u @ m @ u.conj().T), pf.herm_eigenvalues(m), atol=1e-10
    )


def test_eigen_residual_contract():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = 0.5 * (h + h.conj().T)
    eigs, vecs = np.linalg.eigh(m)
    scale = np.max(np.abs(m))
    for k in range(8):
        residual = np.linalg.norm(m @ vecs[:, k] - eigs[k] * vecs[:, k])
        assert residual <= 1e-8 * scale


def test_herm_eigenvalues_deterministic():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = 0.5 * (h + h.conj().T)
    assert np.array_equal(pf.herm_eigenvalues(m), pf.herm_eigenvalues(m.copy()))


def test_herm_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        pf.herm_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_herm_eigenvalues_rejects_non_square():
    with pytest.raises(NonSquare):
        pf.herm_eigenvalues(np.zeros((2, 3)))


def test_is_psd_identity():
    ok, min_eig = pf.is_psd(np.eye(3))
    assert ok and abs(min_eig - 1.0) < 1e-14


def test_is_psd_explicit_negative():
    ok, min_eig = pf.is_psd(np.diag([1.5, -0.5]))
    assert not ok and abs(min_eig + 0.5) < 1e-14


def _psd_by_principal_minors(m, slack=1e-9):
    d = m.shape[0]
    for r in range(1, d + 1):
        for rows in itertools.combinations(range(d), r):
            sub = m[np.ix_(rows, rows)]
            if np.linalg.det(sub).real < -slack:
                return False
    return True


@pytest.mark.parametrize("d", [2, 3])
def test_is_psd_agrees_with_principal_minors(d):
    rng = np.random.default_rng(4)
    for trial in range(200):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if trial % 2:
            m = g @ g.conj().T  # PSD by construction
        else:
            m = 0.5 * (g + g.conj().T)  # generically indefinite
        verdict, min_eig = pf.is_psd(m)
        if abs(min_eig) < 1e-8:
            continue  # too close to the cone boundary for the determinant oracle
        assert verdict == _psd_by_principal_minors(m)


def test_trace_inner_identity():
    assert pf.trace_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_trace_inner_pauli_orthogonality():
    assert abs(pf.trace_inner(X2, Z2)) < 1e-14


def test_trace_inner_frame_pairs(weyl3):
    g = weyl3.group
    for elem in g.elements:
        value = pf.trace_inner(weyl3.operator(elem), weyl3.operator(g.inverse(elem)))
        assert abs(value - 3.0) < 1e-12


def test_trace_inner_conjugation_symmetry():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = pf.trace_inner(a, b)
    rhs = np.conj(pf.trace_inner(pf.dagger(b), pf.dagger(a)))
    assert abs(lhs - rhs) < 1e-12


def test_trace_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pf.trace_inner(np.eye(2), np.eye(3))


def test_tensor_identities():
    assert np.array_equal(pf.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_index_convention():
    # X (x) I sends e0 to e2: the first factor's index varies slower.
    e0 = np.zeros(4)
    e0[0] = 1
    out = pf.tensor(X2, np.eye(2)) @ e0
    expected = np.zeros(4)
    expected[2] = 1
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_tensor_of_pauli_frames_is_orthogonal(qubit_ppp):
    ops = [pf.tensor(a, b) for a in qubit_ppp.operators for b in qubit_ppp.operators]
    assert len(ops) == 16
    for i in range(16):
        for j in range(16):
            value = pf.trace_inner(pf.dagger(ops[i]), ops[j])
            expected = 4.0 if i == j else 0.0
            assert abs(value - expected) < 1e-12


def test_tolerance_rejects_bad_values():
    with pytest.raises(ValueError):
        pf.Tolerance(atol=-1.0)
    with pytest.raises(ValueError):
        pf.Tolerance(rtol=float("nan"))
    band = pf.Tolerance(atol=1e-9, rtol=1e-9).band(2.0)
    assert band == pytest.approx(3e-9)
