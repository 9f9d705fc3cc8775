import numpy as np
import pytest

import phaseframe as pf
from phaseframe.errors import (
    CocycleMismatch,
    NonFinite,
    NotConjugateSymmetric,
    NotHermitian,
    NotNormalized,
    ShapeMismatch,
)
from phaseframe.frames import CocycleTable


# --------------------------------------------------------------------------
# translate matrices


def test_mc_of_delta_is_identity():
    group = pf.make_group([3, 3])
    phi = np.zeros(9, dtype=complex)
    phi[0] = 1.0
    np.testing.assert_allclose(pf.build_mc(group, phi), np.eye(9), atol=1e-15)


def test_mc_of_constant_is_rank_one():
    group = pf.make_group([3, 3])
    m = pf.build_mc(group, np.ones(9, dtype=complex))
    np.testing.assert_allclose(m, np.ones((9, 9)), atol=1e-15)
    ok, min_eig = pf.is_psd(m)
    assert ok and abs(min_eig) < 1e-12
    assert np.linalg.matrix_rank(m, tol=1e-10) == 1


def test_mc_of_basis_state_has_zero_modes(weyl3_rep):
    phi = pf.characteristic(weyl3_rep, pf.basis_state(3, 0))
    m = pf.build_mc(weyl3_rep.group, phi)
    ok, min_eig = pf.is_psd(m)
    assert ok
    assert abs(min_eig) < 1e-10
    # Eigenvalues of the translate matrix are |G| times the distribution.
    mu = pf.represent(weyl3_rep, pf.basis_state(3, 0))
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(m)), np.sort(9 * mu), atol=1e-10
    )


def test_mc_rejects_asymmetric_phi():
    group = pf.make_group([3])
    with pytest.raises(NotConjugateSymmetric):
        pf.build_mc(group, np.array([1.0, 1j, 1j]))


def test_mq_of_delta_is_identity(weyl3):
    group = weyl3.group
    cocycle = pf.cocycle_table(weyl3)
    phi = np.zeros(9, dtype=complex)
    phi[0] = 1.0
    np.testing.assert_allclose(pf.build_mq(group, phi, cocycle), np.eye(9), atol=1e-12)


def test_mq_of_maximally_mixed_is_psd(weyl3, weyl3_rep):
    phi = pf.characteristic(weyl3_rep, pf.maximally_mixed(3))
    m = pf.build_mq(weyl3.group, phi, pf.cocycle_table(weyl3))
    np.testing.assert_allclose(m, np.eye(9), atol=1e-12)
    ok, _ = pf.is_psd(m)
    assert ok


def test_mq_detects_invalid_state(qubit_ppp, qubit_rep):
    rho = np.diag([1.5, -0.5]).astype(complex)
    phi = pf.characteristic(qubit_rep, rho)
    m = pf.build_mq(qubit_ppp.group, phi, pf.cocycle_table(qubit_ppp))
    ok, min_eig = pf.is_psd(m)
    assert not ok
    assert min_eig < -0.1


def test_mq_with_trivial_cocycle_equals_mc(weyl3_rep):
    group = weyl3_rep.group
    trivial = CocycleTable(group=group, values=np.ones((9, 9), dtype=complex))
    phi = pf.characteristic(weyl3_rep, pf.random_density(3, 9))
    assert np.array_equal(
        pf.build_mq(group, phi, trivial), pf.build_mc(group, phi)
    )


@pytest.mark.parametrize("d", [3, 5])
def test_mq_reduces_to_half_phase_formula(d):
    frame = pf.weyl_frame(d)
    rep = pf.build_representation(frame)
    phi = pf.characteristic(rep, pf.random_density(d, 50 + d))
    m = pf.build_mq(frame.group, phi, pf.cocycle_table(frame))
    group = frame.group
    omega = np.exp(-2j * np.pi / d)
    s = (d + 1) // 2
    for a, (j, l) in enumerate(group.elements):
        for b, (jp, lp) in enumerate(group.elements):
            expected = phi[group.index(((jp - j) % d, (lp - l) % d))] * omega ** (
                ((j * lp - jp * l) * s) % d
            )
            assert abs(m[a, b] - expected) < 1e-10


@pytest.mark.parametrize("builder", [
    lambda: pf.weyl_frame(3),
    lambda: pf.qubit_frame((1, -1, 1)),
    lambda: pf.z2cubed_frame(),
    lambda: pf.leonhardt_frame(2),
])
def test_mq_equals_operator_gram(builder):
    # Independent route: the twisted translate matrix is the Gram-like array
    # Tr(rho P_g^dag P_g'), computed here straight from the operators without
    # touching phi or the cocycle.
    frame = builder()
    rep = pf.build_representation(frame)
    rho = pf.random_hermitian_trace1(frame.dim, 61)
    phi = pf.characteristic(rep, rho)
    m = pf.build_mq(frame.group, phi, pf.cocycle_table(frame))
    n = frame.group.size
    direct = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            direct[a, b] = np.trace(
                rho @ frame.operators[a].conj().T @ frame.operators[b]
            )
    np.testing.assert_allclose(m, direct, atol=1e-12)


def test_certify_on_mixed_order_group(weyl3, qubit_ppp):
    # d = 6 frame over Z_3^2 x Z_2^2 exercises characters with mixed factor
    # orders through the whole certification chain.
    frame = pf.tensor_frame(weyl3, qubit_ppp)
    rep = pf.build_representation(frame)
    cert = pf.certify_state(rep, pf.maximally_mixed(6))
    assert cert.is_quantum_state and cert.is_positively_representable
    bad = pf.random_hermitian_trace1(6, 62)
    cert = pf.certify_state(rep, bad)
    assert cert.oracle_agreement_state and cert.oracle_agreement_positivity
    assert cert.is_quantum_state == (cert.state_min_eig >= -1e-9)


def test_mq_cocycle_group_mismatch(weyl3):
    cocycle = pf.cocycle_table(weyl3)
    other = pf.make_group([2, 2])
    phi = np.zeros(4, dtype=complex)
    phi[0] = 1.0
    with pytest.raises(CocycleMismatch):
        pf.build_mq(other, phi, cocycle)


# --------------------------------------------------------------------------
# certificates


def test_certify_maximally_mixed(weyl3_rep):
    cert = pf.certify_state(weyl3_rep, pf.maximally_mixed(3))
    assert cert.is_quantum_state
    assert cert.is_positively_representable
    assert not cert.boundary
    assert cert.oracle_agreement_state and cert.oracle_agreement_positivity
    assert cert.min_mu == pytest.approx(1 / 9, abs=1e-12)


def test_certify_invalid_operator(qubit_rep):
    cert = pf.certify_state(qubit_rep, np.diag([1.5, -0.5]).astype(complex))
    assert not cert.is_quantum_state
    assert not cert.is_positively_representable
    assert cert.state_min_eig == pytest.approx(-0.5, abs=1e-12)
    assert cert.oracle_agreement_state


def test_certify_random_pure_state_is_negative(weyl3_rep):
    # Haar-random pure states sit outside the nonnegativity polytope; the
    # witness value for this seed is pinned as a regression constant.
    cert = pf.certify_state(weyl3_rep, pf.random_pure(3, 1))
    assert cert.is_quantum_state
    assert not cert.is_positively_representable
    assert cert.min_mu == pytest.approx(-0.1365564, abs=1e-6)


def test_certify_stabilizer_states(weyl3_rep):
    for rho in pf.stabilizer_states(3):
        cert = pf.certify_state(weyl3_rep, rho)
        assert cert.is_quantum_state
        assert cert.is_positively_representable
        assert not cert.boundary


def test_certify_rejects_unnormalized(weyl3_rep):
    with pytest.raises(NotNormalized):
        pf.certify_state(weyl3_rep, 2 * pf.maximally_mixed(3))


def test_certify_rejects_non_hermitian(weyl3_rep):
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(NotHermitian):
        pf.certify_state(weyl3_rep, bad)


def test_certify_distribution_uniform(weyl3_rep):
    cert = pf.certify_distribution(weyl3_rep, np.full(9, 1 / 9))
    assert cert.is_quantum_state and cert.is_positively_representable
    assert cert.input_mu_min == pytest.approx(1 / 9)


def test_certify_distribution_of_basis_state(weyl3_rep):
    mu = pf.represent(weyl3_rep, pf.basis_state(3, 0))
    cert = pf.certify_distribution(weyl3_rep, mu)
    assert cert.is_quantum_state and cert.is_positively_representable


def test_certify_distribution_with_negative_entry(weyl3_rep):
    mu = np.zeros(9)
    mu[0] = 1.2
    mu[1] = -0.2
    cert = pf.certify_distribution(weyl3_rep, mu)
    assert not cert.is_positively_representable
    assert cert.mc_min_eig < -1e-6
    assert cert.input_mu_min == pytest.approx(-0.2)
    # The reconstructed operator reproduces the distribution, so the direct
    # minimum matches the translate-matrix verdict.
    assert cert.min_mu == pytest.approx(-0.2, abs=1e-10)


def test_certify_distribution_validation(weyl3_rep):
    with pytest.raises(ShapeMismatch):
        pf.certify_distribution(weyl3_rep, np.ones(4) / 4)
    with pytest.raises(NotNormalized):
        pf.certify_distribution(weyl3_rep, np.full(9, 1.0))


def test_certify_distribution_fails_loudly_on_inconsistent_input(z2cubed_rep):
    # Mass on a vanishing Fourier component cannot come from any trace-1
    # operator; reconstruction drops it and the trace check trips.
    mu = np.zeros(8)
    mu[0] = 0.5
    mu[4] = 0.5  # dual index (1,0,0), a zero component
    with pytest.raises(NotNormalized):
        pf.certify_distribution(z2cubed_rep, mu)


# --------------------------------------------------------------------------
# equivalence of certificate and direct spectral routes


@pytest.mark.parametrize("builder", [
    lambda: pf.weyl_frame(3),
    lambda: pf.qubit_frame((1, 1, 1)),
    lambda: pf.z2cubed_frame(),
])
def test_verdicts_match_direct_oracles(builder):
    frame = builder()
    rep = pf.build_representation(frame)
    d = frame.dim
    for i in range(50):
        rho = (
            pf.random_hermitian_trace1(d, 7000 + i)
            if i % 2
            else pf.random_density(d, 8000 + i)
        )
        cert = pf.certify_state(rep, rho)
        assert cert.oracle_agreement_state, (i, cert.state_min_eig, cert.mq_min_eig)
        assert cert.oracle_agreement_positivity, (i, cert.min_mu, cert.mc_min_eig)
        assert not cert.boundary


def test_certificate_invariant_under_relabeling(weyl3_rep):
    phi = pf.characteristic(weyl3_rep, pf.random_density(3, 77))
    m = pf.build_mc(weyl3_rep.group, phi)
    rng = np.random.default_rng(78)
    perm = rng.permutation(9)
    permuted = m[np.ix_(perm, perm)]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(permuted), np.linalg.eigvalsh(m), atol=1e-10
    )


# --------------------------------------------------------------------------
# scan


def test_scan_stabilizers(weyl3_rep):
    result = pf.scan(weyl3_rep, pf.stabilizer_states(3))
    assert result.n_states == 12
    assert result.n_valid == 12
    assert result.n_positive == 12
    assert result.n_failed == 0


def test_scan_empty(weyl3_rep):
    result = pf.scan(weyl3_rep, [])
    assert result.n_states == 0
    assert result.rows == ()
    assert result.n_valid == result.n_positive == 0


def test_scan_records_per_row_failures(weyl3_rep):
    states = [pf.maximally_mixed(3), 2 * pf.maximally_mixed(3), pf.basis_state(3, 1)]
    result = pf.scan(weyl3_rep, states)
    assert result.n_states == 3
    assert result.n_failed == 1
    assert result.rows[1].error is not None
    assert result.rows[0].certificate is not None
    assert result.rows[2].certificate.is_positively_representable


def test_scan_is_order_preserving_and_deterministic(weyl3_rep):
    states = pf.random_pure_family(3, 10, 5)
    r1 = pf.scan(weyl3_rep, states)
    r2 = pf.scan(weyl3_rep, states)
    for a, b in zip(r1.rows, r2.rows):
        assert a.index == b.index
        assert a.certificate.min_mu == b.certificate.min_mu


# --------------------------------------------------------------------------
# non-finite input


def _nan_state(d):
    rho = pf.maximally_mixed(d)
    rho[0, 0] = np.nan
    return rho


def test_certify_rejects_a_nan_state(weyl3_rep):
    with pytest.raises(NonFinite):
        pf.certify_state(weyl3_rep, _nan_state(3))


def test_scan_fails_only_the_nan_row(weyl3_rep):
    states = [pf.maximally_mixed(3), _nan_state(3), pf.basis_state(3, 1)]
    result = pf.scan(weyl3_rep, states)
    assert result.n_failed == 1
    assert result.rows[1].certificate is None and "NaN" in result.rows[1].error
    assert result.rows[0].certificate.is_positively_representable
    assert result.rows[2].certificate.is_positively_representable
    assert result.n_valid == result.n_positive == 2
