import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe import bochner
from phaseframe.errors import (
    CocycleMismatch,
    NonFinite,
    NotConjugateSymmetric,
    NotHermitian,
    NotNormalized,
    PhaseFrameError,
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
    # operator; reconstruction drops it, and the range check names what was dropped.
    mu = np.zeros(8)
    mu[0] = 0.5
    mu[4] = 0.5  # dual index (1,0,0), a zero component
    with pytest.raises(ShapeMismatch, match=r"outside the range .* up to 5\.000e-01$"):
        pf.certify_distribution(z2cubed_rep, mu)


@pytest.mark.parametrize("builder, outside", [
    (lambda: pf.leonhardt_frame(2), 4),
    (lambda: pf.leonhardt_frame(4), 16),
    (pf.z2cubed_frame, 0),
])
def test_a_certified_point_mass_is_the_distribution_it_was_given(builder, outside):
    # Each point mass either fails or is certified as itself. On the unfaithful Leonhardt
    # frames some reconstruct to an operator whose mu is another distribution, and those
    # are rejected, naming how far that mu lies from the input. So are those whose operator
    # has trace 0, such as all mass on a vanishing F_j; they are not counted in ``outside``.
    rep = pf.build_representation(builder())
    n = rep.group.size
    rejected = 0
    for j in range(n):
        mu = np.eye(n)[j]
        try:
            cert = pf.certify_distribution(rep, mu)
        except ShapeMismatch as exc:
            assert "outside the range of the representation" in str(exc)
            rejected += abs(np.trace(pf.reconstruct(rep, mu))) > 1e-12
        else:
            np.testing.assert_allclose(cert.mu, mu, rtol=0, atol=1e-14)
    assert rejected == outside


def test_the_leonhardt_origin_point_mass_names_its_deviation(leonhardt2):
    mu = np.eye(16)[0]
    with pytest.raises(ShapeMismatch, match=r"deviates by up to 7\.500e-01$"):
        pf.certify_distribution(pf.build_representation(leonhardt2), mu)


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


def test_scan_rejects_a_label_count_that_does_not_match_the_states(weyl3_rep):
    with pytest.raises(ShapeMismatch, match="^2 labels for 1 states$"):
        pf.scan(weyl3_rep, [pf.maximally_mixed(3)], labels=["a", "b"])


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


# --------------------------------------------------------------------------
# scan against certify_state, row by row


@functools.cache
def _scan_rep(name):
    qubit = pf.qubit_frame()
    frames = {"weyl3": lambda: pf.weyl_frame(3), "weyl5": lambda: pf.weyl_frame(5),
              "leonhardt2": lambda: pf.leonhardt_frame(2),
              "leonhardt3": lambda: pf.leonhardt_frame(3), "z2cubed": pf.z2cubed_frame,
              "qubit2": lambda: pf.tensor_frame(qubit, qubit),
              "qubit3": lambda: pf.tensor_frame(pf.tensor_frame(qubit, qubit), qubit)}
    return pf.build_representation(frames[name]())


def _scan_row(kind, d, seed):
    """One scan input of the given kind; the invalid kinds each fail one check."""
    rho = pf.random_density(d, seed)
    k = seed % d
    if kind == "pure":
        return pf.random_pure(d, seed)
    if kind == "herm":
        return pf.random_hermitian_trace1(d, seed)
    if kind == "basis":
        return pf.basis_state(d, k)
    if kind in ("nan", "inf"):
        rho[k, (k + 1) % d] = np.nan if kind == "nan" else np.inf
    elif kind == "huge":  # finite, but phi or the spectra may overflow
        rho[k, (k + 1) % d] = (1e305, 3e307, 1e308, 1.7e308)[seed % 4]
        rho[(k + 1) % d, k] = np.conj(rho[k, (k + 1) % d])
    elif kind == "non-hermitian":
        rho[k, (k + 1) % d] += (1e-12, 1e-8, 0.1)[seed % 3]
    elif kind == "nearly-hermitian":  # fails the Hermitian band, passes the symmetry one
        rho = pf.maximally_mixed(d)
        rho[k, (k + 1) % d] += 1.7e-9
    elif kind == "asymmetric":  # passes the Hermitian band, fails the symmetry one
        return pf.maximally_mixed(d) + 1e-9 * np.roll(np.eye(d), 1, axis=0)
    elif kind == "non-normalized":
        rho *= (1 + 1e-10, 1 + 1e-8, 2.0)[seed % 3]
    elif kind == "wrong-dimension":
        return pf.maximally_mixed(d + 1)
    elif kind == "non-square":
        return np.zeros((d, d + 1))
    elif kind == "vector":
        return np.ones(d) / d
    elif kind == "ragged":
        return [[1.0] * d] + [[0.0]] * (d - 1)
    elif kind == "list":
        return rho.tolist()
    return rho


def _bits(x):
    return struct.pack("<d", x)


def _row_reference(rep, rho):
    """A certificate for one state from the public row functions, in the row checks'
    order; the dense build_mq runs on every valid row as the oracle for M_q."""
    phi = pf.characteristic(rep, rho)
    if abs(phi[0] - 1.0) > pf.DEFAULT_TOL.band(1.0):
        raise NotNormalized(f"trace = {phi[0]:.12g}, expected 1")
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = (pf.mc_spectrum(rep.group, phi), pf.mq_spectrum(rep.frame, phi),
                   pf.herm_eigenvalues(rho))
        pf.build_mq(rep.group, phi, pf.cocycle_table(rep.frame))
    if not all(np.isfinite(s).all() for s in spectra):
        raise NonFinite("certificate spectra overflow: the operator's entries are too large")
    (mc_psd, mc_min), (mq_psd, mq_min), (state_psd, state_min) = map(pf.psd_from_spectrum, spectra)
    mu = pf.represent(rep, rho)
    min_mu = float(np.min(mu))
    oracle_positive = state_psd and min_mu >= -pf.DEFAULT_TOL.band(max(1.0, np.abs(mu).max()))
    return pf.BochnerCertificate(
        orders=rep.group.orders, phi=phi, mu=mu, tol=pf.DEFAULT_TOL, mc_min_eig=mc_min,
        mq_min_eig=mq_min, is_quantum_state=mq_psd,
        is_positively_representable=mq_psd and mc_psd,
        boundary=not (state_psd == mq_psd and oracle_positive == (mq_psd and mc_psd)),
        state_min_eig=state_min, min_mu=min_mu, oracle_agreement_state=state_psd == mq_psd,
        oracle_agreement_positivity=oracle_positive == (mq_psd and mc_psd))


def _assert_same_certificate(a, b):
    assert a.orders == b.orders and a.tol == b.tol
    assert a.phi.tobytes() == b.phi.tobytes() and a.mu.tobytes() == b.mu.tobytes()
    for field in ("mc_min_eig", "mq_min_eig", "state_min_eig", "min_mu"):
        assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
    for field in ("is_quantum_state", "is_positively_representable", "boundary",
                  "oracle_agreement_state", "oracle_agreement_positivity", "input_mu_min"):
        assert getattr(a, field) is getattr(b, field), field


ROW_KINDS = ["density", "pure", "herm", "basis", "list", "nan", "inf", "huge", "non-hermitian",
             "nearly-hermitian", "asymmetric", "non-normalized", "wrong-dimension", "non-square",
             "vector", "ragged"]


@settings(max_examples=100, deadline=None)
@given(frame=st.sampled_from(["weyl3", "weyl5", "leonhardt2", "leonhardt3", "z2cubed",
                              "qubit2", "qubit3"]),
       rows=st.lists(st.tuples(st.sampled_from(ROW_KINDS), st.integers(0, 2**16)),
                     max_size=10))
def test_scan_rows_equal_certify_state_bit_for_bit(frame, rows):
    # Each row also equals its certificate, or error, from the public row functions.
    rep = _scan_rep(frame)
    states = [_scan_row(kind, rep.dim, seed) for kind, seed in rows]
    result = pf.scan(rep, states)
    assert len(result.rows) == result.n_states == len(states)
    certs = []
    for row, rho in zip(result.rows, states):
        try:
            reference = _row_reference(rep, rho)
        except PhaseFrameError as exc:
            with pytest.raises(type(exc)) as caught:
                pf.certify_state(rep, rho)
            assert (row.certificate, row.error) == (None, str(exc)) == (None, str(caught.value))
            continue
        cert = pf.certify_state(rep, rho)
        assert row.error is None
        _assert_same_certificate(row.certificate, cert)
        _assert_same_certificate(cert, reference)
        certs.append(cert)
    assert result.n_failed == len(states) - len(certs)
    assert result.n_valid == sum(c.is_quantum_state for c in certs)
    assert result.n_positive == sum(c.is_positively_representable for c in certs)
    assert result.n_boundary == sum(c.boundary for c in certs)


def test_scan_certifies_all_rows_in_one_batched_call(weyl3_rep, monkeypatch):
    blocks = []
    certify_block = bochner._certify_block
    monkeypatch.setattr(bochner, "certify_state", None)
    monkeypatch.setattr(bochner, "_certify_block",
                        lambda rep, rows, *args: blocks.append(len(rows))
                        or certify_block(rep, rows, *args))
    states = pf.random_pure_family(3, 20, 1) + [2 * pf.maximally_mixed(3), _nan_state(3)]
    result = pf.scan(weyl3_rep, states)
    assert blocks == [20]
    assert result.n_failed == 2 and result.n_valid == 20


def test_certificates_read_no_value_of_the_cocycle(weyl3, weyl3_rep):
    # Swap a perturbed cocycle into the frame's remembered invariant pass: build_mq
    # rejects it, but certify_state and scan keep the untouched frame's bits.
    frame = pf.ProjectiveFrame(group=weyl3.group, operators=weyl3.operators, dim=3)
    rep = pf.build_representation(frame)
    found = frame._verified[pf.DEFAULT_TOL]
    values = found.cocycle().values
    noise = np.random.default_rng(5).standard_normal(values.shape)
    twisted = CocycleTable(group=frame.group, values=values * np.exp(0.1j * noise))
    frame._verified[pf.DEFAULT_TOL] = found._replace(cocycle=lambda: twisted)
    states = [pf.random_density(3, 12), pf.maximally_mixed(3), pf.basis_state(3, 1),
              pf.random_pure(3, 4), pf.random_hermitian_trace1(3, 7)]
    result, untouched = pf.scan(rep, states), pf.scan(weyl3_rep, states)
    assert pf.cocycle_table(frame) is twisted and result.n_failed == untouched.n_failed == 0
    for row, reference, rho in zip(result.rows, untouched.rows, states):
        _assert_same_certificate(row.certificate, reference.certificate)
        _assert_same_certificate(pf.certify_state(rep, rho), reference.certificate)
        with pytest.raises(CocycleMismatch, match="not Hermitian at pair"):
            pf.build_mq(frame.group, pf.characteristic(rep, rho), twisted)


def test_a_ragged_state_is_a_shape_error(weyl3_rep):
    ragged = [[1.0, 0.0, 0.0], [0.0]]
    with pytest.raises(ShapeMismatch, match="expected a nonempty 2-d matrix: "):
        pf.certify_state(weyl3_rep, ragged)
    result = pf.scan(weyl3_rep, [pf.maximally_mixed(3), ragged])
    assert result.rows[1].error.startswith("expected a nonempty 2-d matrix")
    assert result.rows[0].certificate.is_positively_representable
