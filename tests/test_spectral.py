"""Closed-form spectra of M_c and M_q against the dense translate matrices.

The dense route (build_mc / build_mq and their eigenvalues) is the reference: every
closed-form spectrum must match it, and every certificate verdict must be
the one the dense spectra give.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseframe as pf
from phaseframe.errors import NotAFrame, NotProjective
from phaseframe.representation import QuasiProbRepresentation

BUILDERS = {
    **{f"weyl{d}": (lambda d=d: pf.weyl_frame(d)) for d in (3, 5, 7, 9, 11, 13)},
    **{f"leonhardt{d}": (lambda d=d: pf.leonhardt_frame(d)) for d in (2, 3, 4, 5, 6)},
    "z2cubed": pf.z2cubed_frame,
    "qubit_ppp": lambda: pf.qubit_frame((1, 1, 1)),
    "qubit_ppm": lambda: pf.qubit_frame((1, 1, -1)),
    "qubit2": lambda: pf.tensor_frame(pf.qubit_frame(), pf.qubit_frame()),
    "qubit3": lambda: pf.tensor_frame(
        pf.tensor_frame(pf.qubit_frame(), pf.qubit_frame()), pf.qubit_frame()
    ),
}


@lru_cache(maxsize=None)
def representation(name):
    return pf.build_representation(BUILDERS[name]())


def states_for(d):
    out = [("mixed", pf.maximally_mixed(d))]
    if d in (3, 5, 7, 11, 13):  # odd primes
        out += [(f"stabilizer:{i}", rho) for i, rho in enumerate(pf.stabilizer_states(d))]
    for seed in (1, 2, 3):
        out += [
            (f"random-pure:{seed}", pf.random_pure(d, seed)),
            (f"random-density:{seed}", pf.random_density(d, seed)),
            (f"random-herm:{seed}", pf.random_hermitian_trace1(d, seed)),
        ]
    return out


def dense_spectra(rep, rho):
    """Sorted dense spectra of M_c and M_q."""
    frame = rep.frame
    phi = pf.characteristic(rep, rho)
    mq = pf.build_mq(frame.group, phi, pf.cocycle_table(frame))
    return pf.herm_eigenvalues(pf.build_mc(frame.group, phi)), pf.herm_eigenvalues(mq)


def assert_verdicts_match_dense(rep, rho, label="", dense=None):
    """Certify rho and check its verdicts against the dense ones.

    is_psd(m) is psd_from_spectrum(herm_eigenvalues(m)); taking the verdicts
    from spectra computed once spares a second dense eigensolve.
    """
    cert = pf.certify_state(rep, rho)
    mc_eigs, mq_eigs = dense if dense is not None else dense_spectra(rep, rho)
    quantum = pf.psd_from_spectrum(mq_eigs)[0]
    positive = quantum and pf.psd_from_spectrum(mc_eigs)[0]
    assert (cert.is_quantum_state, cert.is_positively_representable) == (quantum, positive), label
    # The oracle verdicts, read back from the certificate's agreement flags.
    oracle_quantum = cert.is_quantum_state == cert.oracle_agreement_state
    oracle_positive = cert.is_positively_representable == cert.oracle_agreement_positivity
    dense_boundary = not (oracle_quantum == quantum and oracle_positive == positive)
    assert cert.boundary == dense_boundary, label
    return cert


def assert_same_spectrum(closed, dense):
    assert closed.shape == dense.shape
    scale = max(1.0, float(np.max(np.abs(dense))))
    np.testing.assert_allclose(closed, dense, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_closed_form_spectra_match_dense(name):
    rep = representation(name)
    frame = rep.frame
    for label, rho in states_for(frame.dim):
        phi = pf.characteristic(rep, rho)
        mc_eigs, mq_eigs = dense_spectra(rep, rho)
        # |G| times one unbatched FFT with its 1/|G| kept, bit for bit
        n, fourier = frame.group.size, np.fft.fftn(phi.reshape(frame.group.orders)).ravel()
        assert pf.mc_spectrum(frame.group, phi).tobytes() == np.sort((n * (fourier / n)).real).tobytes()
        assert_same_spectrum(pf.mc_spectrum(frame.group, phi), mc_eigs)
        assert_same_spectrum(pf.mq_spectrum(frame, phi), mq_eigs)
        assert_verdicts_match_dense(rep, rho, label, dense=(mc_eigs, mq_eigs))


def test_mq_spectrum_has_the_unfaithful_zeros():
    frame = pf.leonhardt_frame(2)  # |G| = 16 over d^2 = 4: 12 extra zeros
    rep = pf.build_representation(frame)
    eigs = pf.mq_spectrum(frame, pf.characteristic(rep, pf.random_density(2, 5)))
    assert np.count_nonzero(eigs == 0.0) == 12
    assert eigs.sum() == pytest.approx(frame.group.size)  # trace of M_q is |G| phi(e)


# --------------------------------------------------------------------------
# the same verdicts from both routes, and under a change of basis


PROPERTY_FRAMES = ["weyl3", "weyl5", "leonhardt2", "leonhardt3", "z2cubed",
                   "qubit_ppp", "qubit_ppm"]
KINDS = {
    "random-herm": pf.random_hermitian_trace1,
    "random-density": pf.random_density,
    "random-pure": pf.random_pure,
}


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PROPERTY_FRAMES),
    kind=st.sampled_from(sorted(KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_routes_agree_and_survive_unitary_conjugation(name, kind, seed):
    rep = representation(name)
    frame = rep.frame
    rho = KINDS[kind](frame.dim, seed)
    cert = assert_verdicts_match_dense(rep, rho)

    u = random_unitary(frame.dim, seed)
    rotated = pf.ProjectiveFrame(
        group=frame.group,
        operators=tuple(u @ op @ u.conj().T for op in frame.operators),
        dim=frame.dim,
    )
    pf.validate_frame(rotated)
    rotated_rep = pf.build_representation(rotated)
    rotated_cert = assert_verdicts_match_dense(rotated_rep, u @ rho @ u.conj().T)
    assert (rotated_cert.is_quantum_state, rotated_cert.is_positively_representable) == (
        cert.is_quantum_state,
        cert.is_positively_representable,
    )


# --------------------------------------------------------------------------
# what the closed form reads: the verified frame


def _unverified_rep(rep, operators):
    frame = pf.ProjectiveFrame(group=rep.group, operators=operators, dim=rep.dim)
    return QuasiProbRepresentation(frame=frame, fourier_ops=rep.fourier_ops)


def test_an_unverified_non_projective_frame_fails(weyl3_rep):
    ops = list(weyl3_rep.frame.operators)
    ops[1] = ops[1] @ np.diag([1.0, 1.0, -1.0])  # still unitary, no longer projective
    rep = _unverified_rep(weyl3_rep, tuple(ops))
    with pytest.raises(NotProjective):
        pf.certify_state(rep, pf.maximally_mixed(3))


def test_an_unverified_non_spanning_frame_fails(qubit_rep):
    # I, Z, I, Z over Z_2 x Z_2 multiply projectively but span 2 of 4 dimensions.
    z = np.diag([1.0, -1.0])
    rep = _unverified_rep(qubit_rep, (np.eye(2), z, np.eye(2), z))
    with pytest.raises(NotAFrame):
        pf.certify_state(rep, pf.maximally_mixed(2))
