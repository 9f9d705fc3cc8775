"""Positivity certificates for states expressed through a projective frame.

Two structured |G| x |G| matrices built from the characteristic function
phi(g) = Tr(rho P_g) decide everything:

* the translate matrix M[g, g'] = phi(g' g^-1) is PSD exactly when the
  quasi-probability distribution of rho is entrywise nonnegative;
* the cocycle-twisted translate matrix M[g, g'] = phi(g' g^-1) alpha(g^-1, g')
  is PSD exactly when rho itself is positive semidefinite.

Certificates decide both from the exact spectra of these matrices, computed in
closed form from phi and the frame's operator stack (:func:`mc_spectrum`,
:func:`mq_spectrum`), with the tests on phi that :func:`groups.classical_bochner_check`
uses; they read no value of the cocycle alpha. The dense matrices (:func:`build_mc`,
and :func:`build_mq` with its own Hermiticity check) stay as the reference route.
Certificates also carry the direct spectral oracles (min eigenvalue of rho,
min quasi-probability value); a disagreement between the two routes is
reported, never reconciled silently.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CocycleMismatch,
    InternalInconsistency,
    NonFinite,
    NotConjugateSymmetric,
    NotNormalized,
    PhaseFrameError,
    ShapeMismatch,
)
from .frames import CocycleTable, ProjectiveFrame, validate_frame
from .groups import (
    FiniteAbelianGroup,
    _as_distribution,
    _as_group_values,
    _conjugate_symmetry,
    _fourier_rows,
    _normalization,
    translate_matrix,
)
from .linalg import DEFAULT_TOL, Tolerance, _hermitian_residual, max_abs, psd_from_spectrum
from .representation import QuasiProbRepresentation, characteristic, reconstruct, represent
from .representation import _represent_checked, _traces

__all__ = [
    "BochnerCertificate",
    "build_mc",
    "build_mq",
    "mc_spectrum",
    "mq_spectrum",
    "certify_state",
    "certify_distribution",
    "ScanRow",
    "ScanResult",
    "scan",
]


@dataclass(frozen=True, eq=False)
class BochnerCertificate:
    """Joint validity/positivity verdict for one operator under one representation."""

    orders: tuple[int, ...]
    phi: np.ndarray
    mu: np.ndarray
    mc_min_eig: float
    mq_min_eig: float
    is_quantum_state: bool
    is_positively_representable: bool
    boundary: bool
    tol: Tolerance
    state_min_eig: float
    min_mu: float
    oracle_agreement_state: bool
    oracle_agreement_positivity: bool
    input_mu_min: float | None = None


def _require_conjugate_symmetric(
    group: FiniteAbelianGroup, phi, tol: Tolerance
) -> np.ndarray:
    arr = _as_group_values(group, phi)
    residual, symmetric = _conjugate_symmetry(group, arr, tol)
    if not symmetric:
        raise NotConjugateSymmetric(
            f"phi(g^-1) != conj(phi(g)): residual {residual:.3e}"
        )
    return arr


def build_mc(
    group: FiniteAbelianGroup, phi, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Translate matrix M[g, g'] = phi(g' g^-1) in lexicographic element order."""
    return translate_matrix(group, _require_conjugate_symmetric(group, phi, tol))


def build_mq(
    group: FiniteAbelianGroup,
    phi,
    cocycle: CocycleTable,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Twisted translate matrix M[g, g'] = phi(g' g^-1) alpha(g^-1, g').

    The twist factor comes from expanding Tr(rho A^dag A) in the frame; the
    frame conventions make the result Hermitian, so a Hermiticity violation
    indicates a cocycle inconsistent with phi and is raised, naming the pair.
    """
    arr = _require_conjugate_symmetric(group, phi, tol)
    if cocycle.group.orders != group.orders:
        raise CocycleMismatch(
            f"cocycle over group {cocycle.group.orders}, phi over {group.orders}"
        )
    m = arr[group._products(group._inv)] * cocycle.values[group._inv, :]
    deviation = np.abs(m - m.conj().T)
    worst = float(np.max(deviation))
    if worst > tol.derived_band(max_abs(arr)):
        a, b = np.unravel_index(int(np.argmax(deviation)), m.shape)
        raise CocycleMismatch(
            f"twisted translate matrix not Hermitian at pair "
            f"({group.elements[a]}, {group.elements[b]}): deviation {worst:.3e}"
        )
    return m


def mc_spectrum(group: FiniteAbelianGroup, phi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Spectrum of :func:`build_mc`, ascending, in O(|G| log |G|).

    The translate matrix is a group circulant: the characters are its
    eigenvectors, and its eigenvalues are |G| times the Fourier transform of
    phi, which are real because phi is conjugate symmetric.
    """
    arr = _require_conjugate_symmetric(group, phi, tol)
    return np.sort((group.size * _fourier_rows(group, arr[None])[0]).real)


def mq_spectrum(frame: ProjectiveFrame, phi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Spectrum of :func:`build_mq` with the frame's cocycle, ascending, from a
    d x d eigenproblem.

    Let V send the basis vector e_g to P_g, from C^|G| to the d x d matrices
    with the Hilbert-Schmidt inner product, and let R_rho be right
    multiplication by rho. Then M_q[g, g'] = Tr(rho P_g^dag P_g') gives
    M_q = V^dag R_rho V. For a verified frame (projective, spanning, with
    P_g^-1 = P_(g^-1)), V V^dag = (|G|/d) I: an operator off the kernel K is
    traceless, and each operator occurs |K| = |G|/d^2 times up to a phase.
    So M_q is (|G|/d) R_rho on a copy of the matrix space plus 0 elsewhere:
    each eigenvalue of rho times |G|/d, d times over, and |G| - d^2 zeros.
    rho itself is read from phi, as rho = (d/|G|) sum_g phi(g) P_g^dag. No value
    of the cocycle is read; the frame's verification is the only gate.
    """
    arr = _require_conjugate_symmetric(frame.group, phi, tol)
    validate_frame(frame, tol)
    return _mq_spectra(frame, arr[None])[0]


def _mq_spectra(frame: ProjectiveFrame, phi: np.ndarray) -> np.ndarray:
    """:func:`mq_spectrum` of each row of a checked (B, |G|) block. Each product is a
    (1, |G|) row times the stack, so numpy keeps its matrix-vector kernel and a
    row's bits do not depend on B; the symmetrized rho is exactly Hermitian."""
    n, d = frame.group.size, frame.dim
    # sum_g phi(g) P_g^dag is the adjoint of this sum_g conj(phi(g)) P_g.
    adj = (phi.conj()[:, None, :] @ frame.operators.reshape(n, d * d)).reshape(-1, d, d)
    rho = (d / n) * 0.5 * (adj.conj().transpose(0, 2, 1) + adj)
    finite = np.isfinite(rho).all(axis=(1, 2))
    rho[~finite] = 0  # LAPACK may fail on an overflowed rho; its spectrum reads NaN instead
    eigs = np.where(finite[:, None], np.linalg.eigvalsh(rho), np.nan)
    spectra = np.repeat((n / d) * eigs, d, axis=1)
    return np.sort(np.concatenate([spectra, np.zeros((len(phi), n - d * d))], axis=1), axis=1)


def _row_error(rep: QuasiProbRepresentation, rho, tol: Tolerance) -> PhaseFrameError:
    """The error the row checks raise for a state a bulk test rejected: the tests
    are shared, so this only picks the message."""
    try:
        phi = characteristic(rep, rho, tol)  # shape, finite, square, Hermitian, dimension, phi
        if not _normalization(phi, tol)[1]:
            raise NotNormalized(f"trace = {phi[0]:.12g}, expected 1")
        validate_frame(rep.frame, tol)
        _require_conjugate_symmetric(rep.group, phi, tol)
    except PhaseFrameError as exc:
        return exc
    raise InternalInconsistency("a state the bulk checks reject passes the row checks")


@np.errstate(over="ignore", invalid="ignore")
def _certify_rows(
    rep: QuasiProbRepresentation, states: list, tol: Tolerance
) -> list[BochnerCertificate | PhaseFrameError]:
    """The certificate of each state, or the error :func:`certify_state` raises for it.

    States of the right shape are checked together by the tests the row checks own
    (``_hermitian_residual``, ``groups._normalization``, ``groups._conjugate_symmetry``,
    the last after the frame's verification, as there); a max of magnitudes is exact in
    any order, so a bulk test passes exactly the rows it passes alone. A rejected state takes its
    error from :func:`_row_error`, the rest one :func:`_certify_block`. Entries too
    large for phi or the spectra overflow to inf or NaN, and the row is NonFinite.
    """
    group, d = rep.group, rep.dim
    rows = {}
    for i, rho in enumerate(states):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if (arr := np.asarray(rho, dtype=np.complex128)).shape == (d, d):
                rows[i] = arr
    live = np.array(list(rows), dtype=int)
    block = np.array(list(rows.values()), dtype=np.complex128).reshape(-1, d, d)
    residual, band = _hermitian_residual(block, tol)
    phi = _traces(rep.frame.operators, block)
    passed = (np.isfinite(block).all(axis=(1, 2)) & ~(residual > band)
              & np.isfinite(phi).all(axis=1) & _normalization(phi, tol)[1])
    out = {}
    if passed.any():
        validate_frame(rep.frame, tol)
        passed &= _conjugate_symmetry(group, phi, tol)[1]
        live, block, phi = live[passed], block[passed], phi[passed]  # frees the full block
        out = dict(zip(live.tolist(), _certify_block(rep, block, phi, tol)))
    return [out[i] if i in out else _row_error(rep, rho, tol) for i, rho in enumerate(states)]


def _certify_block(rep: QuasiProbRepresentation, block: np.ndarray, phi: np.ndarray,
                   tol: Tolerance) -> list[BochnerCertificate | PhaseFrameError]:
    """Certify B checked states: their (B, d, d) ``block`` and (B, |G|) ``phi``.

    The verdicts come from the closed-form spectra of the translate matrices, the
    oracles from rho's eigenvalues and mu = Tr(rho F_j), for all rows at once. Each
    batched step, mu's stacked row product included, gives a row the bits it gets alone.
    """
    spectra = (_mq_spectra(rep.frame, phi),  # first: its temporaries are the largest
               (rep.group.size * _fourier_rows(rep.group, phi)).real, np.linalg.eigvalsh(block))
    finite = np.logical_and.reduce([np.isfinite(s).all(axis=1) for s in spectra])
    (mq_psd, mq_min), (mc_psd, mc_min), (state_psd, state_min) = (
        psd_from_spectrum(s, tol) for s in spectra)
    mus = _traces(rep.fourier_ops, block)
    certs: list[BochnerCertificate | PhaseFrameError] = []
    for i in range(len(block)):
        try:
            if not finite[i]:
                raise NonFinite("certificate spectra overflow: the operator's entries are too large")
            mu = _represent_checked(mus[i], tol)
        except PhaseFrameError as exc:
            certs.append(exc)
            continue
        min_mu = float(np.min(mu))
        quantum, positive = bool(mq_psd[i]), bool(mq_psd[i] and mc_psd[i])
        oracle_quantum = bool(state_psd[i])
        oracle_positive = oracle_quantum and min_mu >= -tol.band(max(1.0, max_abs(mu)))
        agree_state, agree_positive = oracle_quantum == quantum, oracle_positive == positive
        certs.append(BochnerCertificate(
            orders=rep.group.orders, phi=phi[i], mu=mu, tol=tol,
            mc_min_eig=float(mc_min[i]), mq_min_eig=float(mq_min[i]),
            is_quantum_state=quantum, is_positively_representable=positive,
            boundary=not (agree_state and agree_positive),
            state_min_eig=float(state_min[i]), min_mu=min_mu,
            oracle_agreement_state=agree_state, oracle_agreement_positivity=agree_positive,
        ))
    return certs


def certify_state(rep: QuasiProbRepresentation, rho,
                  tol: Tolerance = DEFAULT_TOL) -> BochnerCertificate:
    """Certify a Hermitian trace-1 operator through its characteristic function.

    Both verdicts come from the spectra of the translate matrices, as by
    :func:`mc_spectrum` and :func:`mq_spectrum`, compared with the direct spectral
    oracles; ``boundary`` flags the two routes landing on opposite sides of a
    threshold. Only phi and the frame's stack are read, once the frame passes its
    remembered invariant pass. This is :func:`scan`'s batched certifier on one row.
    """
    (outcome,) = _certify_rows(rep, [rho], tol)
    if isinstance(outcome, PhaseFrameError):
        raise outcome
    return outcome


@np.errstate(over="ignore", invalid="ignore")
def certify_distribution(
    rep: QuasiProbRepresentation,
    mu,
    tol: Tolerance = DEFAULT_TOL,
) -> BochnerCertificate:
    """Certify a distribution by reconstructing its operator first.

    A distribution that is not the mu of any Hermitian trace-1 operator fails
    loudly instead of producing a verdict on another distribution: the mu of its
    reconstructed operator differs from the input beyond ``derived_band(max(1, max|mu|))``
    (ShapeMismatch, naming the largest deviation; checked first, so also for an operator
    of trace 0), or that operator fails the certificate's checks. The minimum of the
    given values is recorded on the certificate.
    """
    values = _as_distribution(rep.group, mu, tol)
    total = float(np.sum(values))
    if abs(total - 1.0) > tol.band(1.0):
        raise NotNormalized(f"distribution sums to {total!r}, expected 1")
    worst = max_abs(represent(rep, rho := reconstruct(rep, values), tol) - values)
    if worst > tol.derived_band(max(1.0, max_abs(values))):
        raise ShapeMismatch(f"distribution is outside the range of the representation: the mu "
                            f"of its reconstructed operator deviates by up to {worst:.3e}")
    return replace(certify_state(rep, rho, tol), input_mu_min=float(np.min(values)))


@dataclass(frozen=True, eq=False)
class ScanRow:
    """Per-state outcome in a batch scan; exactly one of certificate/error is set."""

    index: int
    label: str
    certificate: BochnerCertificate | None
    error: str | None


@dataclass(frozen=True, eq=False)
class ScanResult:
    rows: tuple[ScanRow, ...]
    n_states: int
    n_valid: int
    n_positive: int
    n_boundary: int
    n_failed: int


def scan(
    rep: QuasiProbRepresentation,
    states,
    tol: Tolerance = DEFAULT_TOL,
    labels=None,
) -> ScanResult:
    """Certify a list of operators, recording per-item failures without aborting.

    Rows preserve input order and the result is deterministic for identical
    inputs. Summary counts cover valid states, positively representable
    states, boundary flags, and failed rows.
    """
    states = list(states)
    labels = [f"state[{i}]" for i in range(len(states))] if labels is None else list(labels)
    if len(labels) != len(states):
        raise ShapeMismatch(f"{len(labels)} labels for {len(states)} states")
    validate_frame(rep.frame, tol)  # a frame that fails does so once, not per row
    outcomes = _certify_rows(rep, states, tol)
    certs = [c for c in outcomes if isinstance(c, BochnerCertificate)]
    rows = tuple(ScanRow(i, label, None, str(c)) if isinstance(c, PhaseFrameError) else
                 ScanRow(i, label, c, None) for i, (label, c) in enumerate(zip(labels, outcomes)))
    return ScanResult(
        rows=rows,
        n_states=len(states),
        n_valid=sum(c.is_quantum_state for c in certs),
        n_positive=sum(c.is_positively_representable for c in certs),
        n_boundary=sum(c.boundary for c in certs),
        n_failed=len(states) - len(certs),
    )
