"""Positivity certificates for states expressed through a projective frame.

Two structured |G| x |G| matrices built from the characteristic function
phi(g) = Tr(rho P_g) decide everything:

* the translate matrix M[g, g'] = phi(g' g^-1) is PSD exactly when the
  quasi-probability distribution of rho is entrywise nonnegative;
* the cocycle-twisted translate matrix M[g, g'] = phi(g' g^-1) alpha(g^-1, g')
  is PSD exactly when rho itself is positive semidefinite.

Certificates decide both from the exact spectra of these matrices, computed
from phi in closed form (:func:`mc_spectrum`, :func:`mq_spectrum`); the dense
matrices (:func:`build_mc`, :func:`build_mq`) stay as the reference route.
Certificates also carry the direct spectral oracles (min eigenvalue of rho,
min quasi-probability value); a disagreement between the two routes is
reported, never reconciled silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CocycleMismatch,
    NotConjugateSymmetric,
    NotNormalized,
    PhaseFrameError,
    ShapeMismatch,
)
from .frames import CocycleTable, ProjectiveFrame, _verified_cocycle
from .groups import (
    FiniteAbelianGroup,
    _as_group_values,
    _symmetry_residual,
    fourier_forward,
    translate_matrix,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    herm_eigenvalues,
    max_abs,
    psd_from_spectrum,
)
from .representation import (
    QuasiProbRepresentation,
    characteristic,
    reconstruct,
    represent,
)

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
    residual = _symmetry_residual(group, arr)
    if residual > tol.band(max_abs(arr)):
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
    m = arr[group._diff] * cocycle.values[group._inv, :]
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
    return np.sort((group.size * fourier_forward(group, arr)).real)


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
    rho itself is read from phi, as rho = (d/|G|) sum_g phi(g) P_g^dag.
    """
    group, d = frame.group, frame.dim
    arr = _require_conjugate_symmetric(group, phi, tol)
    _verified_cocycle(frame, tol)
    n = group.size
    # sum_g phi(g) P_g^dag is the adjoint of sum_g conj(phi(g)) P_g.
    rho = (arr.conj() @ frame.stack().reshape(n, d * d)).reshape(d, d).conj().T
    rho = (d / n) * 0.5 * (rho + rho.conj().T)
    scaled = (n / d) * herm_eigenvalues(rho, tol)
    return np.sort(np.concatenate([np.repeat(scaled, d), np.zeros(n - d * d)]))


def _require_hermitian_twist(
    group: FiniteAbelianGroup, phi: np.ndarray, cocycle: CocycleTable, tol: Tolerance
) -> None:
    """Raise exactly what :func:`build_mq` raises for this phi and cocycle.

    The deviation of M_q from Hermitian at (g, gh) is at most
    |phi(h)| * twist_defect(h) + |phi(h) - conj(phi(h^-1))| * max|alpha|, an
    O(|G|) bound per state. Only when it passes half of build_mq's limit,
    which leaves room for rounding in the dense product, is M_q built.
    """
    bound = max_abs(np.abs(phi) * cocycle.twist_defect) + _symmetry_residual(
        group, phi
    ) * max_abs(cocycle.values)
    if bound > 0.5 * tol.derived_band(max_abs(phi)):
        build_mq(group, phi, cocycle, tol)


def certify_state(
    rep: QuasiProbRepresentation,
    rho,
    tol: Tolerance = DEFAULT_TOL,
) -> BochnerCertificate:
    """Certify a Hermitian trace-1 operator through its characteristic function.

    Both verdicts are decided from the spectra of the translate matrices,
    computed from phi in closed form by :func:`mc_spectrum` and
    :func:`mq_spectrum`; the direct spectral oracles (eigenvalues of rho,
    quasi-probability values) are then computed independently and compared.
    ``boundary`` flags the rare case where the two routes land on opposite
    sides of a tolerance threshold. The frame's invariant pass is run once
    and remembered, and its verified cocycle is the only one used: the
    theorem twists M_q by the frame's own cocycle.
    """
    group = rep.group
    phi = characteristic(rep, rho, tol)  # validates Hermiticity and shape
    trace = phi[0]
    if abs(trace - 1.0) > tol.band(1.0):
        raise NotNormalized(f"trace = {trace:.12g}, expected 1")
    cocycle = _verified_cocycle(rep.frame, tol)
    mc_eigs = mc_spectrum(group, phi, tol)
    _require_hermitian_twist(group, phi, cocycle, tol)
    mc_psd, mc_min = psd_from_spectrum(mc_eigs, tol)
    mq_psd, mq_min = psd_from_spectrum(mq_spectrum(rep.frame, phi, tol), tol)
    is_quantum = mq_psd
    is_positive = mq_psd and mc_psd

    oracle_quantum, state_min = psd_from_spectrum(herm_eigenvalues(rho, tol), tol)
    mu = represent(rep, rho, tol)
    min_mu = float(np.min(mu))

    oracle_positive = oracle_quantum and min_mu >= -tol.band(max(1.0, max_abs(mu)))
    agree_state = oracle_quantum == is_quantum
    agree_positive = oracle_positive == is_positive

    return BochnerCertificate(
        orders=group.orders,
        phi=phi,
        mu=mu,
        mc_min_eig=float(mc_min),
        mq_min_eig=float(mq_min),
        is_quantum_state=bool(is_quantum),
        is_positively_representable=bool(is_positive),
        boundary=not (agree_state and agree_positive),
        tol=tol,
        state_min_eig=state_min,
        min_mu=min_mu,
        oracle_agreement_state=bool(agree_state),
        oracle_agreement_positivity=bool(agree_positive),
    )


def certify_distribution(
    rep: QuasiProbRepresentation,
    mu,
    tol: Tolerance = DEFAULT_TOL,
) -> BochnerCertificate:
    """Certify a distribution by reconstructing its operator first.

    Reconstruction makes distributions inconsistent with any Hermitian trace-1
    operator fail loudly instead of producing a nonsense verdict. The minimum
    of the given values is recorded on the certificate; for distributions in
    the range of the representation it must match the translate-matrix verdict.
    """
    values = np.asarray(mu)
    if np.iscomplexobj(values):
        if values.size and float(np.max(np.abs(values.imag))) > tol.band(1.0):
            raise ShapeMismatch("distribution values must be real")
        values = values.real
    values = values.astype(float)
    if values.shape != (rep.group.size,):
        raise ShapeMismatch(
            f"distribution has shape {values.shape}, expected ({rep.group.size},)"
        )
    total = float(np.sum(values))
    if abs(total - 1.0) > tol.band(1.0):
        raise NotNormalized(f"distribution sums to {total!r}, expected 1")
    rho_hat = reconstruct(rep, values)
    cert = certify_state(rep, rho_hat, tol)
    return replace(cert, input_mu_min=float(np.min(values)))


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
    if labels is None:
        labels = [f"state[{i}]" for i in range(len(states))]
    labels = list(labels)
    if len(labels) != len(states):
        raise ShapeMismatch(f"{len(labels)} labels for {len(states)} states")
    _verified_cocycle(rep.frame, tol)  # a frame that fails does so once, not per row

    rows: list[ScanRow] = []
    n_valid = n_positive = n_boundary = n_failed = 0
    for i, (label, rho) in enumerate(zip(labels, states)):
        try:
            cert = certify_state(rep, rho, tol)
        except PhaseFrameError as exc:
            rows.append(ScanRow(index=i, label=label, certificate=None, error=str(exc)))
            n_failed += 1
            continue
        rows.append(ScanRow(index=i, label=label, certificate=cert, error=None))
        n_valid += cert.is_quantum_state
        n_positive += cert.is_positively_representable
        n_boundary += cert.boundary
    return ScanResult(
        rows=tuple(rows),
        n_states=len(states),
        n_valid=n_valid,
        n_positive=n_positive,
        n_boundary=n_boundary,
        n_failed=n_failed,
    )
