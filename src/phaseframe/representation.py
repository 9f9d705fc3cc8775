"""Quasi-probability representations built from projective frames.

The group-Fourier transform of a projective frame is a family of Hermitian
operators F_j indexed by the dual group. Pairing a state with the F_j gives a
real, normalized (but possibly negative) distribution; the canonical dual
frame inverts the map. For every verified frame the Fourier frame operator is
I/d, so the dual frame is D_j = d F_j, the phase-point operators of Gross
(J. Math. Phys. 47, 122107, 2006). The module also carries the direct
convolution formula for the odd-dimensional Wigner function of a pure state,
used as an independent oracle for the frame-based route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EvenDimension,
    InternalInconsistency,
    InvalidDimension,
    NonFinite,
    NotHermitian,
    NotNormalized,
)
from .frames import _FRAME_CHECKS, ProjectiveFrame, _check
from .groups import _as_distribution, _fourier_rows
from .linalg import DEFAULT_TOL, Tolerance, _frozen, max_abs, require_hermitian

__all__ = [
    "QuasiProbRepresentation",
    "build_representation",
    "represent",
    "characteristic",
    "reconstruct",
    "gross_wigner_pure",
    "gross_as_dual_distribution",
]


@dataclass(frozen=True, eq=False)
class QuasiProbRepresentation:
    """A projective frame with its Fourier frame; the canonical dual frame is D_j = d F_j.

    ``fourier_ops`` is one (|G|, d, d) array kept or copied by :func:`linalg._frozen`; row i
    belongs to the dual element ``frame.group.elements[i]`` (the dual of a finite abelian group
    is identified with the group itself, in the same order). :func:`reconstruct` forms the D_j.
    """

    frame: ProjectiveFrame
    fourier_ops: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "fourier_ops", _frozen(self.fourier_ops))

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def group(self):
        return self.frame.group


def build_representation(
    frame: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL
) -> QuasiProbRepresentation:
    """Fourier-transform a projective frame into a quasi-probability representation.

    F_j = (1/|G|) sum_g chi_j(g) P_g is one in-place FFT over the group axes of a copy of
    the stack, by the helper that transforms phi (:func:`groups.fourier_forward`). The frame
    conventions make the F_j Hermitian (NotHermitian beyond ``derived_band(max|F|)``; the
    kept F_j are symmetrized), summing to I within ``derived_band(1)``. For a verified
    frame sum_g |P_g><P_g| = (|G|/d) I, so the dual frame is D_j = d F_j, and by character
    orthogonality d sum_j |F_j><F_j| = (d/|G|) sum_g |P_g><P_g| = I. On the invariant
    pass's exact route this holds entrywise within ``band(1)``, rounding aside: each P_g
    is within s of an irreducible snapped P'_g on its support, 3 s + s^2 <= band(1); Schur
    orthogonality gives the identity for the P'_g, and as an entry is nonzero in |G|/d of
    them, the P_g move it by at most 2 s + s^2. The dense route checks it, at ``derived_band(1)``.
    """
    group, n, d = frame.group, frame.group.size, frame.dim
    fourier = _fourier_rows(group, frame.operators, axis=0)
    scale, deviation, step = np.empty(n), np.empty(n), 1 + (1 << 16) // (d * d)
    for lo in range(0, n, step):  # blocks of about 2^16 entries keep the temporaries small
        block, adjoint = fourier[lo:lo + step], fourier[lo:lo + step].conj().transpose(0, 2, 1)
        scale[lo:lo + step] = np.abs(block).max(axis=(1, 2))
        deviation[lo:lo + step] = np.abs(block - adjoint).max(axis=(1, 2))
        block[...] = 0.5 * (block + adjoint)
    if (bad := np.flatnonzero(deviation > tol.derived_band(float(scale.max())))).size:
        raise NotHermitian(f"Fourier operator {group.elements[bad[0]]} is not Hermitian (deviation "
                           f"{deviation[bad[0]]:.3e}); the frame violates the inverse convention")
    if not _check(frame, tol, _FRAME_CHECKS).exact:  # in O(|G| d^4)
        vecs = fourier.reshape(n, d * d)
        resolution = max_abs(d * (vecs.T @ vecs.conj()) - np.eye(d * d))
        if resolution > tol.derived_band(1.0):
            raise InternalInconsistency(
                f"dual frame fails the reconstruction identity (residual {resolution:.3e})")
    if max_abs(fourier.sum(axis=0) - np.eye(d)) > tol.derived_band(1.0):
        raise InternalInconsistency("Fourier operators do not sum to the identity")
    fourier.setflags(write=False)  # read-only and owned, so the representation keeps it
    return QuasiProbRepresentation(frame=frame, fourier_ops=fourier)


def _require_state_shape(rep: QuasiProbRepresentation, rho, tol: Tolerance) -> np.ndarray:
    arr = require_hermitian(rho, tol)
    if arr.shape != (rep.dim, rep.dim):
        raise DimensionMismatch(
            f"operator shape {arr.shape} does not match representation dimension {rep.dim}"
        )
    return arr


def represent(
    rep: QuasiProbRepresentation, rho, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Quasi-probability values mu_j = Tr(rho F_j) in dual lexicographic order.

    The values of a Hermitian operator are real up to rounding; the imaginary
    residue is checked and discarded.
    """
    arr = _require_state_shape(rep, rho, tol)
    return _represent_checked(_traces(rep.fourier_ops, arr[None])[0], tol)


def _represent_checked(mu: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`represent`'s values from the complex Tr(rho F_j) of one checked state."""
    imag = float(np.max(np.abs(mu.imag)))
    if imag > tol.derived_band(max(1.0, max_abs(mu))):
        raise InternalInconsistency(f"quasi-probability values have imaginary residue {imag:.3e}")
    return mu.real.copy()


def characteristic(
    rep: QuasiProbRepresentation, rho, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Characteristic function phi(g) = Tr(rho P_g) in element lexicographic order;
    NonFinite for a finite operator whose phi overflows."""
    phi = _traces(rep.frame.operators, _require_state_shape(rep, rho, tol)[None])[0]
    if not np.isfinite(phi).all():
        raise NonFinite("characteristic function overflows: the operator's entries are too large")
    return phi


@np.errstate(over="ignore", invalid="ignore")
def _traces(ops: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Tr(rho O_g) for each rho of a (B, d, d) block and O_g of a (|G|, d, d) stack, as
    (B, |G|): phi for the frame's stack, complex mu for the F_j. Each product is one
    flattened rho^T, a (1, d^2) row, times the flattened stack, so numpy keeps its
    matrix-vector kernel and a row's bits do not depend on B. Overflow reads inf or NaN."""
    d = block.shape[-1]
    rows = block.transpose(0, 2, 1).reshape(-1, 1, d * d)
    return (rows @ ops.reshape(-1, d * d).T)[:, 0, :]


def reconstruct(rep: QuasiProbRepresentation, mu) -> np.ndarray:
    """Operator sum_j mu_j D_j, with D_j = d F_j, recovering the state represented by mu.

    For mu = represent(rep, rho) this returns rho up to rounding; for
    distributions outside the range of the representation it returns the
    minimum-norm consistent operator.
    """
    values = _as_distribution(rep.group, mu)
    return np.tensordot(values, rep.dim * rep.fourier_ops, axes=([0], [0]))


# --------------------------------------------------------------------------
# independent oracle: direct Wigner function of a pure state, odd dimension


def gross_wigner_pure(amplitudes, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Wigner table W[q, p] of a normalized pure state in odd dimension d.

    W[q, p] = (1/d) sum_s omega^{-p s} a[q - s/2] conj(a[q + s/2]) with
    omega = exp(-2 pi i / d) and s/2 meaning s (d+1)/2 mod d. Entries are real
    and sum to 1. This route never touches the frame machinery, which makes it
    an independent check of the frame-based distribution.
    """
    return _gross_wigner_rows(np.asarray(amplitudes, dtype=np.complex128).reshape(1, -1), tol)[0]


def _gross_wigner_rows(rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`gross_wigner_pure` of each row of a (B, d) block, as a (B, d, d) block."""
    d = rows.shape[1]
    if d < 2:
        raise InvalidDimension(f"need a state vector of length >= 2, got {d}")
    if d % 2 == 0:
        raise EvenDimension(f"the half-index convolution needs odd d, got {d}")
    for row in rows:
        norm = float(np.vdot(row, row).real)
        if abs(norm - 1.0) > tol.band(1.0):
            raise NotNormalized(f"state vector norm^2 = {norm!r}, expected 1")
    half = (d + 1) // 2
    q = np.arange(d)[:, None]
    s = np.arange(d)[None, :]
    pairs = rows[:, (q - s * half) % d] * rows[:, (q + s * half) % d].conj()  # [., q, s]
    kernel = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)  # [s, p]
    table = pairs @ kernel / d
    imag = max_abs(table.imag)
    if imag > tol.derived_band(1.0):
        raise InternalInconsistency(f"Wigner table has imaginary residue {imag:.3e}")
    return table.real.copy()


def gross_as_dual_distribution(amplitudes, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Wigner table of a pure state reordered to match :func:`represent`.

    The fixed bijection sends the dual index (a, b) of the Z_d x Z_d frame to
    the phase-space point (q, p) = (-b mod d, -a mod d). It was pinned once by
    matching the distributions of a basis state and a quadratic-phase state
    and is frozen here; any fixed relabeling of the index set is equally valid.
    """
    table = gross_wigner_pure(amplitudes, tol)
    minus = -np.arange(table.shape[0]) % table.shape[0]
    return table[minus[None, :], minus[:, None]].ravel()
