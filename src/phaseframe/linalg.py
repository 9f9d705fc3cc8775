"""Dense complex linear algebra helpers.

Everything downstream manipulates small complex matrices (d x d operators,
|G| x |G| translate matrices), so these are thin, tolerance-aware wrappers
around numpy. Matrices are plain ``numpy.ndarray`` values with dtype
complex128, i.e. row-major (re, im) double pairs. Hermitian operators stay
complex matrices throughout; where a frame operator over them is needed, it is
read off the flattened matrices, with no real coordinate basis in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSquare, NotHermitian, ShapeMismatch

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "dagger",
    "require_hermitian",
    "herm_eigenvalues",
    "is_psd",
    "psd_from_spectrum",
    "trace_inner",
    "tensor",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute-plus-relative tolerance used by every numerical predicate."""

    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("atol", "rtol"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    def band(self, scale: float = 1.0) -> float:
        """Acceptance band width for a quantity of the given magnitude."""
        return self.atol + self.rtol * abs(scale)

    def derived_band(self, scale: float = 1.0) -> float:
        """Ten times :meth:`band`: for a quantity computed from checked inputs by one
        more numeric step (a Fourier sum, a product, a transform that is real exactly)."""
        return 10.0 * self.band(scale)


DEFAULT_TOL = Tolerance()


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; 0 for an empty array."""
    arr = np.asarray(m)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _frozen(source) -> np.ndarray:
    """``source`` as a read-only complex128 array no caller can write to, so checks on it stay
    valid: a read-only C-order array that owns its memory (hand one over by freezing it) or a
    fresh conversion is kept; a caller's writable array, a view or a Fortran-order one is copied."""
    arr = np.asarray(source, dtype=np.complex128)
    if arr is source and arr.flags.writeable or arr.base is not None or not arr.flags.c_contiguous:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite, nonempty 2-d complex128 array."""
    try:
        arr = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
        raise ShapeMismatch(f"expected a nonempty 2-d matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFinite(f"matrix of shape {arr.shape} has NaN or infinite entries")
    return arr


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def require_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate squareness and Hermiticity within tolerance; return the coerced matrix."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {arr.shape}")
    residual, band = _hermitian_residual(arr, tol)
    if residual > band:
        raise NotHermitian(f"matrix deviates from Hermitian by {residual:.3e} (band {band:.3e})")
    return arr


def _hermitian_residual(block: np.ndarray, tol: Tolerance):
    """max |m - m^dag| and its band, ``band(max|m|)``, for a matrix or for each
    matrix of a (B, n, n) block: the one Hermiticity test, single or in bulk."""
    residual = np.abs(block - block.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return residual, tol.band(np.abs(block).max(axis=(-2, -1)))


def herm_eigenvalues(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted ascending."""
    arr = require_hermitian(m, tol)
    return np.linalg.eigvalsh(arr)


def psd_from_spectrum(eigs, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness verdict on a real spectrum, plus its minimum.

    The verdict allows a small negative slack, ``-(atol + rtol * max|eig|)``,
    so that rounding on true boundary cases does not produce false negatives.
    A (B, n) block of spectra gets one verdict and one minimum per row, as arrays.
    """
    values = np.asarray(eigs, dtype=float)
    min_eig = values.min(axis=-1)
    psd = min_eig >= -tol.band(np.abs(values).max(axis=-1))
    return (bool(psd), float(min_eig)) if values.ndim == 1 else (psd, min_eig)


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness verdict plus the minimum eigenvalue of a
    Hermitian matrix, by :func:`psd_from_spectrum` on its dense spectrum."""
    return psd_from_spectrum(herm_eigenvalues(m, tol), tol)


def trace_inner(a, b) -> complex:
    """Trace inner product Tr(a b) of two equal-size square matrices."""
    arr_a = as_matrix(a)
    arr_b = as_matrix(b)
    if arr_a.shape[0] != arr_a.shape[1] or arr_b.shape != arr_a.shape:
        raise DimensionMismatch(
            f"trace inner product needs equal square shapes, got {arr_a.shape} and {arr_b.shape}"
        )
    return complex(np.einsum("ij,ji->", arr_a, arr_b))


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the index of the first factor varies slower."""
    return np.kron(as_matrix(a), as_matrix(b))
