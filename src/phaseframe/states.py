"""Deterministic constructors for test and demonstration states.

Random states come from numpy's PCG64 generator (``numpy.random.default_rng``)
so that a seed pins the state bitwise across platforms; the draw order is part
of the contract and documented per constructor.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndexOutOfRange, InternalInconsistency, InvalidDimension, NotOddPrime
from .groups import _integer_at_least
from .linalg import DEFAULT_TOL
from .representation import _gross_wigner_rows

__all__ = [
    "basis_state",
    "conjugate_basis_state",
    "quadratic_phase_vector",
    "stabilizer_states",
    "maximally_mixed",
    "random_pure_vector",
    "random_pure",
    "random_density",
    "random_hermitian_trace1",
    "random_pure_family",
]


def _require_dim(d: int) -> int:
    return _integer_at_least(d, 2, InvalidDimension, f"need integer dimension >= 2, got {d}")


def basis_state(d: int, k: int) -> np.ndarray:
    """Projector |k><k| onto the k-th standard basis vector."""
    d = _require_dim(d)
    if not 0 <= k < d:
        raise IndexOutOfRange(f"basis index {k} outside [0, {d})")
    rho = np.zeros((d, d), dtype=np.complex128)
    rho[k, k] = 1.0
    return rho


def conjugate_basis_state(d: int, m: int) -> np.ndarray:
    """Projector onto the m-th conjugate-basis vector.

    The conjugate basis is the discrete Fourier transform of the standard one:
    |phi_m> = d^{-1/2} sum_k exp(-2 pi i k m / d) |k>, an eigenvector of the
    cyclic shift with eigenvalue exp(2 pi i m / d).
    """
    d = _require_dim(d)
    if not 0 <= m < d:
        raise IndexOutOfRange(f"conjugate basis index {m} outside [0, {d})")
    v = np.exp(-2j * np.pi * np.arange(d) * m / d) / np.sqrt(d)
    return np.outer(v, v.conj())


def quadratic_phase_vector(d: int, a: int, b: int) -> np.ndarray:
    """Unit vector with amplitudes omega^{a k^2 + b k} / sqrt(d), omega = exp(-2 pi i / d)."""
    d = _require_dim(d)
    k = np.arange(d)
    return np.exp(-2j * np.pi * ((a * k * k + b * k) % d) / d) / np.sqrt(d)


def stabilizer_states(d: int) -> list[np.ndarray]:
    """The d(d+1) stabilizer pure states of an odd prime dimension.

    Returns the d standard basis projectors followed by the d^2 quadratic-phase
    projectors, ordered by (a, b). Every returned state is verified to have an
    entrywise nonnegative Wigner function (down to ``-DEFAULT_TOL.band(1)``) and
    the list is verified to be duplicate-free (no two states with
    1 - |<u|v>|^2 within ``DEFAULT_TOL.band(1)``); either failure raises
    InternalInconsistency.
    """
    d = _require_dim(d)
    if d % 2 == 0 or not all(d % p for p in range(3, math.isqrt(d) + 1, 2)):
        raise NotOddPrime(f"stabilizer family needs an odd prime dimension, got {d}")
    vectors = np.concatenate([np.eye(d, dtype=np.complex128), np.stack(
        [quadratic_phase_vector(d, a, b) for a in range(d) for b in range(d)])])
    if float(np.min(_gross_wigner_rows(vectors, DEFAULT_TOL))) < -DEFAULT_TOL.band(1.0):
        raise InternalInconsistency("stabilizer candidate has a negative Wigner value")
    overlaps = np.abs(vectors.conj() @ vectors.T) ** 2
    first, second = np.nonzero(np.triu(1.0 - overlaps <= DEFAULT_TOL.band(1.0), k=1))
    if first.size:
        raise InternalInconsistency(f"stabilizer states {first[0]} and {second[0]} coincide "
                                    "as projectors")
    return list(vectors[:, :, None] * vectors[:, None, :].conj())


def maximally_mixed(d: int) -> np.ndarray:
    """The state I/d."""
    d = _require_dim(d)
    return np.eye(d, dtype=np.complex128) / d


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # Draw order: all real parts, then all imaginary parts.
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pure_vector(d: int, seed: int) -> np.ndarray:
    """Normalized vector of d standard complex Gaussians from PCG64(seed)."""
    d = _require_dim(d)
    v = _complex_normal(np.random.default_rng(seed), d)
    return v / np.linalg.norm(v)


def random_pure(d: int, seed: int) -> np.ndarray:
    """Projector onto :func:`random_pure_vector` for the same seed."""
    v = random_pure_vector(d, seed)
    return np.outer(v, v.conj())


def random_density(d: int, seed: int) -> np.ndarray:
    """Density matrix G G^dag / Tr(G G^dag) for a d x d complex Gaussian G."""
    d = _require_dim(d)
    g = _complex_normal(np.random.default_rng(seed), (d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian_trace1(d: int, seed: int) -> np.ndarray:
    """Hermitian trace-1 operator (H + H^dag)/2 rescaled to unit trace.

    Generically indefinite; intended for exercising validity certificates on
    operators that are not density matrices.
    """
    d = _require_dim(d)
    h = _complex_normal(np.random.default_rng(seed), (d, d))
    a = 0.5 * (h + h.conj().T)
    return a / np.trace(a).real


def random_pure_family(d: int, count: int, seed: int) -> list[np.ndarray]:
    """``count`` pure-state projectors drawn sequentially from one PCG64(seed).

    Each state consumes d real then d imaginary normals, in order, so the
    family for a given (d, count, seed) is reproducible bitwise.
    """
    d = _require_dim(d)
    if count < 0:
        raise InvalidDimension(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = _complex_normal(rng, d)
        v = v / np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return out
