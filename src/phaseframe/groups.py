"""Finite abelian groups as products of cyclic factors.

Provides element arithmetic over residue tuples, the irreducible characters,
the group Fourier transform, and the classical positivity test that decides
whether a function on the group is the characteristic function of a
probability mass function.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatch, InternalInconsistency, InvalidOrder, NonFinite, ShapeMismatch
from .linalg import DEFAULT_TOL, Tolerance, max_abs, psd_from_spectrum

__all__ = [
    "MAX_GROUP_SIZE",
    "FiniteAbelianGroup",
    "make_group",
    "character_value",
    "character_table",
    "fourier_forward",
    "fourier_inverse",
    "translate_matrix",
    "ClassicalBochnerResult",
    "classical_bochner_check",
]

# Largest |G| accepted. It bounds the dense operator stack, |G| d^2 complex entries (256 MiB
# for six qubits); a group itself costs O(|G| k) to build and holds no |G|^2 table.
MAX_GROUP_SIZE = 4096


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product Z_n1 x ... x Z_nk with lexicographic element enumeration.

    Elements are tuples of residues, residue i in [0, n_i). The empty product
    is the trivial one-element group; it exists only as the neutral factor for
    tensor constructions.
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = _checked_orders(self.orders)
        if math.prod(orders) > MAX_GROUP_SIZE:
            raise InvalidOrder(f"group of order {math.prod(orders)} exceeds {MAX_GROUP_SIZE}")
        object.__setattr__(self, "orders", orders)
        elements = tuple(itertools.product(*(range(n) for n in orders)))
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(elements)})
        res = np.array(elements, dtype=np.int64).reshape(len(elements), len(orders))
        # Place values of the lexicographic index: weight[i] = prod(orders[i+1:]).
        weight = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
        object.__setattr__(self, "_residues", res)
        object.__setattr__(self, "_weight", weight)
        object.__setattr__(self, "_inv", ((-res) % np.array(orders, dtype=np.int64)) @ weight)

    def _products(self, a) -> np.ndarray:
        """Index of a g for every g: shape (|G|,) for an element index ``a``, (m, |G|) for
        a 1-D array of m. ``_products(_inv)`` is [g, g'] = index of g' g^-1. Summed one
        factor at a time, so no (..., |G|, k) temporary exists."""
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros((*a.shape, self.size), dtype=np.int64)
        for r, n, w in zip(self._residues.T, self.orders, self._weight):
            term = r[a][..., None] + r
            term %= n
            term *= w
            out += term
        return out

    @property
    def size(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return self._elements

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def element(self, residues) -> tuple[int, ...]:
        """Canonical (mod-reduced) element tuple; raises GroupMismatch on wrong arity or on
        a residue that is not an integer (3, 3.0, numpy.int64(3) and -1 are)."""
        t = tuple(_integer_at_least(r, -math.inf, GroupMismatch,
                                    f"element residue must be an integer, got {r!r}")
                  for r in residues)
        if len(t) != len(self.orders):
            raise GroupMismatch(
                f"element has {len(t)} residues, group has {len(self.orders)} factors"
            )
        return tuple(r % n for r, n in zip(t, self.orders))

    def index(self, g) -> int:
        return self._index[self.element(g)]

    def compose(self, g, h) -> tuple[int, ...]:
        return self.element([x + y for x, y in zip(self.element(g), self.element(h))])

    def inverse(self, g) -> tuple[int, ...]:
        return self.element([-x for x in self.element(g)])


def _integer_at_least(value, minimum: float, error: type, message: str) -> int:
    """``value`` (3, 3.0, numpy.int64(3)) as an int >= ``minimum``, else ``error(message)``."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if (n := int(value)) == value and n >= minimum:
            return n
    raise error(message)


def _checked_orders(orders) -> tuple[int, ...]:
    """Cyclic factor orders as ints, each >= 2, checked before any |G|-sized work."""
    return tuple(_integer_at_least(n, 2, InvalidOrder, f"cyclic factor order must be >= 2, got {n}")
                 for n in orders)


def make_group(orders) -> FiniteAbelianGroup:
    """Group with the given cyclic factor orders (each an integer >= 2), as given."""
    return FiniteAbelianGroup(tuple(orders))


def _root_exponents(group: FiniteAbelianGroup, j, g) -> tuple[np.ndarray, int]:
    """Exponents K = sum_i (L / n_i) j_i g_i mod L and common order L = lcm(orders),
    so that chi_j(g) = exp(-2 pi i K / L); j and g are residue arrays (..., k)."""
    L = math.lcm(*group.orders)
    w = np.array([L // n for n in group.orders], dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    return ((j * w) @ g.T) % L, L


def character_value(group: FiniteAbelianGroup, j, g) -> complex:
    """Irreducible character chi_j(g) = prod_i exp(-2 pi i j_i g_i / n_i)."""
    k, L = _root_exponents(group, group.element(j), group.element(g))
    if k == 0:
        return 1.0 + 0.0j
    return complex(np.exp(-2j * np.pi * k / L))


def character_table(group: FiniteAbelianGroup) -> np.ndarray:
    """|G| x |G| table with entry [j, g] = chi_j(g); table / sqrt(|G|) is unitary."""
    K, L = _root_exponents(group, group._residues, group._residues)
    roots = np.exp(-2j * np.pi * np.arange(L) / L)
    return roots[K]


def _as_group_values(group: FiniteAbelianGroup, values) -> np.ndarray:
    """The one gate for a function on the group: complex numbers, one per element, finite."""
    try:
        arr = np.asarray(values, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
        raise ShapeMismatch(f"function values must be numbers: {exc}") from exc
    if arr.shape != (group.size,):
        raise GroupMismatch(
            f"function has {arr.shape} values, group has {group.size} elements"
        )
    if not np.isfinite(arr).all():
        raise NonFinite("function has NaN or infinite values")
    return arr


def _as_distribution(group: FiniteAbelianGroup, mu, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The one gate for a distribution, a real function on the group: one float per element.
    Ragged or non-numeric values, and an imaginary part beyond ``band(1)``, are ShapeMismatch;
    an imaginary part within it is dropped."""
    try:
        values = np.asarray(mu)
        if values.dtype.kind in "SU":  # astype(float) would parse a string such as "0.5"
            raise ValueError("got a string")
        if np.iscomplexobj(values):
            if values.size and float(np.max(np.abs(values.imag))) > tol.band(1.0):
                raise ShapeMismatch("distribution values must be real")
            values = values.real
        values = values.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
        raise ShapeMismatch(f"distribution values must be numbers: {exc}") from exc
    if values.shape != (group.size,):
        raise ShapeMismatch(f"distribution has shape {values.shape}, expected ({group.size},)")
    return values


def _fourier_rows(group: FiniteAbelianGroup, block: np.ndarray, axis: int = 1) -> np.ndarray:
    """(1/|G|) sum_g chi_j(g) x_g along the |G| axis: 1 of a (B, |G|) block of functions, 0 of
    the (|G|, d, d) stack (the F_j). One FFT over the group axes of an owned complex copy, in
    place, so no second array of its size exists; the trivial group's copy is its transform."""
    out = np.array(block, dtype=np.complex128)
    view = out.reshape(*out.shape[:axis], *group.orders, *out.shape[axis + 1:])
    np.fft.fftn(view, axes=tuple(range(axis, axis + len(group.orders))), out=view)
    return np.divide(out, group.size, out=out)


def _normalization(phi: np.ndarray, tol: Tolerance):
    """|phi(e) - 1| and whether it is within ``band(1)``, NaN failing, for phi or each
    row of a (B, |G|) block: the one normalization test."""
    residual = np.abs(phi[..., 0] - 1.0)
    return residual, residual <= tol.band(1.0)


def _conjugate_symmetry(group: FiniteAbelianGroup, phi: np.ndarray, tol: Tolerance):
    """max |phi(g^-1) - conj(phi(g))| and whether it is within ``band(max|phi|)``, NaN
    failing, for phi or each row of a (B, |G|) block: the one conjugate-symmetry test."""
    residual = np.abs(phi[..., group._inv] - phi.conj()).max(axis=-1)
    return residual, residual <= tol.band(np.abs(phi).max(axis=-1))


def fourier_forward(group: FiniteAbelianGroup, values) -> np.ndarray:
    """Fourier transform f~_j = (1/|G|) sum_g chi_j(g) f_g, indexed by the dual.

    The lexicographic order makes f a C-order array of shape ``group.orders``
    and chi_j(g) the kernel of numpy's multidimensional FFT, so this costs
    O(|G| log |G|) with no character table. The trivial group has no axes to transform.
    """
    return _fourier_rows(group, _as_group_values(group, values)[None])[0]


def fourier_inverse(group: FiniteAbelianGroup, values) -> np.ndarray:
    """Inverse transform f_g = sum_j conj(chi_j(g)) f~_j, |G| times the forward one at g^-1."""
    arr = _as_group_values(group, values)
    return group.size * _fourier_rows(group, arr[None])[0][group._inv]


def translate_matrix(group: FiniteAbelianGroup, values) -> np.ndarray:
    """|G| x |G| matrix T with T[g, g'] = f(g' g^-1).

    T is Hermitian whenever f(g^-1) = conj(f(g)), and its eigenvalues are
    |G| times the Fourier coefficients of f, so T >= 0 exactly when the
    Fourier transform of f is entrywise nonnegative.
    """
    arr = _as_group_values(group, values)
    return arr[group._products(group._inv)]


@dataclass(frozen=True, eq=False)
class ClassicalBochnerResult:
    """Outcome of the classical characteristic-function test."""

    accepted: bool
    mu: np.ndarray
    min_mu: float
    translate_min_eig: float
    identity_residual: float
    symmetry_residual: float


def classical_bochner_check(
    group: FiniteAbelianGroup, phi, tol: Tolerance = DEFAULT_TOL
) -> ClassicalBochnerResult:
    """Decide whether phi is the characteristic function of a probability mass function.

    Accepts exactly when phi(e) = 1 and the translate matrix of phi is positive
    semidefinite (both within tolerance). That matrix is a group circulant, so
    its spectrum is |G| times the Fourier transform ``mu`` of phi: one FFT, no
    eigensolve. On acceptance ``mu`` is cross-checked to be a valid pmf, and a
    violation raises InternalInconsistency.
    """
    arr = _as_group_values(group, phi)
    symmetry_residual, symmetric = _conjugate_symmetry(group, arr, tol)
    identity_residual, normalized = _normalization(arr, tol)

    mu_complex = _fourier_rows(group, arr[None])[0]
    mu = mu_complex.real.copy()
    min_mu = float(np.min(mu))

    if symmetric:
        psd, translate_min_eig = psd_from_spectrum((group.size * mu_complex).real, tol)
    else:
        psd, translate_min_eig = False, float("nan")

    accepted = bool(symmetric and normalized and psd)
    if accepted:
        mu_band = tol.derived_band(max(1.0, max_abs(mu_complex)))
        if (
            min_mu < -mu_band
            or abs(np.sum(mu_complex) - 1.0) > mu_band
            or float(np.max(np.abs(mu_complex.imag))) > mu_band
        ):
            raise InternalInconsistency(
                "translate matrix accepted but Fourier coefficients are not a pmf; "
                f"min mu = {min_mu:.3e}, sum = {np.sum(mu_complex):.12g}"
            )
    return ClassicalBochnerResult(
        accepted=accepted,
        mu=mu,
        min_mu=min_mu,
        translate_min_eig=float(translate_min_eig),
        identity_residual=float(identity_residual),
        symmetry_residual=float(symmetry_residual),
    )
