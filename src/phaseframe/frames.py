"""Projective frames: unitary operator families indexed by a finite abelian group.

A projective frame maps each group element g to a unitary P_g with

* P_e = identity,
* P_g P_g' = alpha(g, g') P_{gg'} for a unit-modulus scalar 2-cocycle alpha,
* P_g^-1 = P_{g^-1} (equivalently alpha(g, g^-1) = 1),
* the operators span the full matrix space.

These conventions make the group-Fourier transform of the frame a family of
Hermitian operators, which is what turns the frame into a quasi-probability
representation. Constructors here cover the shift/clock (Weyl) frames for odd
dimension, the qubit sign-class frames, tensor products, and two unfaithful
frames: the doubled phase space for even dimension and the Z2^3 example.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EvenDimension,
    GroupMismatch,
    InternalInconsistency,
    InvalidDimension,
    NonFinite,
    NotAFrame,
    NotProjective,
)
from .groups import FiniteAbelianGroup, _integer_at_least, make_group
from .linalg import DEFAULT_TOL, Tolerance, _frozen, as_matrix, max_abs

__all__ = [
    "ProjectiveFrame",
    "CocycleTable",
    "gen_pauli",
    "weyl_frame",
    "qubit_frame",
    "tensor_frame",
    "trivial_frame",
    "z2cubed_frame",
    "leonhardt_frame",
    "phase_fix",
    "cocycle_table",
    "kernel",
    "is_faithful",
    "validate_frame",
    "frame_report",
]


# --------------------------------------------------------------------------
# core types


@dataclass(frozen=True, eq=False)
class ProjectiveFrame:
    """Immutable bundle of a group and one unitary per group element.

    ``operators`` is one (|G|, d, d) array kept or copied by :func:`linalg._frozen`, row i the
    unitary of ``group.elements[i]`` (lexicographic order); ``metadata`` records how it was built.
    """

    group: FiniteAbelianGroup
    operators: np.ndarray
    dim: int
    metadata: Mapping[str, Any] = field(default_factory=dict)
    _verified: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            stack = _frozen(self.operators)
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            stack = np.empty(0)
        if stack.ndim != 3 or not stack.size:  # not one stack: find the operator at fault
            ops = [as_matrix(op) for op in self.operators]
            shape = next((op.shape for op in ops if op.shape != (self.dim, self.dim)), None)
            stack = _frozen(ops) if shape is None else np.broadcast_to(0.0, (len(ops), *shape))
        elif not np.isfinite(stack).all():
            raise NonFinite(f"matrix of shape {stack.shape[1:]} has NaN or infinite entries")
        if len(stack) != self.group.size:
            raise GroupMismatch(f"{len(stack)} operators for a group of size {self.group.size}")
        if stack.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatch(f"operator shape {stack.shape[1:]} does not match dim {self.dim}")
        object.__setattr__(self, "operators", stack)
        object.__setattr__(self, "metadata", dict(self.metadata))

    def operator(self, g) -> np.ndarray:
        return self.operators[self.group.index(g)]


@dataclass(frozen=True, eq=False)
class CocycleTable:
    """The scalars alpha(g, g') of a frame; ``values`` kept or copied by :func:`linalg._frozen`."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        arr, n = _frozen(self.values), self.group.size
        if arr.shape != (n, n):
            raise GroupMismatch(f"cocycle table shape {arr.shape}, group size {n}")
        object.__setattr__(self, "values", arr)

    def value(self, g, h) -> complex:
        return complex(self.values[self.group.index(g), self.group.index(h)])


# --------------------------------------------------------------------------
# elementary building blocks


def _shift_clock(d: int, shifts, clocks) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of X^j and Z^l for paired powers j, l, built exactly: X^j is the
    shift |k> -> |k+j mod d>, Z^l = diag(omega^(k l)) with omega = exp(-2 pi i / d)."""
    j, l = np.asarray(shifts)[:, None], np.asarray(clocks)[:, None]
    n, cols = len(j), np.arange(d)
    shift = np.zeros((n, d, d), dtype=np.complex128)
    shift[np.arange(n)[:, None], (cols + j) % d, cols] = 1.0
    clock = np.zeros((n, d, d), dtype=np.complex128)
    clock[:, cols, cols] = np.exp(-2j * np.pi * cols / d)[(cols * l) % d]
    return shift, clock


def gen_pauli(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Pauli pair (X, Z) in dimension d.

    Z = diag(1, omega, ..., omega^{d-1}) with omega = exp(-2 pi i / d) and X
    the cyclic shift |k> -> |k+1 mod d>, so that Z X = omega X Z and
    X^d = Z^d = identity.
    """
    d = _integer_at_least(d, 2, InvalidDimension,
                          f"generalized Pauli matrices need integer d >= 2, got {d}")
    shift, clock = _shift_clock(d, [1], [1])
    return shift[0], clock[0]


# --------------------------------------------------------------------------
# invariant checks


# Every named invariant, with the message it raises under. Residuals are
# compared as ``not r <= limit`` so that a NaN residual fails.
_MESSAGES = {
    "unitarity": "operator not unitary: residual {r:.3e} exceeds {limit:.3e}",
    "identity_at_origin": "identity element maps to a non-identity operator (residual {r:.3e})",
    "inverse_convention": "inverse convention violated: P(g)^-1 != P(g^-1), residual {r:.3e}",
    "projectivity": "products leave the frame up to scalars (bound {r:.3e})",
    "cocycle_modulus": "cocycle has non-unimodular values (bound {r:.3e})",
    "cocycle_left_unit": "alpha(e, g) != 1 (residual {r:.3e})",
    "cocycle_right_unit": "alpha(g, e) != 1 (residual {r:.3e})",
    "cocycle_inverse_pairs": "alpha(g, g^-1) != 1 (residual {r:.3e})",
    "cocycle_identity": "2-cocycle identity violated (bound {r:.3e})",
    "spanning": "operators span only {rank} of {d2} matrix dimensions",
}
# What each entry point judges, in the order it raises. The report prints the
# spanning verdict with the Fourier frame bounds instead.
_FRAME_CHECKS = ("unitarity", "identity_at_origin", "inverse_convention", "projectivity",
                 "cocycle_modulus", "cocycle_inverse_pairs", "cocycle_identity", "spanning")
_COCYCLE_CHECKS = ("projectivity", "cocycle_modulus", "cocycle_left_unit",
                   "cocycle_right_unit", "cocycle_inverse_pairs", "cocycle_identity")
_REPORT_CHECKS = _FRAME_CHECKS[:-1]
# The rows that make a frame a unitary projective representation, as spanning needs.
_PROJECTIVE = ("unitarity", "projectivity", "cocycle_modulus")


class _Invariants(NamedTuple):
    """One invariant pass at one tolerance: (residual, limit) rows, the Fourier frame
    bounds, the cocycle (built on its first call), whether :func:`_exact_rows` applied,
    the traces Tr P_g and alpha(g, g^-1) for every g."""

    residuals: dict[str, tuple[float, float]]
    fourier_bounds: tuple[float, float]
    cocycle: Callable[[], CocycleTable]
    exact: bool
    traces: np.ndarray
    inverse_pairs: np.ndarray


def _roots(L: int) -> np.ndarray:
    """exp(-2 pi i k / L) for k < L, from angles within [-pi, pi), with 1, -i, -1 and i
    exact where L allows them."""
    k = np.arange(L)
    roots = np.exp(-2j * np.pi * (k - L * (2 * k >= L)) / L)
    quarter = (4 * k) % L == 0
    roots[quarter] = np.array([1, -1j, -1, 1j])[4 * k[quarter] // L]
    return roots


def _exact_rows(group: FiniteAbelianGroup, stack: np.ndarray, band: float):
    """The invariant rows of a monomial stack, proven from integer exponents, its cocycle
    as a remembered thunk and alpha'(g, g^-1); None where this route does not apply.

    It applies to a column-monomial stack (one entry ``!= 0`` per column: phase[g, c]
    at row rows[g, c]) whose phases lie within s of L-th roots of unity, L = 2 exp(G)
    (:func:`phase_fix` takes square roots), with 3 s + s^2 <= ``band``. Let P'_g be
    the snapped operators. In integer arithmetic, P'_e = I, and for each canonical
    generator t and every g, P'_t P'_g = omega^c P'_tg: the composed rows
    rows[t, rows[g, c]] equal rows[tg, c], and the exponent difference is one c for
    all columns. By induction on the word length of a (P'_a = omega^-c P'_t P'_a' for
    a = t a'), P'_a P'_b = alpha'(a, b) P'_ab for all pairs, alpha' an L-th root, in
    O(k |G| d) for k generators; a stack failing any of this takes the dense route.
    So alpha' is a 2-cocycle exactly (associativity, no rounding) with alpha'(e, g) =
    alpha'(g, e) = 1, and every P'_g is invertible: its rows form a permutation, and
    rows[g^-1, rows[g, c]] = c. The cocycle rows read 0 but for |alpha'(g, g^-1) - 1|.

    The given P_g = P'_g + E_g share that support, entries of E at most s. So
    P_g^dag P_g is diag(|phase[g]|^2), and P_e - I and P_g^dag - P_g^-1 vanish off
    the entries compared below: ``unitarity``, ``identity_at_origin`` and
    ``inverse_convention`` are the dense rows' values, in O(|G| d). Column by column,
    P_a P_b - alpha' P_ab = P'_a E_b + E_a P'_b + E_a E_b - alpha' E_ab, so
    ``projectivity`` is at most 3 s + s^2 against alpha'. The |G|^2 table of alpha'
    costs O(|G|^2) integer operations and is built only when first asked for.
    """
    nonzero = stack != 0
    if not (nonzero.sum(axis=1) == 1).all():
        return None
    n, d = stack.shape[:2]
    rows = nonzero.argmax(axis=1)  # (n, d)
    phase = np.take_along_axis(stack, rows[:, None, :], axis=1)[:, 0, :]
    L = 2 * math.lcm(*group.orders)
    roots = _roots(L)
    exps = np.rint(np.angle(phase) * (-L / (2 * np.pi))).astype(np.int64) % L
    s = max_abs(phase - roots[exps])
    projectivity = 3.0 * s + s * s
    if not (projectivity <= band and (rows[0] == np.arange(d)).all() and (exps[0] == 0).all()):
        return None
    inv = group._inv
    for t in group._weight:  # the canonical generators
        tg = group._products(t)
        shift = (exps[t][rows] + exps - exps[tg]) % L
        if not ((rows[t][rows] == rows[tg]).all() and (shift == shift[:, :1]).all()):
            return None

    @functools.cache
    def cocycle() -> CocycleTable:
        # [a, b]: column 0 of P'_a P'_b against that of P'_ab
        k = exps[:, rows[:, 0]] + exps[:, 0]
        k -= exps[group._products(np.arange(n)), 0]
        (values := np.take(roots, k % L)).setflags(write=False)  # C-order: the table keeps it
        return CocycleTable(group=group, values=values)

    pairs = roots[(exps[np.arange(n), rows[inv, 0]] + exps[inv, 0]) % L]
    residuals = {
        "unitarity": max_abs((phase.conj() * phase).real - 1.0),
        "identity_at_origin": max_abs(phase[0] - 1.0),
        "inverse_convention": max_abs(phase.conj() - phase[inv[:, None], rows]),
        "projectivity": projectivity,
        "cocycle_inverse_pairs": max_abs(pairs - 1.0),
        **dict.fromkeys(("cocycle_modulus", "cocycle_left_unit", "cocycle_right_unit",
                         "cocycle_identity"), 0.0),
    }
    return residuals, cocycle, pairs


def _dense_cocycle(group: FiniteAbelianGroup, stack: np.ndarray, rows) -> tuple[np.ndarray, ...]:
    """Best-fit scalars alpha(a, g) for each a in ``rows`` and every g, and per a the worst
    ||P_a P_g - alpha P_ag||_F, from dense products in blocks of at most 2^18 entries."""
    n, d = stack.shape[:2]
    values, worst = np.empty((len(rows), n), dtype=np.complex128), np.zeros(len(rows))
    for i, a in enumerate(rows):
        ag = group._products(a)
        for block in np.array_split(np.arange(n), 1 + n * d * d // 2**18):
            prod, target = stack[a] @ stack[block], stack[ag[block]]
            # alpha = <target, prod> / <target, target>; targets are unitary, norm^2 = d.
            values[i, block] = alpha = np.einsum("nij,nij->n", target.conj(), prod) / d
            residual = np.linalg.norm(prod - alpha[:, None, None] * target, axis=(1, 2))
            worst[i] = np.maximum(worst[i], residual.max())
    values.setflags(write=False)  # handed over, so a table keeps it
    return values, worst


def _dense_rows(group: FiniteAbelianGroup, stack: np.ndarray):
    """The invariant rows of any stack in floating point, its cocycle as a remembered thunk
    and alpha(g, g^-1), from the k generator rows and O(|G|) more products in blocks. Each
    unit row reads the products it names; ``projectivity`` and ``cocycle_modulus`` are the
    bounds of :func:`_projectivity_bound`."""
    n, d = stack.shape[:2]
    inv, eye = group._inv, np.eye(d)
    values, worst = _dense_cocycle(group, stack, [*group._weight, 0])  # generators, then e
    checked, (right, pairs) = np.zeros(2), np.empty((2, n), dtype=np.complex128)
    for block in np.array_split(np.arange(n), 1 + n * d * d // 2**18):
        ops = stack[block]
        adjoints = ops.conj().transpose(0, 2, 1)
        checked = np.maximum(checked, [max_abs(adjoints @ ops - eye),
                                       max_abs(adjoints - stack[inv[block]])])
        right[block] = np.einsum("nij,nij->n", ops.conj(), ops @ stack[0]) / d
        pairs[block] = np.einsum("ij,nij->n", stack[0].conj(), ops @ stack[inv[block]]) / d
    unitarity, inverse = checked.tolist()
    projectivity, modulus = _projectivity_bound(
        d, sum(group.orders) - len(group.orders), unitarity, np.linalg.norm(stack[0] - eye),
        worst[:-1].max(initial=0.0), np.abs(values[:-1]).min(initial=np.inf))
    residuals = {
        "unitarity": unitarity,
        "identity_at_origin": max_abs(stack[0] - eye),
        "inverse_convention": inverse,
        "projectivity": projectivity,
        "cocycle_modulus": modulus,
        "cocycle_left_unit": max_abs(values[-1] - 1.0),
        "cocycle_right_unit": max_abs(right - 1.0),
        "cocycle_inverse_pairs": max_abs(pairs - 1.0),
        "cocycle_identity": _cocycle_identity_residual(d, projectivity, modulus, unitarity),
    }
    table = functools.cache(lambda: CocycleTable(group, _dense_cocycle(group, stack, range(n))[0]))
    return residuals, table, pairs


def _cocycle_identity_residual(d: int, projectivity: float, modulus: float,
                               unitarity: float) -> float:
    """Proven upper bound on the worst |delta(a, b, c)| over all triples, in O(1).

    delta(a, b, c) = alpha(a,b) alpha(ab,c) - alpha(b,c) alpha(a,bc) is the
    defect of the 2-cocycle identity. With R(a, b) = P_a P_b - alpha(a,b) P_ab,
    expanding both sides of (P_a P_b) P_c = P_a (P_b P_c) gives

        delta(a,b,c) P_abc = alpha(b,c) R(a,bc) + P_a R(b,c) - alpha(a,b) R(ab,c) - R(a,b) P_c.

    ||R||_F <= F = ``projectivity``, as :func:`_projectivity_bound` proves;
    |alpha| <= 1 + m with m = ``modulus``; the largest entry of any P^dag P - I
    is u = ``unitarity``, so ||P||_2^2 <= 1 + ||P^dag P - I||_F <= 1 + d u and
    ||P||_F^2 = Tr P^dag P >= d (1 - u). Frobenius norms of both sides, with
    ||X Y||_F <= ||X||_2 ||Y||_F, give every triple

        |delta| <= 2 F (1 + m + sqrt(1 + d u)) / sqrt(d (1 - u)),

    which is returned (inf when u >= 1; NaN stays NaN).
    """
    if unitarity >= 1.0:
        return float("inf")
    growth = 1.0 + modulus + math.sqrt(1.0 + d * unitarity)
    return 2.0 * projectivity * growth / math.sqrt(d * (1.0 - unitarity))


def _projectivity_bound(d: int, length: int, unitarity: float, origin: float, worst: float,
                        low: float) -> tuple[float, float]:
    """Proven bounds on ||R(a, b)||_F (so on its entries) and ||alpha(a, b)| - 1| over all
    pairs, R and u as in :func:`_cocycle_identity_residual`, from the generator rows:
    G = ``worst`` >= ||R(t, g)||_F and r = ``low`` <= |alpha(t, g)|. Here ||P||_2 <= p =
    sqrt(1 + d u) and d (1 - u) <= ||P||_F^2 <= d (1 + u). For a = t a', let alpha~(e, b) = 1,
    alpha~(a, b) = alpha~(a', b) alpha(t, a'b) / alpha(t, a') and R~ its R; from P_t P_a' P_b,

        alpha(t, a') R~(a, b) = alpha~(a', b) R(t, a'b) + P_t R~(a', b) - R(t, a') P_b.

    ||R~||_F <= F gives |alpha~| <= A = (p sqrt(1 + u) + F / sqrt(d)) / sqrt(1 - u). From
    R~(e, b) = (P_e - I) P_b, F_0 = p ``origin`` (||P_e - I||_F) and F_w = (A G + p F_{w-1}
    + p G) / r bound words of length w <= W = ``length`` = sum (n_i - 1): about 2 W G. As
    d |alpha - alpha~| <= ||P_ab||_F F + d u |alpha~|, ||R||_F <= (2 + u) F_W + A u
    sqrt(d (1 + u)), and (1 + u) p >= |alpha| >= (sqrt((1 - u) (1 - d u)) - ||R||_F /
    sqrt(d)) / sqrt(1 + u). Both are inf without a margin (d u >= 1 or r = 0); NaN stays NaN.
    """
    if d * unitarity >= 1.0 or low == 0.0:
        return math.inf, math.inf
    u, p = unitarity, math.sqrt(1.0 + d * unitarity)
    c, e = p * math.sqrt((1.0 + u) / (1.0 - u)), 1.0 / math.sqrt(d * (1.0 - u))  # A = c + e F
    F = p * origin
    for _ in range(length):  # np.maximum keeps a NaN
        F = np.maximum(F, ((c + e * F) * worst + p * F + p * worst) / low)
    bound = (2.0 + u) * F + (c + e * F) * u * math.sqrt(d * (1.0 + u))
    low_fit = (math.sqrt((1.0 - u) * (1.0 - d * u)) - bound / math.sqrt(d)) / math.sqrt(1.0 + u)
    return float(bound), float(np.maximum((1.0 + u) * p - 1.0, 1.0 - low_fit))


@np.errstate(over="ignore", invalid="ignore")
def _invariant_pass(frame: ProjectiveFrame, tol: Tolerance) -> _Invariants:
    """Every named invariant residual of ``frame``, its Fourier frame bounds and its
    cocycle. Entries too large to square overflow to inf or NaN residuals, which fail.

    The rows come from :func:`_exact_rows` where it applies, else from
    :func:`_dense_rows`. Once the unitarity, projectivity and cocycle modulus rows
    pass, the frame is (within the band) a unitary projective representation, and
    its span is closed under products and adjoints, so by Burnside's theorem it
    spans all d x d matrices iff the representation is irreducible, iff the
    character norm (1/|G|) sum_g |Tr P_g|^2, the dimension of the commutant, is 1.
    That integer is decided with margin 1/2, in O(|G| d). A spanning frame's Fourier
    frame bounds are both 1/d (the V V^dag = (|G|/d) I argument of
    :func:`bochner.mq_spectrum`). Only a frame failing one of those rows or spanning
    takes the O(|G| d^4) SVD, for the rank its message names and its bounds.
    """
    group, stack, d = frame.group, frame.operators, frame.dim
    n = group.size
    band = tol.band(1.0)
    rows, cocycle, pairs = (exact := _exact_rows(group, stack, band)) or _dense_rows(group, stack)
    table = {name: (r, band) for name, r in rows.items()}
    traces = np.trace(stack, axis1=1, axis2=2)
    projective = all(rows[name] <= band for name in _PROJECTIVE)
    if projective and np.vdot(traces, traces).real < 1.5 * n:
        unspanned, bounds = 0, (1.0 / d, 1.0 / d)
    else:
        svals = np.linalg.svd(stack.reshape(n, d * d), compute_uv=False)
        unspanned = d * d - int(np.sum(svals > tol.band(float(svals[0]))))
        # The character table over sqrt|G| is unitary, so the Fourier frame operator is
        # S^H S / |G| for the stack S: its d^2 eigenvalues are svals^2 / |G|, zeros past
        # the |G|-th.
        a, b = np.square([svals[-1] if n >= d * d else 0.0, svals[0]]) / n
        bounds = (float(a), float(b))
    table["spanning"] = (unspanned, 0)  # matrix dimensions left unspanned
    return _Invariants(table, bounds, cocycle, exact is not None, traces, pairs)


def _check(frame: ProjectiveFrame, tol: Tolerance, names) -> _Invariants:
    """The frame's invariant pass at ``tol``, run once and remembered; raises on
    the first of ``names`` that fails."""
    found = frame._verified.get(tol)
    if found is None:
        found = frame._verified[tol] = _invariant_pass(frame, tol)
    d2 = frame.dim * frame.dim
    for name in names:
        r, limit = found.residuals[name]
        if not r <= limit:
            error = NotAFrame if name == "spanning" else NotProjective
            raise error(_MESSAGES[name].format(r=r, limit=limit, rank=d2 - r, d2=d2))
    return found


def validate_frame(frame: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL) -> None:
    """Run the full invariant suite; raises on the first violated invariant."""
    _check(frame, tol, _FRAME_CHECKS)


# --------------------------------------------------------------------------
# constructors


def _verified(group: FiniteAbelianGroup, operators, dim: int, metadata: Mapping[str, Any],
              tol: Tolerance) -> ProjectiveFrame:
    """The frame of a stack handed over (frozen here), once it passes :func:`validate_frame`."""
    operators.setflags(write=False)
    frame = ProjectiveFrame(group=group, operators=operators, dim=dim, metadata=metadata)
    validate_frame(frame, tol)
    return frame


def _clock_shift_frame(d: int, n: int, twist: int, kind: str, tol: Tolerance) -> ProjectiveFrame:
    """P_(j,l) = exp(-2 pi i twist j l / n) X^(j mod d) Z^(l mod d) over Z_n x Z_n."""
    group = make_group([n, n])
    j, l = group._residues.T
    shift, clock = _shift_clock(d, j % d, l % d)
    phases = np.exp(-2j * np.pi * np.arange(n) / n)
    return _verified(group, phases[(twist * j * l) % n, None, None] * (shift @ clock), d,
                     {"kind": kind, "parameters": {"d": int(d)}}, tol)


def weyl_frame(d: int, tol: Tolerance = DEFAULT_TOL) -> ProjectiveFrame:
    """Shift/clock frame over Z_d x Z_d for odd d >= 3.

    P_(j,l) = omega^{s j l} X^j Z^l with s = (d+1)/2, the multiplicative
    inverse of 2 mod d. The phase makes P_(j,l) a d-th root of unity times a
    unitary with P_g^-1 = P_{g^-1}. Even d has no inverse of 2, so no such
    phase: :func:`leonhardt_frame` doubles the phase space instead, and
    :func:`phase_fix` of the plain X^j Z^l gives a frame over Z_d x Z_d.
    """
    d = _integer_at_least(d, 2, InvalidDimension, f"need integer d >= 3, got {d}")
    if d % 2 == 0:
        raise EvenDimension(
            f"even d = {d} has no inverse of 2 mod d for the symmetric phase; use "
            "leonhardt_frame(d), or phase_fix of the operators X^j Z^l"
        )
    return _clock_shift_frame(d, d, (d + 1) // 2, "weyl", tol)


# I, X, Z, Y: the Pauli X^x Z^z up to phase sits at index x + 2 z.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1j], [1j, 0]]],
                   dtype=np.complex128)


def qubit_frame(signs=(1, 1, 1), tol: Tolerance = DEFAULT_TOL) -> ProjectiveFrame:
    """Qubit frame over Z_2 x Z_2 with signed Pauli operators.

    ``signs`` gives the +-1 prefactors of X, Z and Y at group elements (1,0),
    (0,1) and (1,1). All four operators are Hermitian and self-inverse, so the
    inverse convention holds automatically. The parity sign(X)*sign(Z)*sign(Y)
    is recorded in the metadata; it separates the two equivalence classes of
    qubit phase-space representations (flipping an even number of signs can be
    undone by a unitary, flipping an odd number cannot).
    """
    try:
        sx, sz, sy = ({1: 1, -1: -1}[s] for s in signs)
    except (TypeError, ValueError, KeyError):  # not three entries, each +1 or -1
        raise InvalidDimension(f"signs must be three entries of +1 or -1, got {signs!r}") from None
    group = make_group([2, 2])
    pauli = group._residues @ [1, 2]  # element (x, z)
    return _verified(group, np.array([1, sx, sz, sy])[pauli, None, None] * _PAULIS[pauli], 2,
                     {"kind": "qubit", "parameters": {"signs": [sx, sz, sy],
                                                      "parity": sx * sz * sy}}, tol)


def trivial_frame() -> ProjectiveFrame:
    """One-element frame on a one-dimensional space; neutral for tensor products."""
    return _verified(FiniteAbelianGroup(()), np.ones((1, 1, 1), dtype=np.complex128), 1,
                     {"kind": "trivial", "parameters": {}}, DEFAULT_TOL)


def tensor_frame(
    a: ProjectiveFrame, b: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL
) -> ProjectiveFrame:
    """Kronecker product frame over the direct product group.

    The product group concatenates the factor order lists; element (g, h) maps
    to P_g (x) Q_h, and the cocycle is the product of the factor cocycles.
    """
    group = FiniteAbelianGroup(a.group.orders + b.group.orders)
    dim = a.dim * b.dim
    # [g, h, i, k, j, l] = P_g[i, j] Q_h[k, l]: np.kron's products, no sums (which would
    # turn -0.0 into +0.0 and change frame files), taken straight into the frame's array
    ops = np.empty((group.size, dim, dim), dtype=np.complex128)
    np.multiply(a.operators[:, None, :, None, :, None], b.operators[None, :, None, :, None, :],
                out=ops.reshape(a.group.size, b.group.size, a.dim, b.dim, a.dim, b.dim))
    return _verified(group, ops, dim, {"kind": "tensor", "parameters": {
        "factors": [dict(a.metadata), dict(b.metadata)]}}, tol)


def z2cubed_frame(tol: Tolerance = DEFAULT_TOL) -> ProjectiveFrame:
    """Unfaithful qubit frame over Z_2^3; each Pauli appears at two elements.

    (0,0,0) and (1,0,0) map to the identity, (0,0,1) and (1,0,1) to X,
    (0,1,0) and (1,1,0) to Z, (0,1,1) and (1,1,1) to Y, so the kernel is
    {(0,0,0), (1,0,0)} and the frame is a doubly redundant Pauli basis.
    """
    group = make_group([2, 2, 2])
    return _verified(group, _PAULIS[group._residues @ [0, 2, 1]],  # element (k, z, x)
                     2, {"kind": "z2cubed", "parameters": {}}, tol)


def leonhardt_frame(d: int, tol: Tolerance = DEFAULT_TOL) -> ProjectiveFrame:
    """Doubled phase-space frame over Z_2d x Z_2d for any d >= 2.

    P_(j,l) = tau^{j l} X^{j mod d} Z^{l mod d} with tau = exp(-i pi / d), a
    primitive 2d-th root of unity, so phases live mod 2d while matrix powers
    reduce mod d. Doubling the index group is what restores the inverse
    convention in even dimension. The frame is unfaithful: the kernel contains
    the four elements with both residues in {0, d}.
    """
    d = _integer_at_least(d, 2, InvalidDimension, f"need integer d >= 2, got {d}")
    return _clock_shift_frame(d, 2 * d, 1, "leonhardt", tol)


def phase_fix(
    group: FiniteAbelianGroup,
    operators,
    tol: Tolerance = DEFAULT_TOL,
    metadata: Mapping[str, Any] | None = None,
) -> ProjectiveFrame:
    """Rephase a raw projective representation so that P(g)^-1 = P(g^-1).

    The input must be unitary, send the identity element to the identity
    matrix, and be projective (products scalar-equivalent to members).
    For each pair {g, g^-1} with g != g^-1 the lexicographically smaller
    element keeps phase 1 and its partner absorbs the correction; self-inverse
    elements take the principal square root of their correction. The output is
    projectively equivalent to the input (per-element unit scalars only).
    """
    ops = tuple(as_matrix(op) for op in operators)
    raw = ProjectiveFrame(group=group, operators=ops, dim=len(ops[0]) if ops else 0)
    found = _check(raw, tol, ("unitarity", "identity_at_origin", "projectivity"))
    g, inv = np.arange(group.size), group._inv
    correction = found.inverse_pairs[inv].conj()  # conj alpha(g^-1, g)
    mu = np.where(g > inv, correction, np.where((g == inv) & (g > 0), np.sqrt(correction), 1.0))
    return _verified(group, mu[:, None, None] * raw.operators, raw.dim,
                     {"kind": "phase_fixed", "parameters": {}} if metadata is None else metadata,
                     tol)


# --------------------------------------------------------------------------
# derived data


def cocycle_table(frame: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL) -> CocycleTable:
    """alpha(g, g') with P_g P_g' = alpha(g, g') P_{gg'}, verified and remembered per
    tolerance: the snapped roots of unity of a frame on the exact route, else the best
    fit Tr(P_g P_g' P_{gg'}^dag) / d. Built on the first call."""
    return _check(frame, tol, _COCYCLE_CHECKS).cocycle()


def kernel(frame: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """Group elements mapped to a unit scalar times the identity, as a verified subgroup;
    the traces are those of the frame's invariant pass at ``tol``. A frame that is not a
    unitary projective representation has none: that raises NotProjective."""
    stack, band = frame.operators, tol.band(1.0)
    c = _check(frame, tol, _PROJECTIVE).traces / frame.dim
    members = [i for i in np.flatnonzero(np.abs(np.abs(c) - 1.0) <= band).tolist()
               if max_abs(stack[i] - c[i] * np.eye(frame.dim)) <= band]
    if not np.isin(frame.group._products(members)[:, members], members).all():
        raise InternalInconsistency("kernel candidates are not closed under composition")
    return [frame.group.elements[i] for i in members]


def is_faithful(frame: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when only the identity element maps to a scalar matrix."""
    return kernel(frame, tol) == [frame.group.identity()]


def frame_report(frame: ProjectiveFrame, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Diagnostics for every frame invariant, for verification output.

    Returns a dict with a ``checks`` list of (name, ok, detail) triples, the
    kernel, the faithfulness flag, the invariant pass's Fourier frame bounds, and
    an overall ``passed`` flag; a violated invariant is a failed row, not an error.
    Tracelessness and Gram orthogonality are required only of faithful frames.
    """
    found = _check(frame, tol, ())
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, value: float, limit: float) -> None:
        checks.append((name, value <= limit, f"residual {value:.3e} (limit {limit:.3e})"))

    for name in _REPORT_CHECKS:
        record(name, *found.residuals[name])

    try:
        ker, failure = kernel(frame, tol), None
    except (NotProjective, InternalInconsistency) as exc:  # no subgroup to read off
        ker, failure = [], str(exc)
    faithful = ker == [frame.group.identity()]
    checks.append(("kernel_subgroup", failure is None, failure or f"{len(ker)} element(s): {ker}"))
    if faithful:  # traces and inner products of the checked operators, scale d
        limit = tol.band(frame.dim)
        record("tracelessness_off_identity", max_abs(found.traces[1:]), limit)
        flat = frame.operators.reshape(frame.group.size, -1)
        gram = flat.conj() @ flat.T - frame.dim * np.eye(frame.group.size)
        record("gram_orthogonality", max_abs(gram), limit)

    unspanned, limit = found.residuals["spanning"]
    a, b = found.fourier_bounds
    checks.append(("fourier_frame_bounds", unspanned <= limit, f"a = {a:.6g}, b = {b:.6g}"))

    return {
        "checks": checks,
        "kernel": ker,
        "faithful": faithful,
        "fourier_frame_bounds": found.fourier_bounds,
        "passed": all(ok for _, ok, _ in checks),
    }
