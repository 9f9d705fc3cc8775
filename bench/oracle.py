"""Independent oracle for the benchmark: plain numpy, no phaseframe import.

Everything here is rebuilt from the documented conventions (README
"Conventions", "Determinism and random states", "Tolerances") so that a
verdict the program gets wrong cannot be reproduced by the check itself:

* states are regenerated from their specs with numpy's PCG64 in the
  documented draw order;
* frames are read from their JSON files, or rebuilt from their closed forms;
* mu_j = Tr(rho F_j) with F_j = |G|^-1 sum_g chi_j(g) P_g, and the state's
  own spectrum from ``eigvalsh``, decide the expected verdicts.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The program's documented default band: atol + rtol * scale, both 1e-9.
ATOL = 1e-9
RTOL = 1e-9
# A value is "clear" of the band when it sits a factor CLEAR away from the
# acceptance threshold; between the two it may legitimately go either way.
CLEAR = 10.0
# Agreement required between the program's reported numbers and the oracle's.
VALUE_TOL = 1e-8

EXIT_OK, EXIT_NOT_A_STATE, EXIT_NEGATIVE, EXIT_BOUNDARY = 0, 3, 4, 5


# --------------------------------------------------------------------------
# groups and frames


def elements(orders) -> list[tuple[int, ...]]:
    """Lexicographic enumeration of Z_n1 x ... x Z_nk."""
    return list(itertools.product(*(range(n) for n in orders)))


def characters(orders) -> np.ndarray:
    """chi[j, g] = prod_i exp(-2 pi i j_i g_i / n_i)."""
    els = np.array(elements(orders), dtype=float).reshape(-1, len(orders))
    phase = (els / np.asarray(orders, dtype=float)) @ els.T
    return np.exp(-2j * np.pi * phase)


@dataclass(frozen=True)
class Frame:
    orders: tuple[int, ...]
    dim: int
    ops: np.ndarray  # (|G|, d, d), lexicographic element order
    kind: str

    @property
    def size(self) -> int:
        return len(self.ops)


def read_frame(path) -> Frame:
    """Parse a frame JSON file with the standard library only."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    orders = tuple(int(n) for n in data["group"]["orders"])
    if [tuple(e["g"]) for e in data["elements"]] != elements(orders):
        raise ValueError(f"{path}: elements are not in lexicographic order")
    raw = np.asarray([e["matrix"] for e in data["elements"]], dtype=float)
    return Frame(orders, int(data["dim"]), raw[..., 0] + 1j * raw[..., 1],
                 str(data.get("metadata", {}).get("kind")))


def _shift(d: int, j: int) -> np.ndarray:
    return np.roll(np.eye(d), j, axis=0).astype(complex)


def _clock(d: int, l: int) -> np.ndarray:
    return np.diag(np.exp(-2j * np.pi * ((np.arange(d) * l) % d) / d))


def weyl_frame(d: int) -> Frame:
    """P_(j,l) = omega^{s j l} X^j Z^l, s = (d+1)/2."""
    s = (d + 1) // 2
    ops = [np.exp(-2j * np.pi * ((s * j * l) % d) / d) * _shift(d, j) @ _clock(d, l)
           for j, l in elements((d, d))]
    return Frame((d, d), d, np.array(ops), "weyl")


def leonhardt_frame(d: int) -> Frame:
    """P_(j,l) = tau^{j l} X^{j mod d} Z^{l mod d}, tau = exp(-i pi / d), over Z_2d^2."""
    n = 2 * d
    ops = [np.exp(-1j * np.pi * ((j * l) % n) / d) * _shift(d, j % d) @ _clock(d, l % d)
           for j, l in elements((n, n))]
    return Frame((n, n), d, np.array(ops), "leonhardt")


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def qubit_frame() -> Frame:
    """Unsigned Pauli frame: (1,0) -> X, (0,1) -> Z, (1,1) -> Y."""
    by = {(0, 0): _I, (1, 0): _X, (0, 1): _Z, (1, 1): _Y}
    return Frame((2, 2), 2, np.array([by[g] for g in elements((2, 2))]), "qubit")


def z2cubed_frame() -> Frame:
    """Z_2^3 frame with kernel {(0,0,0), (1,0,0)}: the last two residues pick the Pauli."""
    by = {(0, 0): _I, (0, 1): _X, (1, 0): _Z, (1, 1): _Y}
    ops = [by[(g[1], g[2])] for g in elements((2, 2, 2))]
    return Frame((2, 2, 2), 2, np.array(ops), "z2cubed")


def tensor_frame(a: Frame, b: Frame) -> Frame:
    ops = np.einsum("aij,bkl->abikjl", a.ops, b.ops).reshape(
        a.size * b.size, a.dim * b.dim, a.dim * b.dim)
    return Frame(a.orders + b.orders, a.dim * b.dim, ops, "tensor")


def frame_problems(got: Frame, want: Frame) -> list[str]:
    """Differences between a frame read from disk and its closed form."""
    if (got.orders, got.dim, got.kind) != (want.orders, want.dim, want.kind):
        return [f"frame header {(got.orders, got.dim, got.kind)} != "
                f"{(want.orders, want.dim, want.kind)}"]
    problems = []
    residual = float(np.max(np.abs(got.ops - want.ops)))
    if residual > VALUE_TOL:
        problems.append(f"operators differ from the closed form by {residual:.3e}")
    eye = np.eye(got.dim)
    unitarity = float(np.max(np.abs(
        np.einsum("gji,gjk->gik", got.ops.conj(), got.ops) - eye)))
    if unitarity > VALUE_TOL:
        problems.append(f"operators not unitary (residual {unitarity:.3e})")
    return problems


def fourier_ops(frame: Frame) -> np.ndarray:
    """F_j = |G|^-1 sum_g chi_j(g) P_g, stacked as (|G|, d, d)."""
    return np.tensordot(characters(frame.orders), frame.ops, axes=(1, 0)) / frame.size


# --------------------------------------------------------------------------
# states, from the documented constructions


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    # Draw order: all real parts, then all imaginary parts.
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def random_pure(d: int, seed: int) -> np.ndarray:
    v = _gaussian(np.random.default_rng(seed), d)
    return _projector(v / np.linalg.norm(v))


def random_density(d: int, seed: int) -> np.ndarray:
    g = _gaussian(np.random.default_rng(seed), (d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_herm(d: int, seed: int) -> np.ndarray:
    h = _gaussian(np.random.default_rng(seed), (d, d))
    a = 0.5 * (h + h.conj().T)
    return a / np.trace(a).real


def random_pure_family(d: int, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = _gaussian(rng, d)
        out.append(_projector(v / np.linalg.norm(v)))
    return out


def basis(d: int, k: int) -> np.ndarray:
    return _projector(np.eye(d, dtype=complex)[:, k])


def quadratic(d: int, a: int, b: int) -> np.ndarray:
    k = np.arange(d)
    return _projector(np.exp(-2j * np.pi * ((a * k * k + b * k) % d) / d) / np.sqrt(d))


def state_from_spec(spec: str, d: int) -> np.ndarray:
    """The operator a CLI ``--state`` spec or a scan row label names."""
    kind, *args = spec.split(":")
    nums = [int(a) for a in args]
    if kind == "mixed":
        return np.eye(d, dtype=complex) / d
    if kind == "basis":
        return basis(d, *nums)
    if kind == "quadratic":
        return quadratic(d, *nums)
    build = {"random-pure": random_pure, "random-density": random_density,
             "random-herm": random_herm}[kind]
    return build(d, *nums)


def scan_family(family: str, d: int, count: int, seed: int) -> list[np.ndarray]:
    """The states ``scan --family F --count N --seed S`` certifies, in row order."""
    if family == "stabilizers":
        return [basis(d, k) for k in range(d)] + [
            quadratic(d, a, b) for a in range(d) for b in range(d)]
    if family == "random-pure":
        return random_pure_family(d, count, seed)
    build = {"random-density": random_density, "random-herm": random_herm}[family]
    return [build(d, seed + i) for i in range(count)]


def state_json(rho: np.ndarray) -> str:
    """State file in the documented format, written without the program."""
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return json.dumps({"schema_version": 1, "dim": len(rho), "matrix": matrix})


# --------------------------------------------------------------------------
# verdicts


def _zone(value: float, scale: float) -> bool | None:
    """True/False when ``value >= -band`` is decided clear of the band, else None."""
    band = ATOL + RTOL * abs(scale)
    if value >= -band / CLEAR:
        return True
    if value < -band * CLEAR:
        return False
    return None


def _and(a: bool | None, b: bool | None) -> bool | None:
    if a is False or b is False:
        return False
    return True if a and b else None


@dataclass(frozen=True)
class Expected:
    state_min_eig: float
    min_mu: float
    mu: np.ndarray
    is_quantum_state: bool | None
    is_positively_representable: bool | None

    @property
    def clear(self) -> bool:
        return None not in (self.is_quantum_state, self.is_positively_representable)


def expect(rho: np.ndarray, fourier: np.ndarray) -> Expected:
    eigs = np.linalg.eigvalsh(rho)
    mu = np.einsum("jab,ba->j", fourier, rho).real
    quantum = _zone(float(eigs[0]), float(np.max(np.abs(eigs))))
    positive = _and(quantum, _zone(float(np.min(mu)), max(1.0, float(np.max(np.abs(mu))))))
    return Expected(float(eigs[0]), float(np.min(mu)), mu, quantum, positive)


def verdict_problems(exp: Expected, quantum: bool, positive: bool, boundary: bool,
                     state_min_eig: float, min_mu: float) -> list[str]:
    """Disagreements between one reported verdict and the oracle."""
    problems = []
    if exp.is_quantum_state is not None and quantum != exp.is_quantum_state:
        problems.append(f"is_quantum_state={quantum}, oracle {exp.is_quantum_state}")
    if exp.is_positively_representable is not None and positive != exp.is_positively_representable:
        problems.append(f"is_positively_representable={positive}, "
                        f"oracle {exp.is_positively_representable}")
    if boundary and exp.clear:
        problems.append("boundary set while the oracle is clear of the tolerance band")
    if abs(state_min_eig - exp.state_min_eig) > VALUE_TOL:
        problems.append(f"state_min_eig {state_min_eig!r} != oracle {exp.state_min_eig!r}")
    if abs(min_mu - exp.min_mu) > VALUE_TOL:
        problems.append(f"min_mu {min_mu!r} != oracle {exp.min_mu!r}")
    return problems


def expected_exit(quantum: bool, positive: bool, boundary: bool) -> int:
    if boundary:
        return EXIT_BOUNDARY
    if not quantum:
        return EXIT_NOT_A_STATE
    return EXIT_OK if positive else EXIT_NEGATIVE


def certificate_problems(payload: dict, exp: Expected, phi: np.ndarray, rc: int) -> list[str]:
    """Check a certificate JSON payload and the CLI exit code against the oracle."""
    verdicts = payload["verdicts"]
    quantum = verdicts["is_quantum_state"]
    positive = verdicts["is_positively_representable"]
    boundary = payload["boundary"]
    problems = verdict_problems(exp, quantum, positive, boundary,
                                payload["oracle"]["state_min_eig"], payload["oracle"]["min_mu"])
    if rc != expected_exit(quantum, positive, boundary):
        problems.append(f"exit code {rc} does not match the certificate verdicts")
    mu_err = float(np.max(np.abs(np.asarray(payload["mu"]) - exp.mu)))
    if mu_err > VALUE_TOL:
        problems.append(f"mu differs from the oracle by {mu_err:.3e}")
    got_phi = np.asarray(payload["phi"], dtype=float)
    phi_err = float(np.max(np.abs(got_phi[:, 0] + 1j * got_phi[:, 1] - phi)))
    if phi_err > VALUE_TOL:
        problems.append(f"phi differs from the oracle by {phi_err:.3e}")
    return problems


def characteristic(frame: Frame, rho: np.ndarray) -> np.ndarray:
    """phi(g) = Tr(rho P_g)."""
    return np.einsum("gab,ba->g", frame.ops, rho)


def scan_rows(text: str) -> list[dict]:
    """Parse the scan CSV into dicts; verdict columns become bools, numbers floats."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",", len(header) - 1)))
        if not row.get("error"):
            for key in ("min_mu", "state_min_eig"):
                row[key] = float(row[key])
            for key in ("is_quantum_state", "is_positively_representable", "boundary"):
                row[key] = {"true": True, "false": False}[row[key]]
        rows.append(row)
    return rows


def distribution_csv(text: str, orders) -> np.ndarray:
    """Values of a distribution CSV, after checking its header and row order."""
    rows = list(csv.reader(text.splitlines()))
    if rows[0] != ["index_tuple", "mu"]:
        raise ValueError("distribution CSV header")
    labels = ["(" + ",".join(map(str, g)) + ")" for g in elements(orders)]
    if [r[0] for r in rows[1:]] != labels:
        raise ValueError("distribution CSV rows are not in lexicographic order")
    return np.array([float(r[1]) for r in rows[1:]])
