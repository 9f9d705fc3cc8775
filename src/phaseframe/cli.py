"""Command-line interface.

Subcommands build frames, print character tables, map states to distributions,
certify positivity, and run batch scans. Every output file is deterministic
and machine-readable. Exit codes are a contract:

0  success; for ``certify``: valid state with nonnegative distribution
1  invalid parameters, parse errors, dimension mismatches
2  frame file fails verification
3  certified: not a quantum state
4  certified: valid state, negatively represented
5  certified: boundary/indeterminate at the working tolerance

Subcommands raise ``PhaseFrameError`` for every error and return a code only
for a verdict; :func:`main` alone turns one, or an unwritable output's ``OSError``,
into ``error: ...`` on stderr and exit 1, or 2 for a frame file that fails verification.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import states as state_lib
from .bochner import certify_distribution, certify_state, scan
from .errors import FrameFileError, NonFinite, PhaseFrameError
from .frames import (
    frame_report,
    leonhardt_frame,
    qubit_frame,
    tensor_frame,
    weyl_frame,
    z2cubed_frame,
)
from .groups import character_table, make_group
from .linalg import DEFAULT_TOL, max_abs
from .representation import build_representation, characteristic, represent
from .serialize import (
    _new_files_removed_on_error,
    certificate_to_json,
    distribution_csv_bytes,
    element_str,
    load_distribution_csv,
    load_frame,
    load_state,
    phi_csv_bytes,
    save_frame,
    save_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FRAME_INVALID = 2
EXIT_NOT_A_STATE = 3
EXIT_NEGATIVE = 4
EXIT_BOUNDARY = 5


class _FrameInvalid(PhaseFrameError):
    """A frame file that parses but fails verification (exit 2)."""


def _load_verified_frame(path: str):
    """Load and re-verify a frame file; returns (frame, sha256).

    Unreadable or malformed files raise FrameFileError (exit 1); structurally
    sound files whose operators violate a frame invariant raise _FrameInvalid.
    """
    try:
        return load_frame(path, DEFAULT_TOL, with_sha256=True)
    except FrameFileError:
        raise
    except PhaseFrameError as exc:
        raise _FrameInvalid(f"frame verification failed: {exc}") from exc


# --------------------------------------------------------------------------
# state specs


def parse_state_spec(spec: str, d: int) -> np.ndarray:
    """Build a state from a compact spec string.

    Forms: ``mixed``, ``basis:K``, ``conjugate:M``, ``quadratic:A:B``,
    ``random-pure:SEED``, ``random-density:SEED``, ``random-herm:SEED``.
    """
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "mixed" and not args:
            return state_lib.maximally_mixed(d)
        if kind == "basis" and len(args) == 1:
            return state_lib.basis_state(d, int(args[0]))
        if kind == "conjugate" and len(args) == 1:
            return state_lib.conjugate_basis_state(d, int(args[0]))
        if kind == "quadratic" and len(args) == 2:
            v = state_lib.quadratic_phase_vector(d, int(args[0]), int(args[1]))
            return np.outer(v, v.conj())
        if kind == "random-pure" and len(args) == 1:
            return state_lib.random_pure(d, int(args[0]))
        if kind == "random-density" and len(args) == 1:
            return state_lib.random_density(d, int(args[0]))
        if kind == "random-herm" and len(args) == 1:
            return state_lib.random_hermitian_trace1(d, int(args[0]))
    except ValueError as exc:
        raise PhaseFrameError(f"malformed state spec {spec!r}: {exc}") from exc
    raise PhaseFrameError(f"unknown state spec {spec!r}")


def _state_from_args(args, d: int) -> tuple[np.ndarray, dict]:
    if getattr(args, "state", None):
        return parse_state_spec(args.state, d), {"kind": "spec", "value": args.state}
    path = args.state_file
    rho, digest = load_state(path, with_sha256=True)
    return rho, {"kind": "file", "value": str(path), "sha256": digest}


# --------------------------------------------------------------------------
# subcommands


def cmd_group(args) -> int:
    if (p := args.precision) < 0:
        raise PhaseFrameError(f"--precision must be >= 0, got {p}")
    if p > 17:  # the digits that write any double in full, as the library's .17g does
        raise PhaseFrameError(f"--precision must be <= 17, got {p}")
    group = make_group(args.orders)
    table = character_table(group)
    n = group.size
    print(f"|G| = {n}")
    print("orders = " + " x ".join(str(o) for o in group.orders))
    print("elements (lexicographic): " + " ".join(element_str(g) for g in group.elements))
    print("character table (row = dual index, column = element):")
    for j, g in enumerate(group.elements):
        row = " ".join(f"{z.real:+.{p}f}{z.imag:+.{p}f}j" for z in table[j])
        print(f"  {element_str(g)}  {row}")
    if args.check_hadamard:
        modulus_residual = max_abs(np.abs(table) - 1.0)
        unitarity_residual = max_abs(table @ table.conj().T / n - np.eye(n))
        print(f"unit modulus residual: {modulus_residual:.3e}")
        print(f"unitarity residual (table / sqrt|G|): {unitarity_residual:.3e}")
        if max(modulus_residual, unitarity_residual) > DEFAULT_TOL.band(1.0):
            print("hadamard check: FAIL")
            return EXIT_FRAME_INVALID
        print("hadamard check: PASS")
    return EXIT_OK


def _parse_signs(text: str) -> tuple[int, int, int]:
    mapping = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or any(p not in mapping for p in parts):
        raise PhaseFrameError(
            f"--signs expects three comma-separated +/- entries, got {text!r}"
        )
    return tuple(mapping[p] for p in parts)  # type: ignore[return-value]


def cmd_frame_build(args) -> int:
    if args.kind in ("weyl", "leonhardt"):
        if args.d is None:
            raise PhaseFrameError(f"frame build {args.kind} requires --d")
        frame = (weyl_frame if args.kind == "weyl" else leonhardt_frame)(args.d)
    elif args.kind == "qubit":
        frame = qubit_frame(_parse_signs(args.signs) if args.signs else (1, 1, 1))
    elif args.kind == "tensor":
        if not (args.a and args.b):
            raise PhaseFrameError("frame build tensor requires --a and --b frame files")
        frame = tensor_frame(_load_verified_frame(args.a)[0], _load_verified_frame(args.b)[0])
    else:  # z2cubed; argparse restricts the choices
        frame = z2cubed_frame()

    save_frame(frame, args.out)
    print(f"wrote {args.out}: kind={frame.metadata.get('kind')} dim={frame.dim} "
          f"|G|={frame.group.size}")
    if args.verify:
        report = frame_report(frame, DEFAULT_TOL)
        for name, ok, detail in report["checks"]:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        print(f"  kernel: {[element_str(g) for g in report['kernel']]} "
              f"(faithful: {report['faithful']})")
        if not report["passed"]:
            return EXIT_FRAME_INVALID
    return EXIT_OK


def cmd_represent(args) -> int:
    if args.phi and Path(args.out).resolve() == Path(args.phi).resolve():
        raise PhaseFrameError(f"--out {args.out} and --phi {args.phi} name the same file")
    frame, _ = _load_verified_frame(args.frame)
    rho, _ = _state_from_args(args, frame.dim)
    rep = build_representation(frame, DEFAULT_TOL)
    mu = represent(rep, rho, DEFAULT_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(mu)
    if not np.isfinite(total):
        raise NonFinite("quasi-probability total overflows: the operator's entries are too large")
    # Every value is computed and checked before the first file is written.
    outputs = {args.out: distribution_csv_bytes(frame.group, mu)}
    if args.phi:
        outputs[args.phi] = phi_csv_bytes(frame.group, characteristic(rep, rho, DEFAULT_TOL))
    with _new_files_removed_on_error(outputs):  # so that an exit 1 leaves no new file
        for path, data in outputs.items():
            Path(path).write_bytes(data)
    print(f"wrote {args.out}: {frame.group.size} rows, total = {total:.12g}")
    if args.phi:
        print(f"wrote {args.phi}")
    return EXIT_OK


def _certificate_exit(cert) -> int:
    if cert.boundary:
        return EXIT_BOUNDARY
    if not cert.is_quantum_state:
        return EXIT_NOT_A_STATE
    if not cert.is_positively_representable:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_certify(args) -> int:
    frame, frame_hash = _load_verified_frame(args.frame)
    rep = build_representation(frame, DEFAULT_TOL)
    if args.distribution:
        mu, digest = load_distribution_csv(args.distribution, frame.group, with_sha256=True)
        cert = certify_distribution(rep, mu, DEFAULT_TOL)
        state_ref = {"kind": "distribution", "value": str(args.distribution), "sha256": digest}
    else:
        rho, state_ref = _state_from_args(args, frame.dim)
        cert = certify_state(rep, rho, DEFAULT_TOL)

    if args.out:
        frame_ref = {"path": str(args.frame), "sha256": frame_hash}
        save_json(args.out, certificate_to_json(cert, frame_ref, state_ref))
        print(f"wrote {args.out}")
    print(f"is_quantum_state: {str(cert.is_quantum_state).lower()}")
    print(f"is_positively_representable: {str(cert.is_positively_representable).lower()}")
    print(f"mc_min_eig = {cert.mc_min_eig:.6e}  mq_min_eig = {cert.mq_min_eig:.6e}")
    print(f"oracle: state_min_eig = {cert.state_min_eig:.6e}  min_mu = {cert.min_mu:.6e}")
    if cert.boundary:
        print("verdict: BOUNDARY (certificate and oracle disagree at this tolerance)")
    return _certificate_exit(cert)


def _scan_states(args, d: int):
    family = args.family
    if family == "stabilizers":
        matrices = state_lib.stabilizer_states(d)
        labels = [f"basis:{k}" for k in range(d)] + [
            f"quadratic:{a}:{b}" for a in range(d) for b in range(d)
        ]
        return matrices, labels
    if args.count is None:
        raise PhaseFrameError(f"family {family!r} requires --count")
    count, seed = args.count, args.seed
    for flag, value in (("count", count), ("seed", seed)):  # numpy takes no negative seed
        if value < 0:
            raise PhaseFrameError(f"--{flag} must be >= 0, got {value}")
    if family == "random-pure":
        matrices = state_lib.random_pure_family(d, count, seed)
    elif family == "random-density":
        matrices = [state_lib.random_density(d, seed + i) for i in range(count)]
    else:  # random-herm; argparse restricts the choices
        matrices = [state_lib.random_hermitian_trace1(d, seed + i) for i in range(count)]
    labels = [f"{family}:{seed}:{i}" for i in range(count)]
    return matrices, labels


def cmd_scan(args) -> int:
    frame, _ = _load_verified_frame(args.frame)
    matrices, labels = _scan_states(args, frame.dim)
    rep = build_representation(frame, DEFAULT_TOL)
    result = scan(rep, matrices, DEFAULT_TOL, labels=labels)

    lines = ["index,label,min_mu,state_min_eig,is_quantum_state,is_positively_representable,boundary,error"]
    for row in result.rows:
        if row.certificate is None:
            error = (row.error or "").replace(",", ";").replace("\n", " ")
            lines.append(f"{row.index},{row.label},,,,,,{error}")
        else:
            c = row.certificate
            lines.append(
                f"{row.index},{row.label},{c.min_mu:.17g},{c.state_min_eig:.17g},"
                f"{str(c.is_quantum_state).lower()},"
                f"{str(c.is_positively_representable).lower()},"
                f"{str(c.boundary).lower()},"
            )
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"{result.n_valid} valid / {result.n_positive} positive of {result.n_states} states"
        + (f" ({result.n_failed} failed rows)" if result.n_failed else "")
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseframe",
        description="Discrete phase-space representations from projective frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="print group info and character table")
    p_group.add_argument("orders", type=int, nargs="+")
    p_group.add_argument("--precision", type=int, default=4)
    p_group.add_argument("--check-hadamard", action="store_true")
    p_group.set_defaults(func=cmd_group)

    p_frame = sub.add_parser("frame", help="frame operations")
    frame_sub = p_frame.add_subparsers(dest="frame_command", required=True)
    p_build = frame_sub.add_parser("build", help="build a frame and write it to JSON")
    p_build.add_argument("kind", choices=["weyl", "qubit", "tensor", "leonhardt", "z2cubed"])
    p_build.add_argument("--d", type=int, default=None)
    p_build.add_argument("--signs", type=str, default=None,
                         help="three comma-separated signs, e.g. +,+,- "
                              "(use --signs=-,-,+ when the first sign is negative)")
    p_build.add_argument("--a", type=str, default=None, help="first tensor factor file")
    p_build.add_argument("--b", type=str, default=None, help="second tensor factor file")
    p_build.add_argument("--out", type=str, required=True)
    p_build.add_argument("--verify", action="store_true")
    p_build.set_defaults(func=cmd_frame_build)

    p_repr = sub.add_parser("represent", help="map a state to its distribution CSV")
    p_repr.add_argument("--frame", type=str, required=True)
    state_group = p_repr.add_mutually_exclusive_group(required=True)
    state_group.add_argument("--state", type=str)
    state_group.add_argument("--state-file", type=str)
    p_repr.add_argument("--out", type=str, required=True)
    p_repr.add_argument("--phi", type=str, default=None,
                        help="also write the characteristic function CSV here")
    p_repr.set_defaults(func=cmd_represent)

    p_cert = sub.add_parser("certify", help="certify a state or distribution")
    p_cert.add_argument("--frame", type=str, required=True)
    input_group = p_cert.add_mutually_exclusive_group(required=True)
    input_group.add_argument("--state", type=str)
    input_group.add_argument("--state-file", type=str)
    input_group.add_argument("--distribution", type=str)
    p_cert.add_argument("--out", type=str, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_scan = sub.add_parser("scan", help="certify a family of states")
    p_scan.add_argument("--frame", type=str, required=True)
    p_scan.add_argument("--family", type=str, required=True,
                        choices=["stabilizers", "random-pure", "random-density", "random-herm"])
    p_scan.add_argument("--count", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out", type=str, required=True)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # not held while the command runs: it dies young
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; fold into the usage code.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (PhaseFrameError, OSError) as exc:  # OSError: an output file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FRAME_INVALID if isinstance(exc, _FrameInvalid) else EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
