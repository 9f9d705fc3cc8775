"""JSON and CSV formats for frames, states, distributions, and certificates.

All writers are deterministic: identical inputs produce byte-identical files.
Complex numbers are stored as [re, im] pairs, matrices as nested row-major
lists, CSV reals with 17 significant digits (full double round-trip).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .bochner import BochnerCertificate
from .errors import FrameFileError, ShapeMismatch
from .frames import ProjectiveFrame, _verified
from .groups import FiniteAbelianGroup, _as_distribution, _as_group_values, _checked_orders
from .groups import make_group
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "SCHEMA_VERSION",
    "matrix_to_json",
    "matrix_from_json",
    "frame_to_json",
    "frame_from_json",
    "save_frame",
    "load_frame",
    "state_to_json",
    "state_from_json",
    "save_state",
    "load_state",
    "distribution_csv_bytes",
    "save_distribution_csv",
    "load_distribution_csv",
    "phi_csv_bytes",
    "certificate_to_json",
    "save_json",
    "sha256_file",
]

SCHEMA_VERSION = 1


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def element_str(g) -> str:
    """Render a residue tuple as ``(0,1)`` with no spaces."""
    return "(" + ",".join(str(int(r)) for r in g) + ")"


def parse_element(text: str) -> tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise FrameFileError(f"malformed element tuple {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError as exc:
        raise FrameFileError(f"malformed element tuple {text!r}") from exc


def _json_int(value) -> int:
    """An integer field read from a file. What ``int()`` rejects raises as ``int()``
    does; anything else but a JSON integer (a float, a bool, a numeric string) raises
    ValueError rather than being truncated or converted."""
    number = int(value)
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return number


def matrix_to_json(m: np.ndarray) -> list:
    arr = np.asarray(m, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], -1).tolist()


def matrix_from_json(data) -> np.ndarray:
    return _matrix_from_json(data, may_hold_bools=True)


def _matrix_from_json(data, may_hold_bools: bool) -> np.ndarray:
    """The matrix of ``[re, im]`` pairs in ``data``; bool and string entries are malformed.
    ``may_hold_bools=False``, for text without true or false, skips that scan if numeric."""
    try:
        arr = np.asarray(data)  # strings, null and huge integers leave a non-numeric dtype
        if may_hold_bools or arr.dtype.kind not in "fi":
            if not {bool, str}.isdisjoint(map(type, np.asarray(data, dtype=object).ravel())):
                raise ValueError("expected JSON numbers, got a bool or a string")
            arr = np.asarray(data, dtype=float)
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameFileError(f"malformed matrix payload: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FrameFileError(f"matrix payload has shape {arr.shape}, expected (rows, cols, 2)")
    if not np.isfinite(arr).all():
        raise FrameFileError("matrix payload contains non-finite values")
    return arr.view(np.complex128)[..., 0]


def _require_version(data: dict) -> None:
    if type(version := data.get("schema_version")) is not int or version != SCHEMA_VERSION:
        raise FrameFileError(f"unsupported schema_version {version!r}")


def _frame_payload(frame: ProjectiveFrame, matrices) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "group": {"orders": list(frame.group.orders)},
        "dim": frame.dim,
        "elements": [{"g": list(g), "matrix": m} for g, m in zip(frame.group.elements, matrices)],
        "metadata": frame.metadata,
    }


def frame_to_json(frame: ProjectiveFrame) -> dict:
    return _frame_payload(frame, matrix_to_json(frame.operators))


def frame_from_json(data, tol: Tolerance = DEFAULT_TOL) -> ProjectiveFrame:
    """Rebuild a frame from its JSON form and re-verify every invariant.

    Structural problems raise FrameFileError; a structurally sound file whose
    operators violate a frame invariant raises the specific invariant error.
    """
    return _frame_from_json(data, tol, may_hold_bools=True)


def _frame_from_json(data, tol: Tolerance, may_hold_bools: bool) -> ProjectiveFrame:
    if not isinstance(data, dict):
        raise FrameFileError("frame file must contain a JSON object")
    try:
        orders = data["group"]["orders"]
        dim = _json_int(data["dim"])
        entries = data["elements"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FrameFileError(f"frame file missing required field: {exc}") from exc
    _require_version(data)
    try:
        orders = _checked_orders([_json_int(n) for n in orders])
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameFileError(f"malformed group orders {orders!r}: {exc}") from exc
    size = math.prod(orders)
    if not isinstance(entries, list) or len(entries) != size:
        raise FrameFileError(
            f"frame file lists {len(entries) if isinstance(entries, list) else '?'} "
            f"elements, group has {size}"
        )
    group = make_group(orders)
    operators = []
    for pos, entry in enumerate(entries):
        try:
            g = tuple(_json_int(r) for r in entry["g"])
            payload = entry["matrix"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            missing = "missing key " if isinstance(exc, KeyError) else ""
            raise FrameFileError(
                f"malformed element entry at position {pos}: {missing}{exc}") from exc
        if g != group.elements[pos]:
            raise FrameFileError(
                f"element {g} at position {pos} breaks lexicographic order "
                f"(expected {group.elements[pos]})"
            )
        try:
            op = _matrix_from_json(payload, may_hold_bools)
        except FrameFileError as exc:
            raise FrameFileError(f"element {g} at position {pos}: {exc}") from exc
        if op.shape != (dim, dim):
            raise FrameFileError(
                f"operator at {g} has shape {op.shape}, frame dim is {dim}"
            )
        operators.append(op)
    if not isinstance(metadata := data.get("metadata", {}), dict):
        raise FrameFileError("metadata must be a JSON object")
    return _verified(group, np.array(operators), dim, metadata, tol)


def _dumps(path, obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``; what it cannot encode is a FrameFileError."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2)
    except RecursionError as exc:  # e.g. frame metadata read just inside the parser's depth limit
        raise FrameFileError(f"cannot write {path}: nested too deeply to encode") from exc
    except (TypeError, ValueError) as exc:  # a value that is not JSON, or a circular reference
        raise FrameFileError(f"cannot write {path}: {exc}") from exc


def save_json(path, obj) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` + newline. An object the stdlib
    cannot encode (an ndarray, a set, a cycle) raises FrameFileError and writes nothing."""
    Path(path).write_text(_dumps(path, obj) + "\n", encoding="utf-8")


def save_frame(frame: ProjectiveFrame, path) -> None:
    """Stream what :func:`save_json` writes of :func:`frame_to_json`, in blocks of matrices, from
    three stdlib renders (the payload with element 0's entry, that entry, a 2 x 2 zero matrix) and
    each distinct float rendered once, fused with each separator that can follow it."""
    payload = _dumps(path, _frame_payload(frame, [0]))
    entry = json.dumps({"g": [0] * len(frame.group.orders), "matrix": 0}, indent=2)
    # Keys sort as dim, elements, ...: the first copy is element 0's entry, whatever the metadata.
    before, entry, after = payload.partition(entry.replace("\n", "\n" + " " * 4))
    *slots, end = entry.split("0")  # the k residue slots, then the matrix slot
    layout = json.dumps(np.zeros((2, 2, 2)).tolist(), indent=2).replace("\n", "\n" + " " * 6)
    opening, re_im, pair, _, row, _, _, _, closing = layout.split("0.0")
    head = "%d".join(slots) + opening  # %d writes an int residue as the encoder does
    heads = np.array([(closing + end + ",\n" + " " * 4 if pos else before) + head % g
                      for pos, g in enumerate(frame.group.elements)], object)[:, None]
    bits = frame.operators.view(np.uint64).reshape(frame.group.size, -1)  # [re, im]; -0.0 apart
    nonzero = (bits << np.uint64(1)) != 0  # the rest are 0.0 and -0.0, told by the sign bit
    distinct, index = np.unique(bits[nonzero], return_inverse=True)
    floats = np.array(["0.0", "-0.0", *map(float.__repr__, distinct.view(float).tolist())], object)
    table = (floats[:, None] + np.array([re_im, pair, row, ""], object)).ravel()  # 4 x token + class
    codes = bits >> np.uint64(63)  # each float's token, in place of its bits
    codes[nonzero] = index + 2
    follows = np.zeros((frame.dim, frame.dim, 2), np.uint64)  # the class of what follows a float:
    follows[..., 1], follows[:, -1, 1], follows[-1, -1, 1] = 1, 2, 3  # re -> im, pair, row, none
    codes <<= np.uint64(2)  # then the float's index into the table, in place
    codes |= follows.reshape(-1)
    per_block = max(1, 4096 // bits.shape[1])  # whole matrices, about 4096 floats a block
    with _new_files_removed_on_error([path]), open(path, "w", encoding="utf-8") as out:
        for lo in range(0, len(bits), per_block):
            text = np.concatenate((heads[lo:lo + per_block], table[codes[lo:lo + per_block]]), 1)
            out.write("".join(text.ravel().tolist()))
        out.write(closing + end + after + "\n")


@contextlib.contextmanager
def _new_files_removed_on_error(paths):
    """On an OSError (a full disk partway through a write), remove the ``paths`` that were new."""
    created = [path for path in paths if not Path(path).exists()]
    try:
        yield
    except OSError:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise


def _read_text(path, what: str) -> tuple[str, bytes]:
    """Read a UTF-8 file once; return its text and the bytes it was decoded from."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FrameFileError(f"cannot read {what} file: {exc}") from exc
    try:
        return raw.decode("utf-8"), raw
    except UnicodeDecodeError as exc:
        raise FrameFileError(f"{what} file is not valid UTF-8: {exc}") from exc


def _read_json(path, what: str) -> tuple[object, bytes]:
    text, raw = _read_text(path, what)
    try:
        return json.loads(text), raw
    except ValueError as exc:  # a JSONDecodeError, or an integer literal above the digit limit
        raise FrameFileError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FrameFileError(f"{what} file is nested too deeply to parse") from exc


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector, then restore the state it had. Each loader runs under it:
    its parse tree is acyclic, so it dies by reference counting on return, still paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _with_digest(value, raw: bytes, with_sha256: bool):
    return (value, hashlib.sha256(raw).hexdigest()) if with_sha256 else value


@_collector_paused()
def load_frame(path, tol: Tolerance = DEFAULT_TOL, *, with_sha256: bool = False):
    """Read, parse and verify a frame file; with ``with_sha256``, return
    ``(frame, digest)``, the SHA-256 hex digest of the bytes that were verified."""
    data, raw = _read_json(path, "frame")
    # JSON numbers hold no 'u' or 'f': memchr to the first of each skips a frame's matrices.
    bools = b"true" in raw[max(raw.find(b"u") - 2, 0):] or b"false" in raw[raw.find(b"f"):]
    return _with_digest(_frame_from_json(data, tol, bools), raw, with_sha256)


def state_to_json(rho: np.ndarray) -> dict:
    arr = np.asarray(rho, dtype=np.complex128)
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": int(arr.shape[0]),
        "matrix": matrix_to_json(arr),
    }


def state_from_json(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise FrameFileError("state file must contain a JSON object")
    try:
        dim = _json_int(data["dim"])
        payload = data["matrix"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FrameFileError(f"state file missing required field: {exc}") from exc
    _require_version(data)
    arr = matrix_from_json(payload)
    if arr.shape != (dim, dim):
        raise FrameFileError(f"state matrix shape {arr.shape} does not match dim {dim}")
    return arr


def save_state(rho: np.ndarray, path) -> None:
    save_json(path, state_to_json(rho))


@_collector_paused()
def load_state(path, *, with_sha256: bool = False):
    """Read and parse a state file; with ``with_sha256``, return
    ``(rho, digest)``, the SHA-256 hex digest of the bytes that were parsed."""
    data, raw = _read_json(path, "state")
    return _with_digest(state_from_json(data), raw, with_sha256)


def _group_csv_bytes(group: FiniteAbelianGroup, header: list, fields) -> bytes:
    """CSV of a function on the group: ``header``, then per element its tuple and ``fields``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([element_str(g), *row] for g, row in zip(group.elements, fields))
    return buf.getvalue().encode("utf-8")


def distribution_csv_bytes(group: FiniteAbelianGroup, mu) -> bytes:
    """CSV with header ``index_tuple,mu``, rows in lexicographic dual order."""
    values = _as_distribution(group, mu)
    return _group_csv_bytes(group, ["index_tuple", "mu"], ([_g17(x)] for x in values))


def save_distribution_csv(path, group: FiniteAbelianGroup, mu) -> None:
    Path(path).write_bytes(distribution_csv_bytes(group, mu))


@_collector_paused()
def load_distribution_csv(path, group: FiniteAbelianGroup, *, with_sha256: bool = False):
    """Read a distribution CSV back, enforcing the exact dual index order; with
    ``with_sha256``, return ``(values, digest)`` of the bytes that were parsed."""
    text, raw = _read_text(path, "distribution")
    try:
        rows = list(csv.reader(text.splitlines()))
    except csv.Error as exc:  # e.g. a field above the csv module's size limit
        raise FrameFileError(f"distribution file is not valid CSV: {exc}") from exc
    if not rows or rows[0] != ["index_tuple", "mu"]:
        raise FrameFileError("distribution CSV must start with header 'index_tuple,mu'")
    body = rows[1:]
    if len(body) != group.size:
        raise ShapeMismatch(
            f"distribution CSV has {len(body)} rows, group has {group.size} elements"
        )
    values = np.empty(group.size, dtype=float)
    for pos, row in enumerate(body):
        if len(row) != 2:
            raise FrameFileError(f"malformed CSV row {pos + 2}: {row!r}")
        if parse_element(row[0]) != group.elements[pos]:
            raise ShapeMismatch(
                f"CSV row {pos + 2} is indexed {row[0]}, expected "
                f"{element_str(group.elements[pos])}"
            )
        try:
            values[pos] = float(row[1])
        except ValueError as exc:
            raise FrameFileError(f"malformed value in CSV row {pos + 2}: {row[1]!r}") from exc
        if not np.isfinite(values[pos]):
            raise FrameFileError(f"non-finite value in CSV row {pos + 2}: {row[1]!r}")
    return _with_digest(values, raw, with_sha256)


def phi_csv_bytes(group: FiniteAbelianGroup, phi) -> bytes:
    """CSV of a characteristic function: ``element_tuple,re,im`` per group element."""
    values = _as_group_values(group, phi)
    return _group_csv_bytes(group, ["element_tuple", "re", "im"],
                            ([_g17(z.real), _g17(z.imag)] for z in values))


def certificate_to_json(
    cert: BochnerCertificate,
    frame_ref: dict,
    state_ref: dict,
) -> dict:
    """Certificate payload; verdicts are recomputable from the stored phi."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "frame": frame_ref,
        "state": state_ref,
        "group": {"orders": list(cert.orders)},
        "phi": [[float(z.real), float(z.imag)] for z in cert.phi],
        "mu": [float(x) for x in cert.mu],
        "mc_min_eig": cert.mc_min_eig,
        "mq_min_eig": cert.mq_min_eig,
        "verdicts": {
            "is_quantum_state": cert.is_quantum_state,
            "is_positively_representable": cert.is_positively_representable,
        },
        "boundary": cert.boundary,
        "tol": {"atol": cert.tol.atol, "rtol": cert.tol.rtol},
        "oracle": {"state_min_eig": cert.state_min_eig, "min_mu": cert.min_mu},
        "oracle_agreement": {
            "is_quantum_state": cert.oracle_agreement_state,
            "is_positively_representable": cert.oracle_agreement_positivity,
        },
    }
    if cert.input_mu_min is not None:
        payload["input_mu_min"] = cert.input_mu_min
    return payload


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
