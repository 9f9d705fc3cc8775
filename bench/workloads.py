"""The three benchmark workloads and the oracle checks of their outputs.

Each workload is a closed loop with one client: the next CLI call starts when
the previous one returns. A workload writes its inputs in ``setup`` (timed,
and everything the program does there counts towards ``setup_s``), derives
the expected results in ``prepare`` (untimed, oracle only), and yields one
*cycle* of steps at a time. A step is the unit its latency is reported for:
one ``certify`` call, one ``scan`` call, or one full ladder pass of
``frame build --verify`` calls.

Why these three (ROADMAP open items 2-4):

* ``certify-cold`` pays frame load, re-verification and a second cocycle
  extraction on every call, so the frame invariants and JSON reading dominate
  (items 2 and 3 show here; item 4 should not).
* ``scan-batch`` amortizes one frame load over many states, so the per-state
  M_c / M_q / rho eigensolves dominate (item 4 shows here). The unfaithful
  Leonhardt frame and the stabilizer states, whose distributions have exact
  zeros, keep a fast path honest about extra zero eigenvalues and tolerance
  edges.
* ``frame-ladder`` is the write side of serialization and runs the invariant
  suite at construction, at the tensor-factor loads and in the verify report;
  the 4-qubit build carries the |G|^3 memory wall.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

CERTIFY_DIM = 11
SCAN_COUNT = 200  # states per random-family scan call
WEYL_LADDER = (3, 5, 7, 9, 11, 13)
LEONHARDT_LADDER = (2, 3, 4, 5, 6)
QUBIT_POWERS = (2, 3, 4)


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run ``phaseframe.cli.main`` in-process; return its exit code and output.

    ``main`` is looked up on every call so that the span recorder's wrapper is
    used while it is installed.
    """
    import phaseframe.cli as cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SetupError(RuntimeError):
    """The program failed while the benchmark was writing its inputs."""


def _setup_call(argv: list[str]) -> None:
    rc, out = invoke(argv)
    if rc != 0:
        raise SetupError(f"phaseframe {' '.join(argv)} exited {rc}: {out.strip()}")


@dataclass
class Call:
    """One CLI invocation and the oracle check of what it produced."""

    label: str
    argv: list[str]
    output: Path
    # check(rc, captured output) -> (items decided, problems found)
    check: Callable[[int, str], tuple[int, list[str]]]
    family: str = ""


class Workload:
    name = ""
    item = ""  # what one call decides, for the throughput metric

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.setup_problems: list[str] = []
        self.calls: list[Call] = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list[list[Call]]:
        """One pass over the inputs; each inner list is one timed step."""
        return [[call] for call in self.calls]

    def _frame_checked(self, path: Path, want: oracle.Frame) -> oracle.Frame:
        got = oracle.read_frame(path)
        self.setup_problems += [f"{path.name}: {p}" for p in oracle.frame_problems(got, want)]
        return got


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


# --------------------------------------------------------------------------
# certify-cold


class CertifyCold(Workload):
    """``certify --out`` on one stored Weyl d = 11 frame, inputs cycling through
    state specs, state files and distribution CSVs written by ``represent``."""

    name, item = "certify-cold", "certificates"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        d = CERTIFY_DIM
        s = _seeds(self.seed, 7)
        self.frame_path = self.work / f"weyl{d}.json"
        self.specs = [f"random-density:{s[0]}", f"random-pure:{s[1]}", f"random-herm:{s[2]}",
                      f"basis:{s[3] % d}", "mixed"]
        self.state_files = {self.work / "state-density.json": oracle.random_density(d, s[4]),
                            self.work / "state-herm.json": oracle.random_herm(d, s[5])}
        # Distribution CSV -> the state spec ``represent`` turns into it.
        self.dist_files = {self.work / "dist-pure.csv": f"random-pure:{s[6]}",
                           self.work / "dist-basis.csv": f"basis:{s[3] % d}"}

    def setup(self) -> None:
        _setup_call(["frame", "build", "weyl", "--d", str(CERTIFY_DIM),
                     "--out", str(self.frame_path)])
        for path, rho in self.state_files.items():
            path.write_text(oracle.state_json(rho), encoding="utf-8")
        for path, spec in self.dist_files.items():
            _setup_call(["represent", "--frame", str(self.frame_path), "--state", spec,
                         "--out", str(path)])

    def prepare(self) -> None:
        frame = self._frame_checked(self.frame_path, oracle.weyl_frame(CERTIFY_DIM))
        fourier = oracle.fourier_ops(frame)
        d = frame.dim
        inputs = [(f"spec:{spec}", ["--state", spec], oracle.state_from_spec(spec, d), None)
                  for spec in self.specs]
        inputs += [(f"file:{path.name}", ["--state-file", str(path)], rho, None)
                   for path, rho in self.state_files.items()]
        for path, spec in self.dist_files.items():
            rho = oracle.state_from_spec(spec, d)
            values = oracle.distribution_csv(path.read_text(encoding="utf-8"), frame.orders)
            err = float(np.max(np.abs(values - oracle.expect(rho, fourier).mu)))
            if err > oracle.VALUE_TOL:
                self.setup_problems.append(f"{path.name}: represent differs by {err:.3e}")
            inputs.append((f"dist:{path.name}", ["--distribution", str(path)], rho, values))

        self.calls.clear()
        for i, (label, state_args, rho, values) in enumerate(inputs):
            out = self.work / f"cert-{i}.json"
            argv = ["certify", "--frame", str(self.frame_path), *state_args, "--out", str(out)]
            check = self._checker(out, oracle.expect(rho, fourier),
                                  oracle.characteristic(frame, rho), values)
            self.calls.append(Call(label, argv, out, check))

    @staticmethod
    def _checker(out: Path, exp: oracle.Expected, phi: np.ndarray, values):
        def check(rc: int, text: str) -> tuple[int, list[str]]:
            if rc not in (0, 3, 4, 5):
                return 0, [f"exit code {rc}: {text.strip()}"]
            payload = json.loads(out.read_text(encoding="utf-8"))
            problems = oracle.certificate_problems(payload, exp, phi, rc)
            if values is not None and payload.get("input_mu_min") != float(np.min(values)):
                problems.append("input_mu_min differs from the CSV minimum")
            return 1, problems

        return check


# --------------------------------------------------------------------------
# scan-batch


class ScanBatch(Workload):
    """``scan`` over a faithful Weyl d = 13 frame and an unfaithful Leonhardt d = 6 one."""

    name, item = "scan-batch", "states"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.frames = {"weyl13": (self.work / "weyl13.json", oracle.weyl_frame(13)),
                       "leonhardt6": (self.work / "leonhardt6.json", oracle.leonhardt_frame(6))}
        s = iter(_seeds(self.seed, 6))
        self.scans = [("weyl13", "stabilizers", None)]
        for frame in ("weyl13", "leonhardt6"):
            for family in ("random-pure", "random-density", "random-herm"):
                self.scans.append((frame, family, next(s)))

    def setup(self) -> None:
        _setup_call(["frame", "build", "weyl", "--d", "13",
                     "--out", str(self.frames["weyl13"][0])])
        _setup_call(["frame", "build", "leonhardt", "--d", "6",
                     "--out", str(self.frames["leonhardt6"][0])])

    def prepare(self) -> None:
        loaded = {}
        for key, (path, want) in self.frames.items():
            frame = self._frame_checked(path, want)
            loaded[key] = (frame, oracle.fourier_ops(frame))
        self.calls.clear()
        for i, (key, family, seed) in enumerate(self.scans):
            frame, fourier = loaded[key]
            out = self.work / f"scan-{i}.csv"
            argv = ["scan", "--frame", str(self.frames[key][0]), "--family", family,
                    "--out", str(out)]
            if family == "stabilizers":
                d = frame.dim
                labels = [f"basis:{k}" for k in range(d)] + [
                    f"quadratic:{a}:{b}" for a in range(d) for b in range(d)]
            else:
                argv += ["--count", str(SCAN_COUNT), "--seed", str(seed)]
                labels = [f"{family}:{seed}:{k}" for k in range(SCAN_COUNT)]
            states = oracle.scan_family(family, frame.dim, SCAN_COUNT, seed or 0)
            expected = [oracle.expect(rho, fourier) for rho in states]
            self.calls.append(Call(f"{key}:{family}", argv, out,
                                   self._checker(out, labels, expected)))

    @staticmethod
    def _checker(out: Path, labels: list[str], expected: list[oracle.Expected]):
        def check(rc: int, text: str) -> tuple[int, list[str]]:
            if rc != 0:
                return 0, [f"exit code {rc}: {text.strip()}"]
            rows = oracle.scan_rows(out.read_text(encoding="utf-8"))
            if [r["label"] for r in rows] != labels:
                return 0, ["scan rows do not match the requested states"]
            problems = []
            for row, exp in zip(rows, expected):
                if row["error"]:
                    problems.append(f"row {row['label']}: {row['error']}")
                    continue
                problems += [f"row {row['label']}: {p}" for p in oracle.verdict_problems(
                    exp, row["is_quantum_state"], row["is_positively_representable"],
                    row["boundary"], row["state_min_eig"], row["min_mu"])]
            return len(rows), problems

        return check


# --------------------------------------------------------------------------
# frame-ladder


class FrameLadder(Workload):
    """``frame build --verify`` over the north-star ladder; one step is one pass."""

    name, item = "frame-ladder", "frames"

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        qubit = oracle.qubit_frame()
        plan = [(f"weyl{d}", "weyl", ["weyl", "--d", str(d)], oracle.weyl_frame(d))
                for d in WEYL_LADDER]
        plan += [(f"leonhardt{d}", "leonhardt", ["leonhardt", "--d", str(d)],
                  oracle.leonhardt_frame(d)) for d in LEONHARDT_LADDER]
        plan.append(("z2cubed", "z2cubed", ["z2cubed"], oracle.z2cubed_frame()))
        plan.append(("qubit1", "tensor", ["qubit"], qubit))
        power = qubit
        for k in QUBIT_POWERS:
            power = oracle.tensor_frame(power, qubit)
            previous = self.work / f"qubit{k - 1}.json"
            plan.append((f"qubit{k}", "tensor", ["tensor", "--a", str(previous),
                         "--b", str(self.work / "qubit1.json")], power))
        self.calls.clear()
        for label, family, kind_args, want in plan:
            out = self.work / f"{label}.json"
            argv = ["frame", "build", *kind_args, "--out", str(out), "--verify"]
            self.calls.append(Call(label, argv, out, self._checker(out, want), family))

    @staticmethod
    def _checker(out: Path, want: oracle.Frame):
        def check(rc: int, text: str) -> tuple[int, list[str]]:
            if rc != 0:
                return 0, [f"exit code {rc}: {text.strip()}"]
            problems = oracle.frame_problems(oracle.read_frame(out), want)
            if "[FAIL]" in text or "[PASS]" not in text:
                problems.append("verify report does not pass every check")
            return 1, problems

        return check

    def cycle(self) -> list[list[Call]]:
        return [self.calls]


WORKLOADS = {cls.name: cls for cls in (CertifyCold, ScanBatch, FrameLadder)}
