"""phaseframe benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload certify-cold --seed 1 --seconds 30 --trace 0

Workloads: ``certify-cold``, ``scan-batch``, ``frame-ladder`` (see
``workloads.py`` for what each exercises and why); ``--workload all`` runs the
three in turn, each in its own process. The program is driven
in-process through ``phaseframe.cli.main(argv)`` so interpreter start-up is
not timed; BLAS runs on one thread.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs one cycle
untraced, then traces the rest of the run with the span recorder and reports
per-layer metrics, per operation (per state on ``scan-batch``).

Every output is checked against the independent oracle in ``oracle.py``. The
last line of standard output is the result object; a human-readable report
with units and sample counts comes before it, and a full record (environment,
all metrics, problems, output digests) is written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Reference-kernel time spent after each call, as a share of the call's time.
REFERENCE_SHARE = 0.05
WORKLOAD_NAMES = ("certify-cold", "scan-batch", "frame-ladder")
HOT_FUNCTIONS = {
    "frames": ("validate_frame", "cocycle_table", "frame_report", "weyl_frame",
               "leonhardt_frame", "tensor_frame"),
    "serialize": ("load_frame", "matrix_from_json", "save_frame", "save_json"),
    "representation": ("build_representation", "characteristic", "represent", "reconstruct"),
    "bochner": ("certify_state", "build_mc", "build_mq"),
    "linalg": ("herm_eigenvalues", "require_hermitian", "herm_coords", "herm_from_coords"),
    "groups": ("make_group", "character_table"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


# --------------------------------------------------------------------------
# measuring


class ReferenceKernel:
    """Fixed work, owned by the benchmark, run after every call.

    The host's speed drifts by about 10% over tens of seconds (seen on a
    2-vCPU VM), which moves a 30 s run's throughput by as much. The kernel is
    one ``eigvalsh`` of a fixed 169 x 169 complex Hermitian matrix; of the
    kernels tried (that, small batched products, JSON parsing, a Python loop,
    a memory-bound product) its time followed the workloads' drift most
    closely, so the cost per item in units of its time drifts far less than
    the raw time. No program code runs inside it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        h = rng.standard_normal((169, 169)) + 1j * rng.standard_normal((169, 169))
        self.herm = h + h.conj().T

    def run_for(self, budget: float) -> tuple[float, int]:
        """Run the kernel at least once and until ``budget`` seconds are used."""
        import numpy as np

        began = time.perf_counter()
        runs = 0
        while runs == 0 or time.perf_counter() - began < budget:
            np.linalg.eigvalsh(self.herm)
            runs += 1
        return time.perf_counter() - began, runs


class Measurement:
    """Step latencies, per-call outcomes and output digests of one measured phase."""

    def __init__(self, kernel: ReferenceKernel | None = None) -> None:
        self.steps: list[float] = []
        self.calls: list[dict] = []
        self.cycles = 0
        self.digests: dict[str, str] = {}
        self.kernel = kernel
        self.reference_s = 0.0
        self.reference_runs = 0

    @property
    def busy(self) -> float:
        return sum(self.steps)

    @property
    def items(self) -> int:
        return sum(c["items"] for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c["problems"])


def run_step(step, measurement: Measurement) -> None:
    from workloads import digest, invoke

    outcomes = []
    for call in step:
        began = time.perf_counter()
        try:
            rc, text = invoke(call.argv)
        except Exception:  # a program defect: record it and keep measuring
            rc, text = None, traceback.format_exc()
        seconds = time.perf_counter() - began
        outcomes.append((call, rc, text, seconds))
        if measurement.kernel is not None:
            spent, runs = measurement.kernel.run_for(REFERENCE_SHARE * seconds)
            measurement.reference_s += spent
            measurement.reference_runs += runs
    measurement.steps.append(sum(o[3] for o in outcomes))

    for call, rc, text, seconds in outcomes:
        items, problems = 0, []
        if rc is None:
            problems.append("exception: " + text.strip().splitlines()[-1])
        else:
            try:
                items, problems = call.check(rc, text)
                out_digest = digest(call.output)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"output does not parse: {exc!r}")
            else:
                earlier = measurement.digests.setdefault(call.label, out_digest)
                if earlier != out_digest:
                    problems.append("output bytes differ from an earlier identical call")
        measurement.calls.append({"label": call.label, "family": call.family,
                                  "seconds": seconds, "items": items, "problems": problems})


def measure(workload, seconds: float, setup_samples: list[float] | None = None,
            kernel: ReferenceKernel | None = None) -> Measurement:
    """Run the whole number of cycles that best fills ``seconds`` (at least one).

    The count is judged from the first cycle, so every run covers whole cycles
    and a workload's mix of inputs is the same in every run.

    When ``setup_samples`` is given, the set-up is repeated between steps,
    spaced evenly over the run, until it holds ``SETUP_REPEATS`` samples: the
    machine's speed drifts over tens of seconds, and samples spread over the
    run see the same drift as the steps instead of only its first seconds.
    """
    m = Measurement(kernel)
    start = time.perf_counter()
    cycles = 1
    while m.cycles < cycles:
        for step in workload.cycle():
            run_step(step, m)
            elapsed = time.perf_counter() - start
            if (setup_samples is not None and len(setup_samples) < SETUP_REPEATS
                    and elapsed >= len(setup_samples) * seconds / SETUP_REPEATS):
                setup_samples.append(timed_setup(workload))
        m.cycles += 1
        if m.cycles == 1:
            cycles = max(1, round(seconds / m.busy))
    return m


def timed_setup(workload) -> float:
    """One set-up: import the CLI in a fresh interpreter, then write the inputs."""
    importer = f"import sys; sys.path.insert(0, {str(SRC)!r}); import phaseframe.cli"
    began = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms, and the
    # measured time snaps to that grid.
    subprocess.run([sys.executable, "-c", importer], check=True)
    workload.setup()
    return time.perf_counter() - began


# --------------------------------------------------------------------------
# metrics


def end_to_end(workload, m: Measurement, setup_samples: list[float]) -> dict:
    steps_ms = [s * 1000.0 for s in m.steps]
    reference = m.reference_s / m.reference_runs
    out = {
        "setup_s": metric(statistics.median(setup_samples), "s", len(setup_samples)),
        "item_cost_ref": metric(m.busy / m.items / reference, "ref", m.items),
        "reference_ms": metric(reference * 1000.0, "ms", m.reference_runs),
        "step_p50_ms": metric(statistics.median(steps_ms), "ms", len(steps_ms)),
        "items_per_s": metric(m.items / m.busy, "1/s", m.items),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", 1),
        "failed_ratio": metric(m.failed / len(m.calls), "ratio", len(m.calls)),
    }
    if workload.name == "certify-cold":
        out["certify_p50_ms"] = metric(statistics.median(steps_ms), "ms", len(steps_ms))
        p90 = statistics.quantiles(steps_ms, n=10)[8] if len(steps_ms) > 1 else steps_ms[0]
        out["certify_p90_ms"] = metric(p90, "ms", len(steps_ms))
        out["certify_beyond_p90"] = metric(sum(s > p90 for s in steps_ms), "count", len(steps_ms))
    elif workload.name == "scan-batch":
        out["scan_states_per_s"] = metric(m.items / m.busy, "1/s", m.items)
    else:
        per_pass = len(workload.calls)
        for family in ("weyl", "leonhardt", "tensor"):
            sums = [sum(c["seconds"] for c in m.calls[i:i + per_pass] if c["family"] == family)
                    for i in range(0, len(m.calls), per_pass)]
            out[f"build_{family}_s"] = metric(statistics.median(sums), "s", len(sums))
    return out


def per_layer(workload, recorder, untraced: Measurement, traced: Measurement) -> dict:
    totals = spans.aggregate(recorder.spans)
    ops = sum(1 for s in recorder.spans if s[3] < 0)
    per = traced.items if workload.name == "scan-batch" else ops

    def self_ms(key):
        return totals.get(key, {"self_ns": 0})["self_ns"] / per / 1e6

    def calls(key):
        return totals.get(key, {"calls": 0})["calls"] / per

    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_ms"] = metric(self_ms(layer), "ms", per)
    for layer, names in HOT_FUNCTIONS.items():
        for name in names:
            out[f"{layer}.{name}.self_ms"] = metric(self_ms(f"{layer}.{name}"), "ms", per)
            out[f"{layer}.{name}.calls"] = metric(calls(f"{layer}.{name}"), "count", per)
    out["frames.invariant_passes"] = metric(sum(calls(k) for k in spans.INVARIANT_PASSES),
                                            "count", per)
    out["linalg.eig_rows"] = metric(recorder.counters["eig_rows"] / per, "count", per)
    out["serialize.bytes_read"] = metric(recorder.counters["bytes_read"] / per, "bytes", per)
    out["serialize.bytes_written"] = metric(recorder.counters["bytes_written"] / per,
                                            "bytes", per)
    out["frames.peak_alloc_mb"] = metric(recorder.frames_peak_bytes / 2**20, "MB", ops)
    out["cli.main.total_ms"] = metric(spans.root_total_ns(recorder.spans) / per / 1e6, "ms", per)
    out["trace_overhead_ratio"] = metric(
        (traced.busy / traced.cycles) / (untraced.busy / untraced.cycles), "ratio", traced.cycles)
    return out


# --------------------------------------------------------------------------
# record


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    commit = "unknown"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {False: spec["end_to_end"], True: spec["per_layer"]}


def run_all(args) -> int:
    """Run every workload, each in its own process so peak RSS stays per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phaseframe" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, SetupError

    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        setup_samples = [timed_setup(workload)]
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    workload.prepare()

    if trace:
        untraced = measure(workload, 0.0)
        recorder = spans.SpanRecorder()
        with recorder.installed():
            m = measure(workload, max(0.0, args.seconds - untraced.busy))
        metrics = per_layer(workload, recorder, untraced, m)
        calls = untraced.calls + m.calls
    else:
        m = measure(workload, args.seconds, setup_samples, ReferenceKernel())
        metrics = end_to_end(workload, m, setup_samples)
        calls = m.calls

    failed = sum(1 for c in calls if c["problems"])
    problems = workload.setup_problems + [
        f"{c['label']}: {p}" for c in calls for p in c["problems"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "attempted": len(calls), "failed": failed, "cycles": m.cycles,
        "problems": problems[:200], "problem_count": len(problems),
        "call_seconds_median": {
            label: statistics.median(c["seconds"] for c in calls if c["label"] == label)
            for label in dict.fromkeys(c["label"] for c in calls)},
        "output_digests": m.digests,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        (results / f"{tag}-spans.json").write_text(json.dumps(recorder.spans), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={m.cycles} "
          f"calls={len(calls)} failed={failed}")
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:>14.6g} {entry['unit']:6s} n={entry['samples']}")
    for problem in problems[:20]:
        print(f"problem: {problem}")

    emitted = {}
    for spec in declared()[trace]:
        entry = metrics[spec["name"]]
        if entry["unit"] != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {entry['unit']} != declared {spec['unit']}")
        emitted[spec["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": not problems, "attempted": len(calls),
                      "failed": failed, "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
