"""Tests of the benchmark itself: recorder, self-time accounting, oracle, names.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import re
import sys

import numpy as np
import pytest

import oracle
import run
import spans
from workloads import WORKLOADS, invoke

import phaseframe.cli  # noqa: F401  (imports every layer module)

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _package_attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "phaseframe" or name.startswith("phaseframe.")
            for attr, value in vars(module).items()}


@pytest.fixture
def weyl3(tmp_path):
    path = tmp_path / "weyl3.json"
    assert invoke(["frame", "build", "weyl", "--d", "3", "--out", str(path)])[0] == 0
    return path


def test_wrapper_restores_every_patched_name():
    before = _package_attributes()
    recorder = spans.SpanRecorder()
    with recorder.installed():
        patched = recorder.patched
        cli = phaseframe.cli
        # A function imported by name into another module is wrapped there too.
        assert hasattr(cli.main, "__wrapped_span__")
        assert cli.certify_state.__wrapped_span__ == "bochner.certify_state"
        assert {attr for _, attr, _ in patched} >= {"validate_frame", "load_frame", "main"}
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_layer_self_times_sum_to_root_span(weyl3, tmp_path):
    recorder = spans.SpanRecorder()
    with recorder.installed():
        assert invoke(["certify", "--frame", str(weyl3), "--state", "random-pure:3",
                       "--out", str(tmp_path / "c.json")])[0] == 4
        assert invoke(["scan", "--frame", str(weyl3), "--family", "stabilizers",
                       "--out", str(tmp_path / "s.csv")])[0] == 0
    roots = [s for s in recorder.spans if s[3] < 0]
    assert [s[0] for s in roots] == [spans.ROOT, spans.ROOT]
    totals = spans.aggregate(recorder.spans)
    assert set(totals) >= {"frames", "serialize", "bochner", "linalg", "cli"}
    layer_sum = sum(totals[layer]["self_ns"] for layer in spans.LAYERS if layer in totals)
    assert layer_sum == spans.root_total_ns(recorder.spans)
    assert all(own >= 0 for own in spans.self_times(recorder.spans))


def test_oracle_flags_a_flipped_verdict(weyl3, tmp_path):
    out = tmp_path / "c.json"
    rc, _ = invoke(["certify", "--frame", str(weyl3), "--state", "random-density:5",
                    "--out", str(out)])
    frame = oracle.read_frame(weyl3)
    rho = oracle.state_from_spec("random-density:5", 3)
    exp = oracle.expect(rho, oracle.fourier_ops(frame))
    phi = oracle.characteristic(frame, rho)
    payload = json.loads(out.read_text())
    assert oracle.certificate_problems(payload, exp, phi, rc) == []

    flipped = json.loads(out.read_text())
    verdicts = flipped["verdicts"]
    verdicts["is_positively_representable"] = not verdicts["is_positively_representable"]
    assert any("is_positively_representable" in p
               for p in oracle.certificate_problems(flipped, exp, phi, rc))

    flagged = json.loads(out.read_text())
    flagged["boundary"] = True
    assert any("boundary" in p for p in oracle.certificate_problems(flagged, exp, phi, rc))
    assert oracle.certificate_problems(payload, exp, phi, 5)


def test_oracle_accepts_exact_zeros_and_rejects_wrong_rows(weyl3, tmp_path):
    out = tmp_path / "s.csv"
    assert invoke(["scan", "--frame", str(weyl3), "--family", "stabilizers",
                   "--out", str(out)])[0] == 0
    fourier = oracle.fourier_ops(oracle.read_frame(weyl3))
    rows = oracle.scan_rows(out.read_text())
    states = oracle.scan_family("stabilizers", 3, 0, 0)
    assert len(rows) == len(states) == 12
    for row, rho in zip(rows, states):
        exp = oracle.expect(rho, fourier)
        assert exp.clear and exp.is_positively_representable
        args = (row["is_quantum_state"], row["is_positively_representable"], row["boundary"],
                row["state_min_eig"], row["min_mu"])
        assert oracle.verdict_problems(exp, *args) == []
        assert oracle.verdict_problems(exp, args[0], False, *args[2:])
    assert np.min([oracle.expect(r, fourier).min_mu for r in states]) > -1e-12


@pytest.mark.parametrize("trace", [0, 1])
def test_every_emitted_metric_name_follows_the_rule(trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.main(["--workload", "certify-cold", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    declared = run.declared()[bool(trace)]
    assert list(result["metrics"]) == [spec["name"] for spec in declared]
    reported = [line.split()[0] for line in lines[1:-1] if not line.startswith("problem")]
    for name in reported + list(result["metrics"]):
        assert NAME_RULE.fullmatch(name), name


def test_declared_names_follow_the_rule():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RULE.fullmatch(name), name
