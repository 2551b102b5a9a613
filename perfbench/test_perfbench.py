"""The benchmark's own test: every workload at a tiny size, the gate, the spans.

    python3 -m pytest perfbench/test_perfbench.py

Takes about a minute; it is not part of the repository's tier-1 suite.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = _tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_traced_run_emits_every_layer_metric_and_sound_spans(workload):
    result = _tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if workload == "sweep-horizontal":
        # The pattern depends on n only: one per distinct grid size.
        assert result["metrics"]["assembly.patterns"]["value"] == 2
    _check_spans(ROOT / ".perfbench_out" / f"trace-{workload}-seed0-tiny.json.gz")


def _check_spans(path: Path) -> None:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)
    names = np.array(spans["names"])[spans["name"]]
    start, end = np.array(spans["start"]), np.array(spans["end"])
    parent, run = np.array(spans["parent"]), np.array(spans["run"])
    dur = end - start
    has_parent = parent >= 0
    # Children lie inside their parent's interval.
    assert np.all(start[has_parent] >= start[parent[has_parent]])
    assert np.all(end[has_parent] <= end[parent[has_parent]])
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    assert self_t.min() >= -1e-9
    # Self times of a root span's whole tree add up to the root's duration.
    root = np.arange(len(dur))
    while np.any(parent[root] >= 0):
        root = np.where(parent[root] >= 0, parent[root], root)
    roots = np.nonzero(~has_parent)[0]
    assert set(names[roots]) == {"main"}
    tree_self = np.bincount(root, weights=self_t, minlength=len(dur))[roots]
    np.testing.assert_allclose(tree_self, dur[roots], rtol=1e-9, atol=1e-9)
    # Every span below a run_single carries that run_single's id.
    solves = np.nonzero(names == "run_single")[0]
    assert len(solves) >= 1 and np.all(run[solves] == solves)
    inner = np.nonzero(has_parent)[0]
    expected = np.where(names[inner] == "run_single", inner, run[parent[inner]])
    assert np.array_equal(run[inner], expected)


def test_a_name_the_program_lacks_is_an_absent_metric():
    import types

    import tracer as tracing

    module = types.ModuleType("fake_adaptation")
    module.classify_all = lambda: None
    tracer = tracing.Tracer()
    tracer.wrap(module, "build_configs", "build_configs")
    tracer.wrap(module, "classify_all", "classify_all")
    module.classify_all()
    metrics = tracer.layer_metrics()
    assert tracer.missing == ["fake_adaptation.build_configs"]
    assert "adaptation.configs_s" not in metrics and "adaptation.classify_s" in metrics


def _reference_call(name: str, index: int = 0):
    call = workloads.build(name, workloads.DEFAULT_SEED)[index]
    return call, REFERENCE[name][index]["csv"]


def _corrupt(csv_text: str, row: int, column: str, transform) -> str:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    fields = lines[row].split(",")
    col = header.index(column)
    fields[col] = repr(transform(float(fields[col])))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_gate_accepts_the_reference_rows():
    for name in workloads.NAMES:
        for i, call in enumerate(workloads.build(name, workloads.DEFAULT_SEED)):
            text = REFERENCE[name][i]["csv"]
            verdict = gate.check_call(call, 0, text, text)
            assert verdict.attempted == len(call.keys) and not verdict.failed, verdict.reasons


def test_gate_rejects_a_norm_off_the_reference():
    call, text = _reference_call("sweep-horizontal")
    bad = _corrupt(text, 5, "L2", lambda v: v * (1 + 1e-5))
    verdict = gate.check_call(call, 0, bad, text)
    assert len(verdict.failed) == 1
    # Without a reference, a 1e-5 change is invisible; a rise with n is not.
    assert not gate.check_call(call, 0, bad).failed
    rising = _corrupt(text, 3, "H1", lambda v: v * 10)
    assert gate.check_call(call, 0, rising).failed


def test_gate_rejects_a_wide_angle_and_a_rate_outside_its_window():
    call, text = _reference_call("convergence-tilted")
    wide = _corrupt(text, 2, "max_angle_deg", lambda v: 162.5)
    assert len(gate.check_call(call, 0, wide).failed) == 1
    slow = _corrupt(text, len(call.keys) + 1, "L2", lambda v: 1.7)
    assert gate.check_call(call, 0, slow).failed == set(call.keys)


def test_gate_fails_every_solve_of_a_failed_or_truncated_call():
    call, text = _reference_call("convergence-tilted")
    assert gate.check_call(call, 1, text).failed == set(call.keys)
    truncated = "\n".join(text.splitlines()[:-2]) + "\n"
    assert gate.check_call(call, 0, truncated).failed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
