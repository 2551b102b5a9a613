"""Pipeline benchmark for the patchfem CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-horizontal --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Every repetition runs in a fresh child Python process (``child.py``), started
one at a time, which imports ``src/patchfem``, warms up, and calls
``patchfem.cli.main`` in-process with the workload's arguments.

1. Set-up: ``SETUP_CHILDREN`` children only import and warm up.
2. Measurement: repetitions run until the next one would end past
   ``--seconds`` (at least one). Every CSV row is checked by ``gate.py``.
3. With ``--trace 1``: one more repetition runs with ``tracer.py`` installed.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
time of a repetition's CLI calls), ``setup_s`` (median over all children of
start-up plus warm-up) and ``peak_rss_mib`` (median child ``ru_maxrss``).
With ``--trace 1`` they are the per-layer ones from the traced repetition,
plus ``trace.overhead_s``: its wall time minus the untraced median.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``,
where ``attempted`` and ``failed`` count solves and ``failed_frac`` is their
ratio. The exit code is 1 when any solve fails the gate and 2 when the
benchmark cannot run at all (for example, no ``src/patchfem`` to import).
Raw samples, the gate's reasons and the environment go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, spans to
``.perfbench_out/trace-<workload>-seed<seed>.json.gz`` (``-tiny`` is added to
both names for ``--size tiny``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_CHILDREN = 5
# A run must finish within 180 s; children are given what is left of this.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed solve)."""


def environment(seed: int, calls) -> dict:
    """What a result depends on besides the code: machine, libraries, inputs."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": _git_commit(),
        "seed": seed,
        "argv": [list(c.argv) for c in calls],
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts children one at a time and keeps the run inside its deadline."""

    def __init__(self, calls, workdir: Path):
        self.calls = calls
        self.workdir = workdir
        self.started = time.monotonic()

    def child(self, mode: str, trace: int = 0) -> dict:
        outdir = Path(tempfile.mkdtemp(dir=self.workdir))
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
               "--outdir", str(outdir), "--mode", mode, "--trace", str(trace)]
        stdin = json.dumps({"calls": [list(c.argv) for c in self.calls]})
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchmarkError(f"out of time after {DEADLINE_S} s")
        try:
            proc = subprocess.run(cmd + ["--spawn-time", repr(time.monotonic())],
                                  input=stdin, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} child exceeded the run deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(f"{mode} child exited {proc.returncode}:\n{proc.stderr}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["outdir"] = outdir
        return result


def read_output(path: Path):
    """Text of a file a child wrote, or None if the call wrote none."""
    return path.read_text(encoding="utf-8") if path.exists() else None


def check_rep(calls, rep: dict, reference) -> list:
    """Gate verdicts for every call of one repetition."""
    verdicts = []
    for i, (call, code) in enumerate(zip(calls, rep["exit_codes"])):
        ref = reference[i]["csv"] if reference else None
        text = read_output(rep["outdir"] / f"call{i}.csv")
        verdicts.append(gate.check_call(call, code, text, ref))
    return verdicts


def load_reference(name: str, calls):
    """Reference rows for ``calls``, or None when the committed ones do not apply."""
    refs = json.loads(REFERENCE.read_text()).get(name)
    if refs is None or [r["argv"] for r in refs] != [list(c.argv) for c in calls]:
        return None
    return refs


def measure(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    calls = workloads.build(name, seed, size)
    reference = None
    if seed == workloads.DEFAULT_SEED and size == "full":
        reference = load_reference(name, calls)
        if reference is None:
            raise BenchmarkError(f"{REFERENCE.name} has no rows for {name}")
    tag = f"{name}-seed{seed}" + ("" if size == "full" else f"-{size}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{name}-"))
    try:
        runner = Runner(calls, workdir)
        setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_CHILDREN)]

        reps, verdicts = [], []
        t0 = time.monotonic()
        while True:
            rep = runner.child("rep")
            reps.append(rep)
            verdicts += check_rep(calls, rep, reference)
            typical = statistics.median(sum(r["wall_s"]) for r in reps)
            if time.monotonic() - t0 + typical > seconds:
                break
        samples = {
            "wall_s": [sum(r["wall_s"]) for r in reps],
            "setup_s": setups + [r["setup_s"] for r in reps],
            "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        }
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        traced = None
        if trace:
            traced = runner.child("rep", trace=1)
            verdicts += check_rep(calls, traced, reference)
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = sum(traced["wall_s"]) - metrics["wall_s"]
            trace_file = OUT_DIR / f"trace-{tag}.json.gz"
            shutil.move(traced["outdir"] / "trace.json.gz", trace_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(len(v.failed) for v in verdicts)
    result = {
        "workload": name,
        "seed": seed,
        "size": size,
        "environment": environment(seed, calls),
        "repetitions": len(reps),
        "samples": samples,
        "end_to_end": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "gate_reasons": [r for v in verdicts for r in v.reasons][:50],
    }
    if traced is not None:
        result["per_layer"] = layers
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        result["missing"] = traced["missing"]
    (OUT_DIR / f"{tag}-trace{trace}.json").write_text(
        json.dumps(result, indent=1))
    return result


def report(result: dict, trace: int) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    name = result["workload"]
    env = result["environment"]
    print(f"[{name}] seed {result['seed']}, {result['repetitions']} repetitions, "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas {env['blas']}, "
          f"OPENBLAS_NUM_THREADS {env['OPENBLAS_NUM_THREADS']}, commit {env['commit']}")
    for argv in env["argv"]:
        print(f"[{name}] patchfem {' '.join(argv)}")
    for key, value in result["end_to_end"].items():
        print(f"[{name}] {key} = {value:.4f} {END_TO_END_UNITS[key]}")
    print(f"[{name}] failed_frac = {result['failed_frac']:g} ratio "
          f"({result['failed']} of {result['attempted']} solves failed)")
    for reason in result["gate_reasons"][:10]:
        print(f"[{name}] gate: {reason}")
    if trace:
        for key, value in result["per_layer"].items():
            print(f"[{name}] {key} = {value:.6g} {layer_unit(key)}")
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("ms_per_iter"):
        return "ms"
    if key.endswith("_frac"):
        return "ratio"
    if key.endswith("_bytes_computed"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="patchfem pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload (for the benchmark's own test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patchfem" / "__init__.py").is_file():
        print(f"no src/patchfem under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace, args.size)
            shown = report(result, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in shown.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
