"""Regenerate ``reference.json``: the CSV rows of every workload on the default seed.

    python3 perfbench/make_reference.py

Runs one repetition of each workload in a child process, exactly as
``run.py`` does, and refuses to write rows that fail the gate's own checks.
Regenerate only when the program's numerical output is meant to change, and
say why in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.OUT_DIR, prefix="reference-"))
    reference = {}
    try:
        for name in workloads.NAMES:
            calls = workloads.build(name, workloads.DEFAULT_SEED)
            rep = run.Runner(calls, workdir).child("rep")
            entries = []
            for i, (call, code) in enumerate(zip(calls, rep["exit_codes"])):
                text = run.read_output(rep["outdir"] / f"call{i}.csv")
                verdict = gate.check_call(call, code, text)
                if verdict.failed:
                    print(f"{name}: {verdict.reasons[:5]}", file=sys.stderr)
                    return 1
                entries.append({"argv": list(call.argv), "csv": text})
            reference[name] = entries
            print(f"{name}: {sum(len(c.keys) for c in calls)} rows")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
