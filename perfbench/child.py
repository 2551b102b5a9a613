"""One benchmark repetition in a fresh Python process.

Reads ``{"calls": [[argv...], ...]}`` as JSON on stdin, imports patchfem from
``<root>/src``, warms up with one small solve, then (in ``rep`` mode) runs
each call through ``patchfem.cli.main`` in-process with ``--out`` pointing
into ``--outdir``. The last stdout line is a JSON object:

- ``setup_s``: from ``--spawn-time`` (the parent's ``time.monotonic()`` just
  before it started this process; Linux's monotonic clock is system-wide)
  to the end of the warm-up;
- ``wall_s`` and ``exit_codes``: time and exit code of each call;
- ``peak_rss_mib``: ``ru_maxrss`` of this process at exit;
- ``layers``: per-layer metrics when ``--trace 1`` (spans go to
  ``<outdir>/trace.json.gz``).

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

WARMUP_ARGV = ["solve", "--problem", "circle", "--n", "16"]


def _cli(cli_module, argv) -> int:
    """Run one CLI call as a user would; a crash counts as exit code 1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_module.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed solve, not a failed benchmark
        traceback.print_exc()
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--mode", choices=["setup", "rep"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    args = parser.parse_args()
    calls = json.load(sys.stdin)["calls"] if args.mode == "rep" else []

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import patchfem.cli

    if src not in Path(patchfem.cli.__file__).resolve().parents:
        print(f"patchfem was imported from {patchfem.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if _cli(patchfem.cli, WARMUP_ARGV) != 0:
        print("warm-up solve failed", file=sys.stderr)
        return 2
    result = {"setup_s": time.monotonic() - args.spawn_time}

    if args.mode == "rep":
        outdir = Path(args.outdir)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.install()
        walls, codes = [], []
        for i, argv in enumerate(calls):
            argv = list(argv) + ["--out", str(outdir / f"call{i}.csv")]
            t0 = time.perf_counter()
            codes.append(_cli(patchfem.cli, argv))
            walls.append(time.perf_counter() - t0)
        result.update(wall_s=walls, exit_codes=codes)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["missing"] = tracer.missing
            tracer.write(outdir / "trace.json.gz")

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
