"""Benchmark workloads: the CLI calls each workload makes, generated from the seed.

The benchmark passes only these argument lists to the program. The same seed
always gives the same calls; ``DEFAULT_SEED`` gives the canonical inputs for
which ``reference.json`` holds the expected rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
NAMES = ("solve-circle-n256", "sweep-horizontal", "convergence-tilted")
SIZES = ("full", "tiny")

# The CLI's own default sweep grid (offsets 0 to 1 in steps of 0.025). On the
# default seed the sweep passes no --values, so this is what the CLI solves.
DEFAULT_OFFSETS = tuple(round(0.025 * i, 6) for i in range(41))

DEFAULT_ALPHA = 0.3
# Seeds other than the default draw the tilt from here. At alpha = pi/4 the
# line runs along the patch diagonals and no patch is cut; this interval keeps
# well away from it, and every angle in it passes the rate windows at the
# benchmark's levels.
ALPHA_RANGE = (0.2, 0.4)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the solves it must report.

    ``keys`` names the expected rows: ``n`` for solve and convergence rows,
    ``(offset, n)`` for sweep rows. ``rates`` is true where the CLI appends a
    rates row that must lie in the acceptance windows.
    """

    argv: tuple
    kind: str
    strategy: int
    keys: tuple
    rates: bool = False


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _circle(seed: int, size: str):
    # The circle has no free input, so the seed does not change this workload.
    n = 256 if size == "full" else 32
    argv = ("solve", "--problem", "circle", "--n", str(n), "--strategy", "2")
    return [Call(argv, "solve", 2, (n,))]


def _sweep(seed: int, size: str):
    ns = (16, 32, 64) if size == "full" else (8, 16)
    argv = ["sweep", "--problem", "horizontal", "--n", _ints(ns), "--strategy", "2"]
    if seed == DEFAULT_SEED and size == "full":
        offsets = DEFAULT_OFFSETS
    else:
        rng = random.Random(seed)
        count = len(DEFAULT_OFFSETS) if size == "full" else 5
        offsets = tuple(sorted(round(rng.uniform(0.0, 1.0), 6) for _ in range(count)))
        argv += ["--values", ",".join(repr(v) for v in offsets)]
    keys = tuple((v, n) for v in offsets for n in ns)
    return [Call(tuple(argv), "sweep", 2, keys)]


def _convergence(seed: int, size: str):
    levels = (16, 32, 64, 128) if size == "full" else (16, 32, 64)
    if seed == DEFAULT_SEED:
        alpha = DEFAULT_ALPHA
    else:
        alpha = round(random.Random(seed).uniform(*ALPHA_RANGE), 6)
    calls = []
    for mode in ("adapted", "baseline"):
        argv = ("convergence", "--problem", "tilted", "--alpha", repr(alpha),
                "--levels", _ints(levels), "--strategy", "3", "--mode", mode)
        calls.append(Call(argv, "convergence", 3, levels, rates=mode == "adapted"))
    return calls


_GENERATORS = {
    "solve-circle-n256": _circle,
    "sweep-horizontal": _sweep,
    "convergence-tilted": _convergence,
}


def build(name: str, seed: int, size: str = "full") -> list[Call]:
    """The CLI calls of one repetition of workload ``name``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _GENERATORS[name](seed, size)
